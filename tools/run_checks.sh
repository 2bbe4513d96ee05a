#!/bin/sh
# The repository's check suite, runnable locally or as the single CI step:
#
#   sh tools/run_checks.sh [build-dir]
#
# 1. configures + builds the default tree (-Wall -Wextra -Werror),
# 2. runs the full ctest suite, $JOBS tests at a time,
# 3. verifies no generated artifacts are tracked by git,
# 4. smoke-tests the CLI pipeline end to end (generate -> solve ->
#    simulate with a correlated rack outage and an explicit overlapping
#    crash schedule), requires a node-budgeted solve to write the same
#    strategy with and without the live progress stream, then the
#    forensics loop on the outage run:
#    validate + explain the trace, diff the two placements, and require
#    the artifacts to be byte-identical across --jobs and across
#    --shards=1/4 at a fixed --link-latency (the sharded-engine contract),
# 5. engine-profile smoke: profiled sharded runs at --shards=1/4 must
#    summarize cleanly (`laar_trace profile` validates the event closure),
#    their deterministic aggregates and profiled metrics must be
#    byte-identical across shard counts, and profiling must not perturb
#    the hashed artifacts of step 4,
# 6. rebuilds the concurrency-sensitive tests (thread pool, parallel
#    corpus + observability publishing, sharded DES engine) under
#    ThreadSanitizer and runs them, plus the two --jobs-invariance cases
#    of corpus_test (its simulation tasks write into shared records from
#    several threads) and determinism_test's windowed goldens (2 and 4
#    shards on worker threads).
#
# Any failing step aborts the script with a non-zero exit.
set -eu

cd "$(git rev-parse --show-toplevel)"

BUILD_DIR="${1:-build}"
TSAN_DIR="${BUILD_DIR}-tsan"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== [1/6] build (${BUILD_DIR}) =="
cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "== [2/6] ctest =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

echo "== [3/6] tracked-artifact check =="
sh tools/check_no_tracked_artifacts.sh

echo "== [4/6] CLI smoke: generate -> solve -> simulate (domain outage + crash schedule) =="
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
"./$BUILD_DIR/tools/laar_generate" --seed=7 --out="$SMOKE_DIR/app.json" >/dev/null
"./$BUILD_DIR/tools/laar_solve" --app="$SMOKE_DIR/app.json" --ic=0.6 \
    --out="$SMOKE_DIR/strategy.json" >/dev/null
# Under a node budget and no deadline the solve is a pure function of its
# inputs (5M stop checks end it with a feasible strategy); the progress
# stream only observes it.
budget_solve() {
    "./$BUILD_DIR/tools/laar_solve" --app="$SMOKE_DIR/app.json" --ic=0.6 \
        --time-limit=0 --node-limit=5000000 "$@" >/dev/null
}
budget_solve --out="$SMOKE_DIR/budget.strategy.json"
budget_solve --out="$SMOKE_DIR/budget.progress.strategy.json" --progress=1000 \
    2>"$SMOKE_DIR/progress.log"
grep -q '^progress: ' "$SMOKE_DIR/progress.log"
cmp "$SMOKE_DIR/budget.strategy.json" "$SMOKE_DIR/budget.progress.strategy.json"
"./$BUILD_DIR/tools/laar_simulate" --app="$SMOKE_DIR/app.json" \
    --strategy="$SMOKE_DIR/strategy.json" --hosts-per-rack=3 \
    --placement=domain --fail-domain=rack:1 >/dev/null
"./$BUILD_DIR/tools/laar_simulate" --app="$SMOKE_DIR/app.json" \
    --strategy="$SMOKE_DIR/strategy.json" \
    --crash-schedule=2@10+8,2@13+8,5@30+5 >/dev/null

# Forensics loop on the rack outage. The restricted category list keeps the
# trace ring from wrapping, so `explain` can (and must) reconcile every
# crash-attributed loss against the embedded ledger.
forensics_sim() {
    "./$BUILD_DIR/tools/laar_simulate" --app="$SMOKE_DIR/app.json" \
        --strategy="$SMOKE_DIR/strategy.json" --hosts-per-rack=3 \
        --fail-domain=rack:1 \
        --trace-categories=drops,failures,config,health "$@" >/dev/null
}
forensics_sim --placement=domain \
    --trace-out="$SMOKE_DIR/domain.trace.json" \
    --metrics-out="$SMOKE_DIR/domain.metrics.json"
forensics_sim --placement=balanced \
    --metrics-out="$SMOKE_DIR/balanced.metrics.json"
"./$BUILD_DIR/tools/laar_trace" --in="$SMOKE_DIR/domain.trace.json" validate >/dev/null
"./$BUILD_DIR/tools/laar_trace" --in="$SMOKE_DIR/domain.trace.json" explain >/dev/null
"./$BUILD_DIR/tools/laar_trace" diff "$SMOKE_DIR/balanced.metrics.json" \
    "$SMOKE_DIR/domain.metrics.json" >/dev/null
# Worker parallelism must not leak into the artifacts.
forensics_sim --placement=domain --jobs=2 \
    --trace-out="$SMOKE_DIR/domain.jobs2.trace.json" \
    --metrics-out="$SMOKE_DIR/domain.jobs2.metrics.json"
cmp "$SMOKE_DIR/domain.trace.json" "$SMOKE_DIR/domain.jobs2.trace.json"
cmp "$SMOKE_DIR/domain.metrics.json" "$SMOKE_DIR/domain.jobs2.metrics.json"

# The sharded-engine contract end to end: at a fixed --link-latency, the
# shard count must not change a single artifact byte.
sharded_sim() {
    forensics_sim --placement=domain --link-latency=0.005 "$@"
}
sharded_sim --shards=1 \
    --trace-out="$SMOKE_DIR/domain.s1.trace.json" \
    --metrics-out="$SMOKE_DIR/domain.s1.metrics.json"
sharded_sim --shards=4 \
    --trace-out="$SMOKE_DIR/domain.s4.trace.json" \
    --metrics-out="$SMOKE_DIR/domain.s4.metrics.json"
cmp "$SMOKE_DIR/domain.s1.trace.json" "$SMOKE_DIR/domain.s4.trace.json"
cmp "$SMOKE_DIR/domain.s1.metrics.json" "$SMOKE_DIR/domain.s4.metrics.json"

echo "== [5/6] engine-profile smoke (--profile-out + laar_trace profile) =="
# Profiled runs at two shard counts. `laar_trace profile` re-validates the
# event closure (exit 1 on mismatch) and extracts the deterministic
# aggregate, which must be byte-identical across shard counts — as must the
# metrics artifact, because PublishProfile only exposes shards-invariant
# prof_* entries. Full profile documents are NOT cmp'd: their per-shard
# sections legitimately depend on the shard count.
sharded_sim --shards=1 \
    --profile-out="$SMOKE_DIR/profile.s1.json" \
    --metrics-out="$SMOKE_DIR/profiled.s1.metrics.json"
sharded_sim --shards=4 \
    --profile-out="$SMOKE_DIR/profile.s4.json" \
    --metrics-out="$SMOKE_DIR/profiled.s4.metrics.json"
"./$BUILD_DIR/tools/laar_trace" profile --in="$SMOKE_DIR/profile.s1.json" \
    --aggregate-out="$SMOKE_DIR/profile.s1.agg.json"
"./$BUILD_DIR/tools/laar_trace" profile --in="$SMOKE_DIR/profile.s4.json" \
    --aggregate-out="$SMOKE_DIR/profile.s4.agg.json"
cmp "$SMOKE_DIR/profile.s1.agg.json" "$SMOKE_DIR/profile.s4.agg.json"
cmp "$SMOKE_DIR/profiled.s1.metrics.json" "$SMOKE_DIR/profiled.s4.metrics.json"
# A profiled trace gains the shard-runner track; it must still be valid
# Chrome trace JSON (per-lane timestamp monotonicity, known phase set).
sharded_sim --shards=4 \
    --profile-out="$SMOKE_DIR/profile.tr.json" \
    --trace-out="$SMOKE_DIR/domain.s4.profiled.trace.json"
"./$BUILD_DIR/tools/laar_trace" validate \
    --in="$SMOKE_DIR/domain.s4.profiled.trace.json" >/dev/null
# Profile documents diff cleanly against themselves (verdict plumbing).
"./$BUILD_DIR/tools/laar_trace" diff "$SMOKE_DIR/profile.s1.json" \
    "$SMOKE_DIR/profile.s4.json" >/dev/null

echo "== [6/6] TSan: exec_test + obs_test + sharded_sim_test + corpus_test + determinism_test (${TSAN_DIR}) =="
cmake -B "$TSAN_DIR" -S . -DLAAR_SANITIZE=thread >/dev/null
cmake --build "$TSAN_DIR" -j "$JOBS" \
    --target exec_test obs_test sharded_sim_test corpus_test determinism_test
ctest --test-dir "$TSAN_DIR" -R 'exec_test|obs_test|sharded_sim_test' --output-on-failure
"./$TSAN_DIR/tests/corpus_test" \
    --gtest_filter=CorpusTest.ParallelRunsProduceIdenticalRecords:CorpusTest.DomainOutageRecordsAndTracesAreJobsInvariant
"./$TSAN_DIR/tests/determinism_test" \
    --gtest_filter=DeterminismTest.WindowedOutputsMatchGoldensAtEveryShardCount

echo "ok: all checks passed"
