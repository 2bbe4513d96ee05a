#!/usr/bin/env python3
"""LAAR benchmark runner.

Builds the library and the `laar_bench` harness (Release) into
.bench_build/ under the current directory, runs one workload, checks its
outputs against reference.json, and prints every metric with its unit. The
last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the repository root:

    python3 benchmark/run.py --workload paper_corpus --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --workload web_scale_sharded --trace 1
    python3 benchmark/run.py --write-reference [--size smoke] [--workload W]

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (and writes the spans to .bench_build/traces/). Exits 0 when
every output matched, 1 when a check failed, 2 when it cannot run at all.
See README.md in this directory.
"""

import argparse
import concurrent.futures
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("paper_corpus", "search_corpus", "web_scale_sharded")
# Distinct inputs per workload: seeds n and n + INPUTS[w] run the same input
# (see InputKey in laar_bench.cc), so seeds 0 .. INPUTS[w] - 1 cover them.
INPUTS = {"paper_corpus": 3, "search_corpus": 5, "web_scale_sharded": 4}
# The seed a claim is tuned on, and one kept back to confirm it on.
DEFAULT_SEED = 1
HELDOUT_SEED = 7919
REFERENCE = BENCH_DIR / "reference.json"
# Time limits for one invocation: a run that first has to build gets longer.
RUN_LIMIT_S = 175
BUILD_RUN_LIMIT_S = 890


def log(message):
    print(message, file=sys.stderr, flush=True)


def die(message, code=2):
    log(f"run.py: {message}")
    sys.exit(code)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "laar_bench"


def build():
    """Configures (first use only) and builds the harness; returns the
    binary and whether this call configured a fresh tree."""
    if not (BENCH_DIR.parent / "src" / "CMakeLists.txt").is_file():
        die(f"library sources not found at {BENCH_DIR.parent / 'src'}")
    out = build_dir()
    cache = out / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}\n" not in cache.read_text():
        shutil.rmtree(out)  # configured from another source tree
    fresh = not cache.is_file()
    steps = []
    if fresh:
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_RUN_LIMIT_S - 60)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            die(f"build step failed: {' '.join(step)}")
    return out / "laar_bench", fresh


def invoke(binary, flags, deadline):
    """Runs the harness; returns its result object (last stdout line)."""
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        die("out of time before " + " ".join(flags))
    try:
        done = subprocess.run([str(binary)] + flags, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        die("timed out: laar_bench " + " ".join(flags))
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        die(f"laar_bench {' '.join(flags)} exited {done.returncode}")
    return json.loads(lines[-1])


def web_passes(binary, flags, deadline, result):
    """web_scale_sharded's one-engine passes, each in its own process so its
    peak RSS is its own; folds them into the traced result."""
    passes = {name: invoke(binary, flags + ["--mode=pass", f"--pass={name}"], deadline)
              for name in ("inline", "windowed_s1")}
    metrics = result["metrics"]

    def value(run, name):
        return run["metrics"][name]["value"]

    def set_metric(name, number, unit):
        metrics[name] = {"value": number, "unit": unit}

    inline, s1 = passes["inline"], passes["windowed_s1"]
    s4_wall = value(result, "dsps.sim_s.p50")
    set_metric("dsps.inline.events_per_s", value(inline, "events") / value(inline, "wall_s"), "1/s")
    set_metric("dsps.windowed_s1.events_per_s", value(s1, "events") / value(s1, "wall_s"), "1/s")
    set_metric("dsps.windowed_s1_over_inline",
               (value(s1, "wall_s") / value(s1, "events"))
               / (value(inline, "wall_s") / value(inline, "events")), "ratio")
    set_metric("dsps.s4_speedup_vs_inline", value(inline, "wall_s") / s4_wall, "ratio")
    set_metric("dsps.peak_rss_mb.inline", value(inline, "peak_rss_mb"), "MB")
    set_metric("dsps.peak_rss_mb.windowed_s1", value(s1, "peak_rss_mb"), "MB")
    for run in passes.values():
        result["attempted"] += run["attempted"]
        result["failed"] += run["failed"]


def declared_metrics(trace):
    """Names BENCHMARK.json promises for this mode."""
    spec = Path("BENCHMARK.json")
    if not spec.is_file():
        die("run from the repository root: BENCHMARK.json not found")
    return [m["name"] for m in json.loads(spec.read_text())["per_layer" if trace else "end_to_end"]]


def run_workload(args):
    start = time.monotonic()
    binary, fresh = build()
    deadline = start + (BUILD_RUN_LIMIT_S if fresh else RUN_LIMIT_S)
    flags = [f"--workload={args.workload}", f"--seed={args.seed}", f"--seconds={args.seconds}",
             f"--size={args.size}", f"--reference={args.reference}"]
    if args.trace:
        traces = build_dir().parent / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        trace_file = traces / f"{args.workload}-{args.size}-seed{args.seed}.json"
        result = invoke(binary, flags + ["--mode=trace", f"--trace-out={trace_file}"], deadline)
        if args.workload == "web_scale_sharded":
            web_passes(binary, flags, deadline, result)
        log(f"spans: {trace_file}")
    else:
        result = invoke(binary, flags + ["--mode=run"], deadline)

    metrics = result["metrics"]
    names = declared_metrics(args.trace)
    missing = [name for name in names if name not in metrics]
    if missing:
        die("harness did not report " + ", ".join(missing))
    attempted, failed = result["attempted"], min(result["failed"], result["attempted"])

    print(f"host: {json.dumps(result['host'])}")
    print(f"workload: {args.workload} seed={args.seed} size={args.size} input={result['input']}")
    for name in names:
        print(f"  {name} = {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    print(f"  failed_frac = {failed / max(attempted, 1):.6g} ({failed} of {attempted} operations)")
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": {name: metrics[name] for name in names}}))
    return 0 if failed == 0 and attempted > 0 else 1


def write_reference(args):
    """Computes reference digests by the independent path and merges them
    into the reference file (existing entries for other inputs are kept)."""
    binary, _ = build()
    path = Path(args.reference)
    doc = json.loads(path.read_text()) if path.is_file() else {"digests": {}}
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    jobs = [(w, seed) for w in workloads for seed in range(INPUTS[w])]

    def one(job):
        workload, seed = job
        deadline = time.monotonic() + 3600
        return invoke(binary, [f"--workload={workload}", f"--seed={seed}", f"--size={args.size}",
                               "--mode=reference"], deadline)

    with concurrent.futures.ThreadPoolExecutor(max_workers=min(2, os.cpu_count() or 1)) as pool:
        for result in pool.map(one, jobs):
            doc["digests"][result["input"]] = result["digests"]
            log(f"reference {result['input']}: {len(result['digests'])} digests")
    doc["digests"] = dict(sorted(doc["digests"].items()))
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--reference", default=str(REFERENCE))
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if args.write_reference:
        return write_reference(args)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
