// laar_trace — inspect and transform Chrome trace-event JSON produced by
// `laar_simulate --trace-out` (or the corpus runner's per-experiment
// traces).
//
// Usage:
//   laar_trace summarize --in=run.json            # also the default
//   laar_trace validate --in=run.json             # schema check, exit 0/1
//   laar_trace filter --in=run.json --filter=drops,failures --out=small.json
//   laar_trace timeseries --in=run.json [--bucket=S] [--out=series.csv]
//   laar_trace explain --in=run.json [--out=forensics.json]
//   laar_trace profile --in=profile.json [--aggregate-out=agg.json]
//                      [--imbalance-threshold=1.5]
//   laar_trace diff runA.json runB.json [--out=diff.json]
//                   (--a=runA.json --b=runB.json also accepted)
//
// The subcommand word is optional for the first three (legacy flag-driven
// invocations keep working: --validate, --filter imply their subcommands).
//
// `filter` keeps metadata records plus the events of the named categories
// ({drops, queues, activation, failures, config, spans, engine, tuples,
// health}) and writes the result — still valid Chrome trace JSON — to
// --out.
//
// `timeseries` re-derives plottable series from a recorded trace: every
// counter ("C") event becomes one CSV row, and with --bucket=S each event
// category additionally gets a bucketed event-count series — CSV with the
// fixed header `time_seconds,series,value`, to --out or stdout.
//
// `explain` runs the post-run forensic pass: host crash/recover events are
// correlated into incidents (simultaneous multi-host outages are domain
// outages), crash-attributed losses and collateral drops are assigned to
// them, and the result — reconciled against the loss ledger the producer
// stamped into the trace — prints as a one-screen incident report (JSON to
// --out). Exits 1 when a complete trace fails to reconcile with its ledger.
//
// `profile` summarizes a `laar_simulate --profile-out` document: validates
// the schema and the event closure (Σ per-shard events + control events ==
// engine_events; exit 1 on mismatch), prints the per-shard barrier-stall /
// execute breakdown with utilization, flags hot shards whose event share
// exceeds --imbalance-threshold × the ideal share, and lists the hottest
// measured phases. --aggregate-out writes the shards-invariant
// deterministic aggregate — the section CI `cmp`s across --shards counts.
//
// `diff` compares two `--metrics-out` artifacts (counters, gauges,
// histograms, timeseries, loss ledgers) and prints per-entry deltas plus a
// one-line verdict; the stamped run metadata flags incomparable workloads.
// Engine-profile documents diff too: deterministic prof counters join the
// verdict, measured wall-clock deltas are reported but never part of it.

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "laar/common/flags.h"
#include "laar/common/strings.h"
#include "laar/json/json.h"
#include "laar/obs/chrome_trace.h"
#include "laar/obs/engine_profiler.h"
#include "laar/obs/forensics.h"
#include "laar/obs/run_diff.h"
#include "laar/obs/trace_event.h"

namespace {

/// CSV rows of every counter event, plus optional per-category bucketed
/// event counts. Sorted by series name then time — deterministic for a
/// given trace.
std::string TimeSeriesCsvFromTrace(const laar::json::Value& trace, double bucket_seconds) {
  const laar::json::Value empty_array = laar::json::Value::MakeArray();
  const laar::json::Value& events = trace.GetOr("traceEvents", empty_array);
  // series name -> time -> value (map: sorted, last write wins per instant)
  std::map<std::string, std::map<double, double>> series;
  for (const laar::json::Value& event : events.array()) {
    if (!event.is_object()) continue;
    const std::string phase =
        event.GetOr("ph", laar::json::Value::String("")).string_value();
    if (phase == "M") continue;
    const laar::json::Value ts = event.GetOr("ts", laar::json::Value::Number(0.0));
    if (!ts.is_number()) continue;
    const double time = ts.number_value() / 1e6;
    if (phase == "C") {
      auto pid = event.GetOr("pid", laar::json::Value::Int(-1)).AsInt();
      const std::string name =
          event.GetOr("name", laar::json::Value::String("?")).string_value();
      const laar::json::Value args =
          event.GetOr("args", laar::json::Value::MakeObject());
      const laar::json::Value value = args.GetOr("value", laar::json::Value::Number(0.0));
      if (!value.is_number()) continue;
      series[laar::StrFormat("%s@pid%lld", name.c_str(),
                             static_cast<long long>(pid.ok() ? *pid : -1))][time] =
          value.number_value();
    }
    if (bucket_seconds > 0.0) {
      const std::string category =
          event.GetOr("cat", laar::json::Value::String("?")).string_value();
      const double bucket =
          static_cast<double>(static_cast<long long>(time / bucket_seconds)) *
          bucket_seconds;
      series["events:" + category][bucket] += 1.0;
    }
  }
  std::string out = "time_seconds,series,value\n";
  for (const auto& [name, samples] : series) {
    for (const auto& [time, value] : samples) {
      out += laar::StrFormat("%.9g,%s,%.9g\n", time, name.c_str(), value);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  laar::Flags flags(argc, argv);
  // Optional positional subcommand (the flags parser ignores non-`--` argv).
  std::string command = "summarize";
  if (argc > 1 && argv[1][0] != '-') command = argv[1];
  if (flags.Has("validate")) command = "validate";
  if (flags.Has("filter")) command = "filter";

  const auto usage = [] {
    std::fprintf(stderr,
                 "usage: laar_trace [summarize|validate|timeseries|explain] --in=run.json\n"
                 "       laar_trace filter --in=run.json --filter=cat1,cat2,...\n"
                 "                  --out=filtered.json\n"
                 "       laar_trace timeseries --in=run.json [--bucket=S]\n"
                 "                  [--out=series.csv]\n"
                 "       laar_trace explain --in=run.json [--out=forensics.json]\n"
                 "       laar_trace profile --in=profile.json [--aggregate-out=agg.json]\n"
                 "                  [--imbalance-threshold=1.5]\n"
                 "       laar_trace diff runA.json runB.json [--out=diff.json]\n"
                 "                  (or --a=runA.json --b=runB.json)\n");
    return 2;
  };

  if (command == "diff") {
    // The two run artifacts are positional (the flags parser ignores them).
    std::vector<std::string> inputs;
    for (int i = 2; i < argc; ++i) {
      if (argv[i][0] != '-') inputs.emplace_back(argv[i]);
    }
    if (flags.Has("a")) inputs.insert(inputs.begin(), flags.GetString("a", ""));
    if (flags.Has("b")) inputs.push_back(flags.GetString("b", ""));
    if (inputs.size() != 2) return usage();
    laar::json::Value runs[2];
    for (size_t i = 0; i < 2; ++i) {
      auto parsed = laar::json::ParseFile(inputs[i]);
      if (!parsed.ok()) {
        std::fprintf(stderr, "cannot load %s: %s\n", inputs[i].c_str(),
                     parsed.status().ToString().c_str());
        return 1;
      }
      runs[i] = *std::move(parsed);
    }
    auto report = laar::obs::DiffRuns(runs[0], runs[1]);
    if (!report.ok()) {
      std::fprintf(stderr, "diff failed: %s\n", report.status().ToString().c_str());
      return 1;
    }
    std::printf("A: %s\nB: %s\n%s", inputs[0].c_str(), inputs[1].c_str(),
                report->ToString().c_str());
    const std::string out_path = flags.GetString("out", "");
    if (!out_path.empty()) {
      const laar::Status status = laar::json::WriteFile(report->ToJson(), out_path);
      if (!status.ok()) {
        std::fprintf(stderr, "write failed: %s\n", status.ToString().c_str());
        return 1;
      }
      std::printf("wrote %s\n", out_path.c_str());
    }
    return 0;
  }

  const std::string in_path = flags.GetString("in", "");
  if (in_path.empty() || (command != "summarize" && command != "validate" &&
                          command != "filter" && command != "timeseries" &&
                          command != "explain" && command != "profile")) {
    return usage();
  }

  auto trace = laar::json::ParseFile(in_path);
  if (!trace.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", in_path.c_str(),
                 trace.status().ToString().c_str());
    return 1;
  }

  if (command == "validate") {
    const laar::Status status = laar::obs::ValidateChromeTrace(*trace);
    if (!status.ok()) {
      std::fprintf(stderr, "INVALID: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("OK: %s is valid Chrome trace JSON\n", in_path.c_str());
    return 0;
  }

  if (command == "filter") {
    const std::string out_path = flags.GetString("out", "");
    if (out_path.empty()) {
      std::fprintf(stderr, "--filter requires --out=FILE\n");
      return 2;
    }
    uint32_t mask = 0;
    for (const std::string& name : laar::StrSplit(flags.GetString("filter", ""), ',')) {
      const uint32_t bit = laar::obs::CategoryBitFromName(name.c_str());
      if (bit == 0) {
        std::fprintf(stderr, "unknown trace category '%s'\n", name.c_str());
        return 2;
      }
      mask |= bit;
    }
    auto filtered = laar::obs::FilterChromeTrace(*trace, mask);
    if (!filtered.ok()) {
      std::fprintf(stderr, "filter failed: %s\n", filtered.status().ToString().c_str());
      return 1;
    }
    const laar::Status status = laar::json::WriteFile(*filtered, out_path);
    if (!status.ok()) {
      std::fprintf(stderr, "write failed: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
  }

  if (command == "explain") {
    auto report = laar::obs::AnalyzeChromeTrace(*trace);
    if (!report.ok()) {
      std::fprintf(stderr, "explain failed: %s\n", report.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", report->ToString().c_str());
    const std::string out_path = flags.GetString("out", "");
    if (!out_path.empty()) {
      const laar::Status status = laar::json::WriteFile(report->ToJson(), out_path);
      if (!status.ok()) {
        std::fprintf(stderr, "write failed: %s\n", status.ToString().c_str());
        return 1;
      }
      std::printf("wrote %s\n", out_path.c_str());
    }
    // A complete trace whose per-event losses disagree with its stamped
    // ledger is a bookkeeping bug somewhere — make it scriptable.
    if (!report->reconciled && report->trace_dropped_events == 0) {
      std::fprintf(stderr,
                   "RECONCILE FAILED: trace accounts for %llu crash-attributed "
                   "losses, ledger says %llu\n",
                   static_cast<unsigned long long>(report->attributed_lost +
                                                   report->unattributed_lost),
                   static_cast<unsigned long long>(report->ledger_crash_attributed));
      return 1;
    }
    return 0;
  }

  if (command == "profile") {
    auto parsed = laar::obs::EngineProfile::FromJson(*trace);
    if (!parsed.ok()) {
      std::fprintf(stderr, "not a profile: %s\n",
                   parsed.status().ToString().c_str());
      return 1;
    }
    const laar::obs::EngineProfile& profile = *parsed;
    std::printf("engine profile: %s\n", in_path.c_str());
    std::printf(
        "  shards %d, windows %llu (%.1f ms wide, %.1f%% empty), engine "
        "events %llu\n",
        profile.shards, static_cast<unsigned long long>(profile.windows),
        profile.window_seconds * 1e3, profile.EmptyWindowFraction() * 100.0,
        static_cast<unsigned long long>(profile.engine_events));
    if (profile.dispatch_rounds > 0) {
      std::printf("  scheduling: %llu dispatch rounds, %d runner workers\n",
                  static_cast<unsigned long long>(profile.dispatch_rounds),
                  profile.runner_workers);
    }
    std::printf(
        "  cross-shard traffic %llu tuples (%llu bytes), barrier sink "
        "tuples %llu, max host inbox backlog %llu\n",
        static_cast<unsigned long long>(profile.CrossShardTuples()),
        static_cast<unsigned long long>(profile.CrossShardTuples() *
                                        laar::obs::kNetMessageWireBytes),
        static_cast<unsigned long long>(profile.barrier_sink_tuples),
        static_cast<unsigned long long>(profile.max_host_inbox_backlog));
    if (profile.loop_wall_seconds > 0.0) {
      std::printf(
          "  measured: loop %.3f ms over %llu phases, critical path %.3f ms, "
          "sync overhead %.1f%%\n",
          profile.loop_wall_seconds * 1e3,
          static_cast<unsigned long long>(profile.phases),
          profile.critical_path_seconds * 1e3,
          profile.SyncOverheadFraction() * 100.0);
    }

    // Per-shard breakdown: deterministic event share next to the measured
    // execute/stall split. Hot shards get flagged against the ideal share.
    const double threshold = flags.GetDouble("imbalance-threshold", 1.5);
    const uint64_t shard_total = profile.ShardEventTotal();
    std::printf("  %-6s %12s %7s %12s %12s %6s\n", "shard", "events",
                "share", "execute_ms", "stall_ms", "util");
    for (size_t shard = 0; shard < profile.shard_events.size(); ++shard) {
      const uint64_t events =
          profile.shard_events[shard] +
          (shard < profile.shard_inline_events.size()
               ? profile.shard_inline_events[shard]
               : 0);
      const double share =
          shard_total > 0
              ? static_cast<double>(events) / static_cast<double>(shard_total)
              : 0.0;
      const bool hot =
          shard_total > 0 &&
          static_cast<double>(events) * static_cast<double>(
                                            profile.shard_events.size()) >
              threshold * static_cast<double>(shard_total);
      std::printf(
          "  %-6zu %12llu %6.1f%% %12.3f %12.3f %5.1f%%%s\n",
          shard, static_cast<unsigned long long>(events), share * 100.0,
          (shard < profile.shard_execute_seconds.size()
               ? profile.shard_execute_seconds[shard]
               : 0.0) * 1e3,
          (shard < profile.shard_stall_seconds.size()
               ? profile.shard_stall_seconds[shard]
               : 0.0) * 1e3,
          profile.UtilizationOf(static_cast<int>(shard)) * 100.0,
          hot ? "  <- HOT" : "");
    }
    const double imbalance = profile.ImbalanceRatio();
    std::printf("  imbalance ratio %.2f%s\n", imbalance,
                imbalance > threshold ? "  IMBALANCED" : "");

    // Hottest measured phases by wall clock (sim-time extents say *where*
    // in the run the engine struggled).
    std::vector<const laar::obs::EngineProfile::PhaseRecord*> hottest;
    for (const auto& record : profile.phase_records) hottest.push_back(&record);
    std::sort(hottest.begin(), hottest.end(),
              [](const auto* a, const auto* b) {
                return a->wall_seconds > b->wall_seconds;
              });
    const size_t top = std::min<size_t>(3, hottest.size());
    for (size_t i = 0; i < top; ++i) {
      std::printf("  hot phase: sim [%.3f, %.3f) s, wall %.3f ms\n",
                  hottest[i]->sim_begin, hottest[i]->sim_end,
                  hottest[i]->wall_seconds * 1e3);
    }
    if (profile.phase_records_truncated) {
      std::printf("  (phase records truncated; totals remain complete)\n");
    }

    // The closure check LAST so the breakdown prints even for a broken
    // profile — the numbers are the evidence you debug with.
    const laar::Status closure = profile.ReconcileEvents();
    if (!closure.ok()) {
      std::fprintf(stderr, "CLOSURE FAILED: %s\n", closure.ToString().c_str());
      return 1;
    }
    std::printf("  closure: control %llu + shard %llu == engine %llu  OK\n",
                static_cast<unsigned long long>(profile.control_events),
                static_cast<unsigned long long>(shard_total),
                static_cast<unsigned long long>(profile.engine_events));

    const std::string aggregate_out = flags.GetString("aggregate-out", "");
    if (!aggregate_out.empty()) {
      const laar::Status status = laar::json::WriteFile(
          profile.DeterministicAggregateJson(), aggregate_out);
      if (!status.ok()) {
        std::fprintf(stderr, "write failed: %s\n", status.ToString().c_str());
        return 1;
      }
      std::printf("wrote %s\n", aggregate_out.c_str());
    }
    return 0;
  }

  if (command == "timeseries") {
    const std::string csv =
        TimeSeriesCsvFromTrace(*trace, flags.GetDouble("bucket", 0.0));
    const std::string out_path = flags.GetString("out", "");
    if (out_path.empty()) {
      std::printf("%s", csv.c_str());
      return 0;
    }
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr || std::fwrite(csv.data(), 1, csv.size(), f) != csv.size() ||
        std::fclose(f) != 0) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      if (f != nullptr) std::fclose(f);
      return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
  }

  std::printf("%s", laar::obs::SummarizeChromeTrace(*trace).c_str());
  return 0;
}
