// laar_trace — inspect and transform Chrome trace-event JSON produced by
// `laar_simulate --trace-out` (or the corpus runner's per-experiment
// traces).
//
// The subcommand is the first argument that is not a flag, wherever it
// stands: summarize (the default), validate, filter, timeseries, explain,
// profile or diff. All but diff read --in; `--help` lists the flags.
//
// `summarize` prints the event counts by category, name and process and the
// time span; `validate` checks the Chrome trace schema and exits 1 on a
// violation.
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
// `diff A B` compares two `--metrics-out` artifacts (counters, gauges,
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
  const std::string in_path = flags.GetString("in", "");
  const std::string out_path = flags.GetString("out", "");
  const std::string filter = flags.GetString("filter", "");
  const double bucket_seconds = flags.GetDouble("bucket", 0.0);
  const std::string aggregate_out = flags.GetString("aggregate-out", "");
  const double threshold = flags.GetDouble("imbalance-threshold", 1.5);
  const std::vector<std::string>& args = flags.positional();
  flags.Finish();

  const char* const kCommands[] = {"summarize", "validate", "filter", "timeseries",
                                   "explain", "profile", "diff"};
  const std::string command = args.empty() ? "summarize" : args[0];
  if (std::find(std::begin(kCommands), std::end(kCommands), command) == std::end(kCommands)) {
    std::fprintf(stderr, "unknown subcommand '%s' (want summarize, validate, filter, "
                 "timeseries, explain, profile or diff)\n", command.c_str());
    return 2;
  }
  // diff takes two runs after it, the others nothing; summarize may be omitted.
  const size_t num_args = command == "diff" ? 3 : std::min<size_t>(args.size(), 1);
  if (args.size() != num_args) {
    std::fprintf(stderr, "laar_trace %s takes %zu argument(s) after it, got %zu\n",
                 command.c_str(), num_args - 1, args.size() - 1);
    return 2;
  }

  if (command == "diff") {
    laar::json::Value runs[2];
    for (size_t i = 0; i < 2; ++i) {
      auto parsed = laar::json::ParseFile(args[i + 1]);
      if (!parsed.ok()) {
        std::fprintf(stderr, "cannot load %s: %s\n", args[i + 1].c_str(),
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
    std::printf("A: %s\nB: %s\n%s", args[1].c_str(), args[2].c_str(),
                report->ToString().c_str());
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

  if (in_path.empty()) {
    std::fprintf(stderr, "laar_trace %s: --in is required (see --help)\n", command.c_str());
    return 2;
  }
  if (command == "filter" && out_path.empty()) {
    std::fprintf(stderr, "filter requires --out=FILE\n");
    return 2;
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
    uint32_t mask = 0;
    for (const std::string& name : laar::StrSplit(filter, ',')) {
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
    const std::string csv = TimeSeriesCsvFromTrace(*trace, bucket_seconds);
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
