// laar_bench: the measuring half of the LAAR benchmark (run.py is the
// runner). One process runs one workload in one mode and prints a single
// JSON object on its last stdout line.
//
//   --mode=run        set up the workload and run its job in turn for
//                     --seconds (medians = setup_s and wall_s), and check
//                     every output against the reference file
//   --mode=trace      the per-layer run: spans around every benchmark call
//                     into a layer, alternating untraced and traced repeats
//   --mode=reference  print the reference digests of the input, computed by
//                     an independent path (jobs=1 corpus, fresh serial
//                     searches, one-shard engine)
//   --mode=pass       web_scale_sharded only: one simulation on one engine
//                     (--pass=inline|windowed_s1), for its own peak RSS
//
// Workloads: paper_corpus, search_corpus, web_scale_sharded (README.md).
// Common flags: --workload=W --seed=N --seconds=S --size=full|smoke
//               --reference=FILE --trace-out=FILE
//
// The reference file maps an input key (InputKey) to its output digests, as
// --mode=reference computes them.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/experiment_corpus.h"
#include "bench/search_corpus.h"
#include "laar/appgen/app_generator.h"
#include "laar/common/flags.h"
#include "laar/dsps/sim_metrics.h"
#include "laar/dsps/stream_simulation.h"
#include "laar/exec/thread_pool.h"
#include "laar/ftsearch/ft_search.h"
#include "laar/json/json.h"
#include "laar/metrics/cost.h"
#include "laar/model/rates.h"
#include "laar/obs/engine_profiler.h"
#include "laar/obs/metrics_registry.h"
#include "laar/obs/run_info.h"
#include "laar/runtime/corpus.h"
#include "laar/runtime/experiment.h"
#include "laar/runtime/report.h"
#include "laar/runtime/variants.h"
#include "laar/sim/simulator.h"
#include "laar/strategy/baselines.h"

namespace laar::benchmark {
namespace {

// ---------------------------------------------------------------------------
// Clock, statistics, digests

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB on Linux
}

/// Linear-interpolated percentile of `sorted` (q in [0, 1]).
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Percentile(values, 0.5);
}

/// A per-call timing: the median and the highest percentile that still has
/// at least ten samples beyond it (the median when there are fewer than 20).
struct CallStats {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 50.0;
  size_t n = 0;
};

CallStats Summarize(std::vector<double> values) {
  CallStats stats;
  stats.n = values.size();
  if (values.empty()) return stats;
  std::sort(values.begin(), values.end());
  stats.p50 = Percentile(values, 0.5);
  const double q = std::max(0.5, 1.0 - 10.0 / static_cast<double>(values.size()));
  stats.tail = Percentile(values, q);
  stats.tail_pct = q * 100.0;
  return stats;
}

uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 1469598103934665603ULL;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string Hex(uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016" PRIx64, value);
  return buffer;
}

// ---------------------------------------------------------------------------
// Spans: recorded in memory at each benchmark call into a layer, written as
// Chrome trace-event JSON when the run ends.

struct Span {
  const char* layer;
  std::string name;
  uint64_t id;
  uint64_t parent;  // 0 = root
  uint64_t group;   // shared by the spans of one application/search/simulation
  double start;
  double end;
  uint32_t thread;
};

class SpanLog {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Add(Span span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }
  /// Spans recorded since `mark` (an index returned by `size`).
  std::vector<Span> Since(size_t mark) {
    std::lock_guard<std::mutex> lock(mu_);
    return std::vector<Span>(spans_.begin() + static_cast<ptrdiff_t>(mark), spans_.end());
  }
  size_t size() {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }
  std::vector<Span> All() { return Since(0); }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{0};
  std::mutex mu_;
  std::vector<Span> spans_;
};

SpanLog& Spans() {
  static SpanLog log;
  return log;
}

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t index = next.fetch_add(1);
  return index;
}

/// Times one call into a layer. Always measures (callers read `Seconds()`);
/// records a span only while the log is enabled.
class ScopedSpan {
 public:
  ScopedSpan(const char* layer, std::string name, uint64_t parent, uint64_t group)
      : layer_(layer), name_(std::move(name)), parent_(parent), group_(group),
        id_(Spans().enabled() ? Spans().NextId() : 0), start_(Now()) {}
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }
  /// Ends the span early; returns its duration.
  double Close() {
    if (end_ < 0.0) {
      end_ = Now();
      if (id_ != 0) {
        Spans().Add(Span{layer_, std::move(name_), id_, parent_, group_, start_, end_,
                         ThreadIndex()});
      }
    }
    return end_ - start_;
  }

 private:
  const char* layer_;
  std::string name_;
  uint64_t parent_;
  uint64_t group_;
  uint64_t id_;
  double start_;
  double end_ = -1.0;
};

/// The layers whose self time the traced run reports. `sim` is missing: the
/// benchmark calls it directly only in the churn probe, outside any job.
const char* const kLayers[] = {"appgen", "runtime", "ftsearch", "dsps", "exec"};

/// Self time per layer: each span's duration minus the part of its interval
/// covered by the union of its children.
std::map<std::string, double> SelfTimes(const std::vector<Span>& spans) {
  std::map<uint64_t, std::vector<const Span*>> children;
  for (const Span& span : spans) children[span.parent].push_back(&span);
  std::map<std::string, double> self;
  for (const Span& span : spans) {
    std::vector<std::pair<double, double>> covered;
    for (const Span* child : children[span.id]) {
      const double a = std::max(child->start, span.start);
      const double b = std::min(child->end, span.end);
      if (b > a) covered.emplace_back(a, b);
    }
    std::sort(covered.begin(), covered.end());
    double union_length = 0.0;
    double reach = span.start;
    for (const auto& [a, b] : covered) {
      const double from = std::max(a, reach);
      if (b > from) union_length += b - from;
      reach = std::max(reach, b);
    }
    self[span.layer] += (span.end - span.start) - union_length;
  }
  return self;
}

void WriteChromeTrace(const std::vector<Span>& spans, double origin, const std::string& path,
                      const std::string& stamp) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\"otherData\": %s,\n\"traceEvents\": [\n", stamp.c_str());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %" PRIu64
                 ", \"parent\": %" PRIu64 ", \"group\": %" PRIu64 "}}%s\n",
                 s.name.c_str(), s.layer, s.thread, (s.start - origin) * 1e6,
                 (s.end - s.start) * 1e6, s.id, s.parent, s.group,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  std::fclose(out);
}

// ---------------------------------------------------------------------------
// Command line and output

struct Args {
  std::string mode = "run";
  std::string workload;
  std::string size = "full";
  std::string pass;
  std::string trace_out;
  std::string reference;
  uint64_t seed = 1;
  double seconds = 10.0;
};

/// Set-up time per repeat, as a share of the job's time; setup_s is the
/// median set-up (Repeat).
constexpr double kSetUpShare = 0.1;

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "bad argument %s (expected --key=value)\n", arg.c_str());
      return false;
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "mode") {
      args->mode = value;
    } else if (key == "workload") {
      args->workload = value;
    } else if (key == "size") {
      args->size = value;
    } else if (key == "pass") {
      args->pass = value;
    } else if (key == "trace-out") {
      args->trace_out = value;
    } else if (key == "seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "reference") {
      args->reference = value;
    } else {
      std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
      return false;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      std::fprintf(stderr, "cannot parse --%s=%s\n", key.c_str(), value.c_str());
      return false;
    }
  }
  if (args->seconds <= 0.0 || (args->size != "full" && args->size != "smoke")) {
    std::fprintf(stderr, "invalid --seconds or --size\n");
    return false;
  }
  return true;
}

/// The result object: named metrics with units, plus verification counts.
class Report {
 public:
  void Metric(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }
  void Text(const std::string& key, const std::string& value) { text_.push_back({key, value}); }
  void Count(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void Fail(const std::string& why) {
    ++failed_;
    std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
  }
  uint64_t failed() const { return failed_; }

  void Print() const {
    std::string out = "{\"attempted\": " + std::to_string(attempted_) +
                      ", \"failed\": " + std::to_string(std::min(failed_, attempted_));
    for (const auto& [key, value] : text_) out += ", \"" + key + "\": " + value;
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char buffer[256];
      std::snprintf(buffer, sizeof buffer, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                    std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0,
                    metrics_[i].unit);
      out += buffer;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> text_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

std::string DigestList(const std::vector<std::string>& digests) {
  std::string out = "[";
  for (size_t i = 0; i < digests.size(); ++i) {
    out += (i == 0 ? "" : ", ") + Quote(digests[i]);
  }
  return out + "]";
}

/// At most this many digests per reference entry: larger outputs are
/// checked in contiguous chunks, and a chunk that differs fails every
/// operation in it.
constexpr size_t kMaxChunks = 64;

size_t ChunkBegin(size_t chunk, size_t ops) { return chunk * ops / kMaxChunks; }

std::vector<std::string> Chunked(const std::vector<std::string>& ops) {
  if (ops.size() <= kMaxChunks) return ops;
  std::vector<std::string> chunks;
  for (size_t c = 0; c < kMaxChunks; ++c) {
    std::string joined;
    for (size_t i = ChunkBegin(c, ops.size()); i < ChunkBegin(c + 1, ops.size()); ++i) {
      joined += ops[i];
    }
    chunks.push_back(Hex(Fnv1a(joined)));
  }
  return chunks;
}

/// Operations of one repeat whose output differs from the reference.
uint64_t FailedOps(const std::vector<std::string>& ops, const std::vector<std::string>& reference,
                   const char* what) {
  const std::vector<std::string> chunks = Chunked(ops);
  if (chunks.size() != reference.size()) {
    std::fprintf(stderr, "CHECK FAILED: %s produced %zu output digests, reference has %zu\n",
                 what, chunks.size(), reference.size());
    return std::max<uint64_t>(ops.size(), 1);
  }
  uint64_t failed = 0;
  for (size_t c = 0; c < chunks.size(); ++c) {
    if (chunks[c] == reference[c]) continue;
    std::fprintf(stderr, "CHECK FAILED: %s output %zu digest %s, reference %s\n", what, c,
                 chunks[c].c_str(), reference[c].c_str());
    failed += ops.size() <= kMaxChunks
                  ? 1
                  : ChunkBegin(c + 1, ops.size()) - ChunkBegin(c, ops.size());
  }
  return failed;
}

// ---------------------------------------------------------------------------
// Workload sizes

struct Sizes {
  int corpus_apps;              // paper_corpus: usable applications wanted
  int corpus_skips_factor;      // paper_corpus: give up after apps x this skips
  double corpus_trace_seconds;  // paper_corpus: experiment trace length
  int search_apps;              // search_corpus: instances (x5 IC levels)
  uint64_t search_node_limit;   // search_corpus: FT-Search budget per search
  double web_step_at;           // web_scale_sharded: Low seconds
  double web_total;             // web_scale_sharded: trace seconds
};

Sizes SizesFor(const std::string& size) {
  if (size == "smoke") return {1, 20, 6.0, 7, 20000, 0.05, 0.1};
  return {8, 20, 60.0, 1400, 20000, 0.5, 1.25};
}

constexpr int kMaxThreads = 4;
constexpr double kWebLinkLatency = 0.005;
const double kSearchIcLevels[] = {0.5, 0.6, 0.7, 0.8, 0.9};

int Threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(static_cast<int>(hw), 1, kMaxThreads);
}

/// Calls fn(0 .. n-1) on `threads` threads in all: ThreadPool::ParallelFor
/// also claims work on its calling thread.
void FanOut(int threads, size_t n, const std::function<void(size_t)>& fn) {
  if (threads <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool pool(static_cast<size_t>(threads - 1));
  pool.ParallelFor(n, fn);
}

// ---------------------------------------------------------------------------
// paper_corpus: the §5.3 harness as Figs. 9-12 run it, through RunCorpus.

/// The Figs. 9-12 benches' harness at their flag defaults (24 PEs, 12 hosts,
/// L.5/L.6/L.7 under a 2M-node FT-Search budget, worst case on), with the
/// host crash on and a shorter trace.
runtime::HarnessOptions PaperHarness(const Sizes& sizes, uint64_t seed) {
  runtime::HarnessOptions options = bench::HarnessFromFlags(Flags(0, nullptr));
  options.trace_seconds = sizes.corpus_trace_seconds;
  // The seed picks 2-4 Low/High cycles at the paper's 1/3 High share: the
  // same tuple volume, different switch and crash instants.
  options.trace_cycles = 2 + static_cast<int>(seed % 3);
  options.run_host_crash = true;
  return options;
}

/// The Figs. 9-12 benches' default corpus. Corpora drawn from other seeds
/// differ in cost by up to 2x (one application can cost 20x the median), so
/// the seed varies the trace shape instead (PaperHarness).
constexpr uint64_t kPaperSeedBase = 40000;

runtime::CorpusResult RunPaperCorpus(const runtime::HarnessOptions& harness,
                                     const Sizes& sizes, int jobs) {
  runtime::CorpusOptions corpus;
  corpus.num_apps = sizes.corpus_apps;
  corpus.seed_base = kPaperSeedBase;
  corpus.jobs = jobs;
  corpus.verbose = false;
  corpus.max_skips_factor = sizes.corpus_skips_factor;
  return runtime::RunCorpus(harness, corpus);
}

/// Per-application digests of a corpus, stage timings excluded.
std::vector<std::string> RecordDigests(const std::vector<runtime::AppExperimentRecord>& records) {
  std::vector<std::string> digests;
  for (runtime::AppExperimentRecord record : records) {
    record.stages = runtime::StageTimes{};
    digests.push_back(Hex(Fnv1a(runtime::RecordToJson(record).Dump())));
  }
  return digests;
}

/// Set-up: RunCorpus generates its inputs and starts its thread pool inside
/// the timed job, so what is left before it is the benchmark's own part:
/// building the harness options and starting (and joining) a pool as wide
/// as the corpus's.
runtime::HarnessOptions SetUpPaper(const Sizes& sizes, uint64_t seed, int jobs) {
  ThreadPool pool(static_cast<size_t>(jobs));
  return PaperHarness(sizes, seed);
}

/// Regenerates and re-solves every kept application and checks each L.x
/// strategy against the §4.4 constraint system at its IC requirement.
/// Returns the number of applications with a violation.
uint64_t CheckLaarStrategies(const runtime::HarnessOptions& harness,
                             const std::vector<runtime::AppExperimentRecord>& records) {
  std::vector<int> bad(records.size(), 0);
  ThreadPool pool(static_cast<size_t>(Threads()));
  pool.ParallelFor(records.size(), [&](size_t i) {
    const uint64_t app_seed = records[i].app_seed;
    auto app = appgen::GenerateApplication(harness.generator, app_seed);
    auto rates = app.ok() ? model::ExpectedRates::Compute(app->descriptor.graph,
                                                          app->descriptor.input_space)
                          : Result<model::ExpectedRates>(app.status());
    auto variants = rates.ok() ? runtime::BuildVariants(*app, harness.variants)
                               : Result<std::vector<runtime::NamedVariant>>(rates.status());
    if (!variants.ok()) {
      bad[i] = 1;
      return;
    }
    for (const runtime::NamedVariant& variant : *variants) {
      if (!variant.search.has_value()) continue;
      const Status status = metrics::CheckStrategyConstraints(
          app->descriptor.graph, app->descriptor.input_space, *rates, app->placement,
          variant.strategy, app->cluster, variant.ic_requirement);
      if (!status.ok()) {
        std::fprintf(stderr, "CHECK FAILED: seed %" PRIu64 " %s: %s\n", app_seed,
                     variant.name.c_str(), status.ToString().c_str());
        bad[i] = 1;
      }
    }
  });
  return static_cast<uint64_t>(std::count(bad.begin(), bad.end(), 1));
}

// ---------------------------------------------------------------------------
// search_corpus: the §4.5 study corpus through RunFtSearch, each search
// serial (laar_solve's default) under a fixed node budget, the instances
// spread over Threads() workers, as RunCorpus spreads applications.

using bench::SearchInstance;

/// The §4.5 study corpus as the Fig. 4-6 benches generate it: 2-8 hosts and
/// 2-6 PEs per host (before replication), with rates. The corpus is fixed:
/// corpora drawn from other seeds differ in cost by 20% or more, so the
/// seed shifts the IC levels instead (IcOffset).
std::vector<SearchInstance> SetUpSearch(const Sizes& sizes) {
  ScopedSpan span("appgen", "GenerateSearchCorpus", 0, 0);
  return bench::GenerateSearchCorpus(sizes.search_apps, /*seed_base=*/0);
}

/// Raises every IC level by 0.002 x (seed mod 5): outcomes change only for
/// instances whose optimum sits in that gap, and the work stays the same.
double IcOffset(uint64_t seed) { return 0.002 * static_cast<double>(seed % 5); }

struct SearchRun {
  std::vector<Result<ftsearch::FtSearchResult>> results;  // instance-major, IC-minor
  std::vector<double> seconds;                            // per search, benchmark-timed
};

/// Searches every instance at every IC level, with `search_threads` threads
/// per search. `workers` threads take instances from a shared counter.
SearchRun RunSearches(const std::vector<SearchInstance>& instances, const Sizes& sizes,
                      double ic_offset, int workers, int search_threads, uint64_t parent) {
  constexpr size_t kLevels = std::size(kSearchIcLevels);
  std::vector<std::vector<Result<ftsearch::FtSearchResult>>> results(instances.size());
  SearchRun run;
  run.seconds.resize(instances.size() * kLevels);
  auto search = [&](size_t i) {
    const SearchInstance& instance = instances[i];
    for (size_t k = 0; k < kLevels; ++k) {
      ftsearch::FtSearchOptions options;
      options.ic_requirement = kSearchIcLevels[k] + ic_offset;
      options.time_limit_seconds = 0.0;
      options.node_limit = sizes.search_node_limit;
      options.num_threads = search_threads;
      ScopedSpan span("ftsearch", "RunFtSearch", parent, i * kLevels + k + 1);
      results[i].push_back(ftsearch::RunFtSearch(
          instance.app.descriptor.graph, instance.app.descriptor.input_space, instance.rates,
          instance.app.placement, instance.app.cluster, options));
      run.seconds[i * kLevels + k] = span.Close();
    }
  };
  FanOut(workers, instances.size(), search);
  for (auto& per_instance : results) {
    for (auto& result : per_instance) run.results.push_back(std::move(result));
  }
  return run;
}

std::string SearchDigest(const Result<ftsearch::FtSearchResult>& result) {
  if (!result.ok()) return "error";
  char buffer[96];
  std::snprintf(buffer, sizeof buffer, "%s %.17g",
                ftsearch::SearchOutcomeName(result->outcome), result->best_cost);
  return Hex(Fnv1a(buffer));
}

/// Searches whose strategy violates the constraint system at its IC level.
uint64_t CheckSearchStrategies(const std::vector<SearchInstance>& instances,
                               const SearchRun& run, double ic_offset) {
  uint64_t bad = 0;
  size_t k = 0;
  for (const SearchInstance& instance : instances) {
    for (double level : kSearchIcLevels) {
      const double ic = level + ic_offset;
      const auto& result = run.results[k++];
      if (!result.ok()) {
        ++bad;
        continue;
      }
      if (!result->strategy.has_value()) continue;
      const Status status = metrics::CheckStrategyConstraints(
          instance.app.descriptor.graph, instance.app.descriptor.input_space, instance.rates,
          instance.app.placement, *result->strategy, instance.app.cluster, ic);
      if (!status.ok()) {
        std::fprintf(stderr, "CHECK FAILED: search seed %" PRIu64 " ic %.1f: %s\n",
                     instance.seed, ic, status.ToString().c_str());
        ++bad;
      }
    }
  }
  return bad;
}

// ---------------------------------------------------------------------------
// web_scale_sharded: WebScaleProfile under static replication and a step
// trace, on the windowed engine.

struct WebInputs {
  appgen::GeneratedApplication app;
  strategy::ActivationStrategy strategy;
  dsps::InputTrace trace;
};

/// The application is fixed (the first WebScaleProfile seed that generates,
/// as perf_baseline uses): other seeds' applications differ in cost by up to
/// 4x. The seed picks 1-4 Low/High steps with the same Low and High totals.
WebInputs SetUpWeb(const Sizes& sizes, uint64_t seed) {
  const appgen::GeneratorOptions options = appgen::WebScaleProfile();
  const int steps = 1 + static_cast<int>(seed % 4);
  for (uint64_t app_seed = 1;; ++app_seed) {
    ScopedSpan span("appgen", "GenerateApplication", 0, app_seed);
    auto app = appgen::GenerateApplication(options, app_seed);
    if (!app.ok()) continue;
    WebInputs inputs{std::move(*app), {}, {}};
    inputs.strategy = strategy::MakeStaticReplication(
        inputs.app.descriptor.graph, inputs.app.descriptor.input_space, 2);
    inputs.trace = *dsps::InputTrace::Alternating(
        0, sizes.web_step_at / steps, inputs.app.descriptor.input_space.PeakConfig(),
        (sizes.web_total - sizes.web_step_at) / steps, steps);
    return inputs;
  }
}

struct WebRun {
  Status status;
  std::string digest;
  uint64_t events = 0;
  double seconds = 0.0;
  obs::EngineProfile profile;
};

/// One simulation; `shards == 0` selects the inline (synchronous) engine.
WebRun RunWeb(const WebInputs& inputs, int shards, uint64_t parent) {
  WebRun run;
  obs::EngineProfiler profiler;
  dsps::RuntimeOptions options;
  options.record_latency = false;  // millions of sink samples otherwise
  options.link_latency_seconds = shards == 0 ? 0.0 : kWebLinkLatency;
  options.shards = std::max(shards, 1);
  options.profiler = &profiler;
  static std::atomic<uint64_t> simulations{0};
  ScopedSpan span("dsps", shards == 0 ? "StreamSimulation inline"
                                      : "StreamSimulation s" + std::to_string(shards),
                  parent, ++simulations);
  dsps::StreamSimulation simulation(inputs.app.descriptor, inputs.app.cluster,
                                    inputs.app.placement, inputs.strategy, inputs.trace,
                                    options);
  run.status = simulation.Run();
  run.seconds = span.Close();
  if (!run.status.ok()) return run;
  run.events = simulation.metrics().engine_events;
  run.profile = profiler.profile();
  run.status = run.profile.ReconcileEvents();
  obs::MetricsRegistry registry;
  dsps::PublishTo(&registry, simulation.metrics());
  run.digest = Hex(Fnv1a(registry.ToJson().Dump()));
  return run;
}

// ---------------------------------------------------------------------------
// sim: direct event-engine churn (schedule / cancel / reschedule / run).

double SimChurnEventsPerSecond(double budget_seconds) {
  ScopedSpan span("sim", "Simulator churn", 0, 0);
  uint64_t events = 0;
  const double start = Now();
  do {
    sim::Simulator simulator;
    int remaining = 100000;
    std::function<void()> tick = [&] {
      if (--remaining > 0) simulator.ScheduleAfter(0.001, tick);
    };
    simulator.ScheduleAfter(0.001, tick);
    std::vector<sim::EventId> side;
    for (int i = 0; i < 256; ++i) side.push_back(simulator.ScheduleAfter(1000.0, [] {}));
    for (int i = 0; i < 25000; ++i) {
      const size_t pick = static_cast<size_t>(i) % side.size();
      if (i % 2 == 0) {
        simulator.Reschedule(side[pick], 1000.0 + i);
      } else {
        simulator.Cancel(side[pick]);
        side[pick] = simulator.ScheduleAfter(1000.0, [] {});
      }
    }
    for (sim::EventId id : side) simulator.Cancel(id);
    simulator.Run();
    events += simulator.events_processed() + 25000;
  } while (Now() - start < budget_seconds);
  return static_cast<double>(events) / (Now() - start);
}

// ---------------------------------------------------------------------------
// Modes

/// Runs set-up and job in turn for at least `seconds` (and at least three
/// jobs), with `check` after each job, and returns the last inputs. Before
/// each job the set-up runs again for kSetUpShare of the previous job's
/// time, and at least once, so that the set-up and job timings sample the
/// same stretch of a machine whose speed drifts.
template <typename T>
T Repeat(double seconds, const std::function<T()>& setup,
         const std::function<void(const T&)>& job, const std::function<void()>& check,
         std::vector<double>* setup_times, std::vector<double>* walls) {
  std::optional<T> inputs;
  const double start = Now();
  while (walls->size() < 3 || Now() - start < seconds) {
    const double budget = walls->empty() ? 0.0 : kSetUpShare * walls->back();
    const double setup_start = Now();
    do {
      inputs.reset();
      const double t0 = Now();
      inputs.emplace(setup());
      setup_times->push_back(Now() - t0);
    } while (Now() - setup_start < budget);
    const double t0 = Now();
    job(*inputs);
    walls->push_back(Now() - t0);
    check();
  }
  return std::move(*inputs);
}

/// One repeat's per-operation output digests.
using Outputs = std::vector<std::string>;

Outputs SearchOutputs(const SearchRun& run) {
  Outputs digests;
  for (const auto& result : run.results) digests.push_back(SearchDigest(result));
  return digests;
}

/// The input's output digests by the independent path: the corpus at
/// jobs=1, the searches afresh, the simulation on one shard.
Outputs ReferenceOps(const Args& args, const Sizes& sizes) {
  if (args.workload == "paper_corpus") {
    return RecordDigests(
        RunPaperCorpus(PaperHarness(sizes, args.seed), sizes, /*jobs=*/1).records);
  }
  if (args.workload == "search_corpus") {
    return SearchOutputs(RunSearches(SetUpSearch(sizes), sizes, IcOffset(args.seed), 1, 1, 0));
  }
  return {RunWeb(SetUpWeb(sizes, args.seed), 1, 0).digest};
}

/// Names the input a run's outputs are a function of. Each workload runs
/// fixed applications whose trace or IC levels the seed picks, so a few keys
/// cover every seed.
std::string InputKey(const Args& args) {
  const std::string prefix = args.workload + "/" + args.size + "/";
  if (args.workload == "paper_corpus") {
    return prefix + "cycles" + std::to_string(2 + args.seed % 3);
  }
  if (args.workload == "search_corpus") return prefix + "ic_offset" + std::to_string(args.seed % 5);
  return prefix + "steps" + std::to_string(1 + args.seed % 4);
}

/// The reference digests of the run's input, from the reference file.
Outputs LoadReference(const Args& args, Report* report) {
  const std::string key = InputKey(args);
  report->Text("input", Quote(key));
  Result<json::Value> doc = json::ParseFile(args.reference);
  if (!doc.ok()) {
    report->Fail("cannot read reference " + args.reference + ": " + doc.status().ToString());
    return {};
  }
  Result<const json::Value*> table = doc->Get("digests");
  Result<const json::Value*> entry =
      table.ok() ? (*table)->Get(key) : Result<const json::Value*>(table.status());
  if (!entry.ok() || !(*entry)->is_array()) {
    report->Fail("reference " + args.reference + " has no entry for " + key);
    return {};
  }
  Outputs digests;
  for (const json::Value& digest : (*entry)->array()) {
    digests.push_back(digest.is_string() ? digest.string_value() : "");
  }
  return digests;
}

/// Checks one repeat's outputs against the reference and counts them.
using Check = std::function<void(const Outputs&)>;

Check MakeCheck(const Args& args, Report* report) {
  return [reference = LoadReference(args, report), args, report](const Outputs& ops) {
    report->Count(ops.size(), FailedOps(ops, reference, args.workload.c_str()));
  };
}

void EndToEnd(const Args& args, const Sizes& sizes, Report* report) {
  // Loaded first, so that no repeat's outputs need to be kept.
  const Check check = MakeCheck(args, report);
  std::vector<double> setup_times;
  std::vector<double> walls;
  uint64_t invalid = 0;  // outputs that break a constraint, reference aside
  const int jobs = Threads();
  double peak_rss_mb = 0.0;
  if (args.workload == "paper_corpus") {
    runtime::CorpusResult last;
    const runtime::HarnessOptions harness = Repeat<runtime::HarnessOptions>(
        args.seconds, [&] { return SetUpPaper(sizes, args.seed, jobs); },
        [&](const runtime::HarnessOptions& h) { last = RunPaperCorpus(h, sizes, jobs); },
        [&] { check(RecordDigests(last.records)); }, &setup_times, &walls);
    peak_rss_mb = PeakRssMb();
    invalid = CheckLaarStrategies(harness, last.records);
  } else if (args.workload == "search_corpus") {
    SearchRun last;
    const std::vector<SearchInstance> instances = Repeat<std::vector<SearchInstance>>(
        args.seconds, [&] { return SetUpSearch(sizes); },
        [&](const std::vector<SearchInstance>& in) {
          last = RunSearches(in, sizes, IcOffset(args.seed), Threads(), 1, 0);
        },
        [&] { check(SearchOutputs(last)); }, &setup_times, &walls);
    peak_rss_mb = PeakRssMb();
    invalid = CheckSearchStrategies(instances, last, IcOffset(args.seed));
  } else {
    WebRun last;
    Repeat<WebInputs>(
        args.seconds, [&] { return SetUpWeb(sizes, args.seed); },
        [&](const WebInputs& in) { last = RunWeb(in, jobs, 0); },
        [&] {
          if (!last.status.ok()) report->Fail(last.status.ToString());
          check({last.digest});
        },
        &setup_times, &walls);
    peak_rss_mb = PeakRssMb();
  }
  for (auto& [what, times] : {std::pair{"job", &walls}, std::pair{"set-up", &setup_times}}) {
    const CallStats stats = Summarize(*times);
    std::fprintf(stderr, "  %s: %zu repeats, min %.6fs, p50 %.6fs, tail = p%.3f %.6fs\n", what,
                 stats.n, *std::min_element(times->begin(), times->end()), stats.p50,
                 stats.tail_pct, stats.tail);
  }
  report->Count(0, invalid);
  report->Metric("wall_s", Median(walls), "s");
  report->Metric("setup_s", Median(setup_times), "s");
  report->Metric("peak_rss_mb", peak_rss_mb, "MB");
  report->Text("repeats", std::to_string(walls.size()));
}

void ComputeReference(const Args& args, const Sizes& sizes, Report* report) {
  const Outputs ops = ReferenceOps(args, sizes);
  report->Count(ops.size(), 0);
  report->Text("input", Quote(InputKey(args)));
  report->Text("digests", DigestList(Chunked(ops)));
}

/// One web-scale simulation on one engine in its own process, so its peak
/// RSS is its own. The one-shard pass is checked against the reference.
void SinglePass(const Args& args, const Sizes& sizes, Report* report) {
  const WebInputs inputs = SetUpWeb(sizes, args.seed);
  const int shards = args.pass == "inline" ? 0 : 1;
  const WebRun run = RunWeb(inputs, shards, 0);
  const double peak_rss_mb = PeakRssMb();
  report->Count(1, 0);
  if (!run.status.ok()) report->Fail(run.status.ToString());
  if (shards == 1) {
    report->Count(0, FailedOps({run.digest}, LoadReference(args, report), "windowed_s1"));
  }
  report->Metric("events", static_cast<double>(run.events), "count");
  report->Metric("wall_s", run.seconds, "s");
  report->Metric("peak_rss_mb", peak_rss_mb, "MB");
}

/// Everything the traced run reports, zero where the workload never calls
/// the layer.
struct LayerMetrics {
  std::map<std::string, std::pair<double, const char*>> values;
  void Set(const std::string& name, double value, const char* unit) {
    values[name] = {value, unit};
  }
  void SetCall(const std::string& name, const CallStats& stats) {
    Set(name + ".p50", stats.p50, "s");
    Set(name + ".tail", stats.tail, "s");
    Set(name + ".n", static_cast<double>(stats.n), "count");
    std::fprintf(stderr, "  %s: p50 %.4fs, tail = p%.3f %.4fs, n=%zu\n", name.c_str(),
                 stats.p50, stats.tail_pct, stats.tail, stats.n);
  }
};

LayerMetrics ZeroLayerMetrics() {
  LayerMetrics m;
  for (const char* name : {"runtime.parallel_efficiency", "runtime.seeds_kept_frac",
                           "ftsearch.budget_hit_frac", "exec.shard_sync_overhead_frac",
                           "trace.overhead_frac"}) {
    m.Set(name, 0.0, "frac");
  }
  for (const char* name : {"runtime.app_s.p50", "runtime.app_s.tail", "ftsearch.search_s.p50",
                           "ftsearch.search_s.tail", "dsps.sim_s.p50", "dsps.sim_s.tail"}) {
    m.Set(name, 0.0, "s");
  }
  for (const char* name : {"runtime.app_s.n", "ftsearch.search_s.n", "dsps.sim_s.n"}) {
    m.Set(name, 0.0, "count");
  }
  for (const char* name : {"ftsearch.solve_s", "dsps.simulate_s.best", "dsps.simulate_s.worst",
                           "dsps.simulate_s.crash", "exec.critical_path_s",
                           "appgen.generate_s"}) {
    m.Set(name, 0.0, "s");
  }
  for (const char* layer : kLayers) m.Set(std::string("self_s.") + layer, 0.0, "s");
  for (const char* name : {"ftsearch.nodes", "ftsearch.prunes.cpu", "ftsearch.prunes.compl",
                           "ftsearch.prunes.cost", "ftsearch.prunes.dom",
                           "dsps.engine_events"}) {
    m.Set(name, 0.0, "count");
  }
  for (const char* name : {"ftsearch.nodes_per_s", "ftsearch.nodes_per_s_t4",
                           "dsps.inline.events_per_s", "dsps.windowed_s4.events_per_s",
                           "dsps.windowed_s1.events_per_s", "sim.churn_events_per_s"}) {
    m.Set(name, 0.0, "1/s");
  }
  for (const char* name : {"exec.shard_imbalance", "check.solve_span_over_stagetimes",
                           "check.simulate_span_over_stagetimes", "dsps.windowed_s1_over_inline",
                           "dsps.s4_speedup_vs_inline"}) {
    m.Set(name, 0.0, "ratio");
  }
  // Filled by run.py from the one-engine passes (web_scale_sharded).
  m.Set("dsps.peak_rss_mb.inline", 0.0, "MB");
  m.Set("dsps.peak_rss_mb.windowed_s1", 0.0, "MB");
  return m;
}

/// Per-repeat self time of each reported layer over `reps` traced repeats.
void PublishSelfTimes(const std::vector<Span>& spans, size_t reps, LayerMetrics* m) {
  const std::map<std::string, double> self = SelfTimes(spans);
  for (const char* layer : kLayers) {
    const auto it = self.find(layer);
    const double seconds = it == self.end() ? 0.0 : it->second;
    m->Set(std::string("self_s.") + layer, seconds / static_cast<double>(reps), "s");
  }
}

/// Search statistics summed over one traced repeat.
struct SearchTotals {
  ftsearch::FtSearchStats stats;
  double seconds = 0.0;
  uint64_t searches = 0;
  uint64_t budget_stopped = 0;
  void Add(const ftsearch::FtSearchResult& result) {
    stats.MergeFrom(result.stats);
    seconds += result.total_seconds;
    ++searches;
    if (result.outcome == ftsearch::SearchOutcome::kFeasible ||
        result.outcome == ftsearch::SearchOutcome::kTimeout) {
      ++budget_stopped;
    }
  }
  void Publish(LayerMetrics* m) const {
    m->Set("ftsearch.nodes", static_cast<double>(stats.nodes_explored), "count");
    m->Set("ftsearch.nodes_per_s",
           seconds > 0.0 ? static_cast<double>(stats.nodes_explored) / seconds : 0.0, "1/s");
    m->Set("ftsearch.budget_hit_frac",
           searches > 0 ? static_cast<double>(budget_stopped) / static_cast<double>(searches)
                        : 0.0,
           "frac");
    m->Set("ftsearch.prunes.cpu", static_cast<double>(stats.cpu.count), "count");
    m->Set("ftsearch.prunes.compl", static_cast<double>(stats.compl_.count), "count");
    m->Set("ftsearch.prunes.cost", static_cast<double>(stats.cost.count), "count");
    m->Set("ftsearch.prunes.dom", static_cast<double>(stats.dom.count), "count");
  }
};

/// Alternates untraced and traced repeats of `job` for `seconds` (at least
/// one of each); the traced repeats' spans feed the per-layer metrics.
/// Returns the tracing overhead: median traced / median untraced − 1.
double AlternateTraced(double seconds, const std::function<void(bool traced)>& job) {
  std::vector<double> untraced;
  std::vector<double> traced;
  const double start = Now();
  while (traced.empty() || Now() - start < seconds) {
    for (const bool on : {false, true}) {
      Spans().set_enabled(on);
      const double t0 = Now();
      job(on);
      (on ? traced : untraced).push_back(Now() - t0);
    }
  }
  Spans().set_enabled(false);
  return Median(traced) / Median(untraced) - 1.0;
}

void TracePaper(const Args& args, const Sizes& sizes, const Check& check, Report* report,
                LayerMetrics* m) {
  const runtime::HarnessOptions harness = PaperHarness(sizes, args.seed);
  const int jobs = Threads();

  // The program's own accounting, from one untraced RunCorpus.
  const runtime::CorpusResult corpus = RunPaperCorpus(harness, sizes, jobs);
  check(RecordDigests(corpus.records));
  std::vector<double> app_seconds;
  double stage_sum = 0.0;
  for (const auto& record : corpus.records) {
    app_seconds.push_back(record.stages.TotalSeconds());
    stage_sum += record.stages.TotalSeconds();
  }
  m->Set("runtime.parallel_efficiency", stage_sum / (corpus.wall_seconds * jobs), "frac");
  m->SetCall("runtime.app_s", Summarize(app_seconds));
  const double probed = static_cast<double>(corpus.records.size() + corpus.skipped);
  m->Set("runtime.seeds_kept_frac", static_cast<double>(corpus.records.size()) / probed,
         "frac");
  std::fprintf(stderr, "  runtime: %zu kept of %.0f probed, wall %.3fs, jobs %d\n",
               corpus.records.size(), probed, corpus.wall_seconds, jobs);

  // The same applications decomposed into the harness's public calls, on
  // `jobs` threads in all. RunCorpus's pool adds its calling thread, but its
  // batches leave threads idle (parallel efficiency about 0.3); a fifth busy
  // thread on four cores made every span here about 25% longer than the
  // StageTimes it is compared with.
  struct RepTotals {
    double solve = 0.0, best = 0.0, worst = 0.0, crash = 0.0, generate = 0.0;
    uint64_t events = 0;
    SearchTotals search;
    std::vector<double> search_seconds, sim_seconds;
  };
  std::vector<RepTotals> reps;
  std::mutex mu;
  uint64_t decomposition_mismatches = 0;
  const size_t mark = Spans().size();
  const double overhead = AlternateTraced(args.seconds, [&](bool traced) {
    RepTotals totals;
    ScopedSpan root("exec", "ThreadPool::ParallelFor", 0, 0);
    FanOut(jobs, corpus.records.size(), [&](size_t i) {
      const runtime::AppExperimentRecord& record = corpus.records[i];
      const uint64_t group = record.app_seed;
      ScopedSpan app_span("runtime", "app", root.id(), group);
      ScopedSpan gen_span("appgen", "GenerateApplication", app_span.id(), group);
      auto app = appgen::GenerateApplication(harness.generator, record.app_seed);
      auto fail = [&] {
        std::lock_guard<std::mutex> lock(mu);
        ++decomposition_mismatches;
      };
      if (!app.ok()) return fail();
      auto trace = runtime::MakeExperimentTrace(app->descriptor.input_space,
                                                harness.trace_seconds, harness.high_fraction,
                                                harness.trace_cycles);
      const double generate = gen_span.Close();
      ScopedSpan solve_span("ftsearch", "BuildVariants", app_span.id(), group);
      auto variants = runtime::BuildVariants(*app, harness.variants);
      const double solve = solve_span.Close();
      if (!variants.ok() || !trace.ok()) return fail();
      RepTotals local;
      local.generate = generate;
      local.solve = solve;
      uint64_t mismatches = 0;
      for (const runtime::NamedVariant& variant : *variants) {
        if (variant.search.has_value()) {
          local.search.Add(*variant.search);
          local.search_seconds.push_back(variant.search->total_seconds);
        }
        const runtime::VariantMeasurement* expected = record.Find(variant.name);
        for (const runtime::FailureScenario scenario :
             {runtime::FailureScenario::kNone, runtime::FailureScenario::kWorstCase,
              runtime::FailureScenario::kHostCrash}) {
          runtime::ScenarioOptions options;
          options.scenario = scenario;
          // RunAppExperiment's crash-host draw seed, so the decomposition
          // crashes the same host as the program's own run.
          options.seed = record.app_seed ^ 0x9E3779B97F4A7C15ULL;
          ScopedSpan sim_span("dsps",
                              std::string("RunScenario ") + variant.name + " " +
                                  runtime::FailureScenarioName(scenario),
                              app_span.id(), group);
          auto metrics = runtime::RunScenario(*app, variant.strategy, *trace,
                                              harness.runtime, options);
          const double seconds = sim_span.Close();
          local.sim_seconds.push_back(seconds);
          (scenario == runtime::FailureScenario::kNone        ? local.best
           : scenario == runtime::FailureScenario::kWorstCase ? local.worst
                                                              : local.crash) += seconds;
          if (!metrics.ok()) {
            ++mismatches;
            continue;
          }
          local.events += metrics->engine_events;
          // The decomposition must reproduce the program's records.
          if (expected == nullptr ||
              (scenario == runtime::FailureScenario::kNone &&
               (metrics->TotalProcessed() != expected->processed_best ||
                metrics->dropped_tuples != expected->dropped)) ||
              (scenario == runtime::FailureScenario::kWorstCase &&
               metrics->TotalProcessed() != expected->processed_worst)) {
            ++mismatches;
          }
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      decomposition_mismatches += mismatches;
      totals.generate += local.generate;
      totals.solve += local.solve;
      totals.best += local.best;
      totals.worst += local.worst;
      totals.crash += local.crash;
      totals.events += local.events;
      totals.search.stats.MergeFrom(local.search.stats);
      totals.search.seconds += local.search.seconds;
      totals.search.searches += local.search.searches;
      totals.search.budget_stopped += local.search.budget_stopped;
      totals.search_seconds.insert(totals.search_seconds.end(), local.search_seconds.begin(),
                                   local.search_seconds.end());
      totals.sim_seconds.insert(totals.sim_seconds.end(), local.sim_seconds.begin(),
                                local.sim_seconds.end());
    });
    if (traced) reps.push_back(std::move(totals));
  });
  if (decomposition_mismatches > 0) {
    report->Fail("decomposed corpus differs from RunCorpus records in " +
                 std::to_string(decomposition_mismatches) + " simulations");
  }

  auto median_of = [&](auto field) {
    std::vector<double> values;
    for (const RepTotals& rep : reps) values.push_back(field(rep));
    return Median(values);
  };
  std::vector<double> search_seconds, sim_seconds;
  for (const RepTotals& rep : reps) {
    search_seconds.insert(search_seconds.end(), rep.search_seconds.begin(),
                          rep.search_seconds.end());
    sim_seconds.insert(sim_seconds.end(), rep.sim_seconds.begin(), rep.sim_seconds.end());
  }
  const double solve = median_of([](const RepTotals& r) { return r.solve; });
  const double simulate =
      median_of([](const RepTotals& r) { return r.best + r.worst + r.crash; });
  m->Set("ftsearch.solve_s", solve, "s");
  m->SetCall("ftsearch.search_s", Summarize(search_seconds));
  reps.back().search.Publish(m);
  m->Set("dsps.simulate_s.best", median_of([](const RepTotals& r) { return r.best; }), "s");
  m->Set("dsps.simulate_s.worst", median_of([](const RepTotals& r) { return r.worst; }), "s");
  m->Set("dsps.simulate_s.crash", median_of([](const RepTotals& r) { return r.crash; }), "s");
  m->SetCall("dsps.sim_s", Summarize(sim_seconds));
  m->Set("dsps.engine_events", static_cast<double>(reps.back().events), "count");
  m->Set("dsps.inline.events_per_s", static_cast<double>(reps.back().events) / simulate,
         "1/s");
  m->Set("appgen.generate_s", median_of([](const RepTotals& r) { return r.generate; }), "s");
  m->Set("check.solve_span_over_stagetimes", solve / corpus.stage_totals.solve_seconds,
         "ratio");
  m->Set("check.simulate_span_over_stagetimes",
         simulate / corpus.stage_totals.SimulateSeconds(), "ratio");
  std::fprintf(stderr,
               "  spans vs StageTimes: solve %.3fs vs %.3fs, simulate %.3fs vs %.3fs\n", solve,
               corpus.stage_totals.solve_seconds, simulate,
               corpus.stage_totals.SimulateSeconds());
  m->Set("trace.overhead_frac", overhead, "frac");
  const std::vector<Span> spans = Spans().Since(mark);
  PublishSelfTimes(spans, reps.size(), m);
  Spans().set_enabled(true);
  m->Set("sim.churn_events_per_s", SimChurnEventsPerSecond(0.5), "1/s");
  Spans().set_enabled(false);
}

void TraceSearch(const Args& args, const Sizes& sizes, const Check& check, Report* report,
                 LayerMetrics* m) {
  Spans().set_enabled(true);
  const double t0 = Now();
  const std::vector<SearchInstance> instances = SetUpSearch(sizes);
  std::fprintf(stderr, "  set-up %.3fs\n", Now() - t0);
  Spans().set_enabled(false);
  double generate = 0.0;
  for (const Span& span : Spans().All()) generate += span.end - span.start;
  m->Set("appgen.generate_s", generate, "s");

  std::vector<SearchRun> runs;
  const size_t mark = Spans().size();
  const double overhead = AlternateTraced(args.seconds, [&](bool traced) {
    ScopedSpan root("bench", "search_corpus", 0, 0);
    SearchRun run = RunSearches(instances, sizes, IcOffset(args.seed), Threads(), 1, root.id());
    if (traced) runs.push_back(std::move(run));
  });
  std::vector<double> solve, per_search;
  for (const SearchRun& run : runs) {
    double total = 0.0;
    for (double s : run.seconds) total += s;
    solve.push_back(total);
    per_search.insert(per_search.end(), run.seconds.begin(), run.seconds.end());
  }
  const SearchRun& last = runs.back();
  check(SearchOutputs(last));
  SearchTotals totals;
  for (const auto& result : last.results) {
    if (result.ok()) totals.Add(*result);
  }
  report->Count(0, CheckSearchStrategies(instances, last, IcOffset(args.seed)));
  m->Set("ftsearch.solve_s", Median(solve), "s");
  m->SetCall("ftsearch.search_s", Summarize(per_search));
  totals.Publish(m);
  m->Set("trace.overhead_frac", overhead, "frac");
  PublishSelfTimes(Spans().Since(mark), runs.size(), m);

  // The same searches on four threads: validity-checked only, since the
  // parallel search does not promise the serial outcome.
  const SearchRun parallel =
      RunSearches(instances, sizes, IcOffset(args.seed), 1, kMaxThreads, 0);
  report->Count(parallel.results.size(),
                CheckSearchStrategies(instances, parallel, IcOffset(args.seed)));
  SearchTotals t4;
  for (const auto& result : parallel.results) {
    if (result.ok()) t4.Add(*result);
  }
  m->Set("ftsearch.nodes_per_s_t4",
         t4.seconds > 0.0 ? static_cast<double>(t4.stats.nodes_explored) / t4.seconds : 0.0,
         "1/s");
}

void TraceWeb(const Args& args, const Sizes& sizes, const Check& check, Report* report,
              LayerMetrics* m) {
  Spans().set_enabled(true);
  const WebInputs inputs = SetUpWeb(sizes, args.seed);
  Spans().set_enabled(false);
  double generate = 0.0;
  for (const Span& span : Spans().All()) generate += span.end - span.start;
  m->Set("appgen.generate_s", generate, "s");

  const int shards = Threads();
  std::vector<WebRun> runs;
  const size_t mark = Spans().size();
  const double overhead = AlternateTraced(args.seconds, [&](bool traced) {
    WebRun run = RunWeb(inputs, shards, 0);
    if (!run.status.ok()) report->Fail(run.status.ToString());
    check({run.digest});
    if (traced) runs.push_back(std::move(run));
  });
  std::vector<double> seconds, sync, imbalance, critical;
  for (const WebRun& run : runs) {
    seconds.push_back(run.seconds);
    sync.push_back(run.profile.SyncOverheadFraction());
    imbalance.push_back(run.profile.ImbalanceRatio());
    critical.push_back(run.profile.critical_path_seconds);
  }
  const double wall = Median(seconds);
  m->Set("dsps.windowed_s4.events_per_s", static_cast<double>(runs.back().events) / wall,
         "1/s");
  m->Set("dsps.engine_events", static_cast<double>(runs.back().events), "count");
  m->SetCall("dsps.sim_s", Summarize(seconds));
  m->Set("exec.shard_sync_overhead_frac", Median(sync), "frac");
  m->Set("exec.shard_imbalance", Median(imbalance), "ratio");
  m->Set("exec.critical_path_s", Median(critical), "s");
  m->Set("trace.overhead_frac", overhead, "frac");
  PublishSelfTimes(Spans().Since(mark), runs.size(), m);
  std::fprintf(stderr, "  s%d: %.3fs, %" PRIu64 " events\n", shards, wall, runs.back().events);
  Spans().set_enabled(true);
  m->Set("sim.churn_events_per_s", SimChurnEventsPerSecond(0.5), "1/s");
  Spans().set_enabled(false);
}

std::string Stamp(const Args& args, int argc, char** argv) {
  const obs::RunInfo info = obs::RunInfo::Capture("laar_bench", args.seed, argc, argv);
  const unsigned hw = std::thread::hardware_concurrency();
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  char buffer[512];
  std::snprintf(buffer, sizeof buffer,
                "{\"hardware_concurrency\": %u, \"nproc\": %ld, \"threads\": %d, "
                "\"build_type\": \"%s\", \"compiler\": \"%s\", \"git_describe\": \"%s\"}",
                hw, nproc, Threads(), LAAR_BENCH_BUILD_TYPE, LAAR_BENCH_COMPILER,
                info.version.c_str());
  return buffer;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  if (args.workload != "paper_corpus" && args.workload != "search_corpus" &&
      args.workload != "web_scale_sharded") {
    std::fprintf(stderr, "unknown --workload=%s\n", args.workload.c_str());
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "refusing to report numbers from a build with assertions on\n");
  return 2;
#endif
  if (std::strcmp(LAAR_BENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "refusing to report numbers from a %s build (need Release)\n",
                 LAAR_BENCH_BUILD_TYPE);
    return 2;
  }
  const Sizes sizes = SizesFor(args.size);
  const double origin = Now();
  Report report;
  const std::string stamp = Stamp(args, argc, argv);
  report.Text("host", stamp);
  if (args.mode == "run") {
    EndToEnd(args, sizes, &report);
  } else if (args.mode == "reference") {
    ComputeReference(args, sizes, &report);
  } else if (args.mode == "pass" && args.workload == "web_scale_sharded" &&
             (args.pass == "inline" || args.pass == "windowed_s1")) {
    SinglePass(args, sizes, &report);
  } else if (args.mode == "trace") {
    LayerMetrics m = ZeroLayerMetrics();
    const Check check = MakeCheck(args, &report);
    if (args.workload == "paper_corpus") {
      TracePaper(args, sizes, check, &report, &m);
    } else if (args.workload == "search_corpus") {
      TraceSearch(args, sizes, check, &report, &m);
    } else {
      TraceWeb(args, sizes, check, &report, &m);
    }
    for (const auto& [name, value] : m.values) report.Metric(name, value.first, value.second);
    if (!args.trace_out.empty()) {
      WriteChromeTrace(Spans().All(), origin, args.trace_out, stamp);
    }
  } else {
    std::fprintf(stderr, "unknown --mode=%s (or --pass=%s)\n", args.mode.c_str(),
                 args.pass.c_str());
    return 2;
  }
  report.Print();
  return 0;
}

}  // namespace
}  // namespace laar::benchmark

int main(int argc, char** argv) { return laar::benchmark::Main(argc, argv); }
