#ifndef LAAR_OBS_METRICS_REGISTRY_H_
#define LAAR_OBS_METRICS_REGISTRY_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "laar/common/stats.h"
#include "laar/json/json.h"
#include "laar/obs/timeseries.h"

namespace laar::obs {

/// A monotonically increasing total.
class Counter {
 public:
  void Increment(double delta = 1.0) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// A last-written-wins instantaneous value.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// A fixed-bin histogram metric (thread-safe wrapper over laar::Histogram,
/// with the sample sum retained so the mean survives serialization).
class HistogramMetric {
 public:
  HistogramMetric(double lo, double hi, size_t bins) : histogram_(lo, hi, bins) {}

  void Observe(double value) {
    std::lock_guard<std::mutex> lock(mu_);
    histogram_.Add(value);
    sum_ += value;
  }

  /// Snapshot of the underlying histogram.
  Histogram Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return histogram_;
  }
  double sum() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sum_;
  }

 private:
  mutable std::mutex mu_;
  Histogram histogram_;
  double sum_ = 0.0;
};

/// A process-local registry of named, labelled metrics — the single place
/// end-of-run measurements are published to, and serialized from, so every
/// CLI/bench report draws on the same numbers instead of ad-hoc printing.
///
/// Lookup creates on first use and returns the same instance afterwards
/// (same name + labels). Returned pointers stay valid for the registry's
/// lifetime. All methods are thread-safe; counters and gauges are also
/// cheap to update concurrently from corpus workers.
class MetricsRegistry {
 public:
  /// Label set of one metric instance; order-insensitive (canonicalized by
  /// sorting on key).
  using Labels = std::vector<std::pair<std::string, std::string>>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Lookup-or-create. Returns null when `name` already exists with a
  /// different metric type (a programming error surfaced gently).
  Counter* GetCounter(const std::string& name, const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const Labels& labels = {});
  HistogramMetric* GetHistogram(const std::string& name, const Labels& labels, double lo,
                                double hi, size_t bins);
  TimeSeries* GetTimeSeries(const std::string& name, const Labels& labels,
                            size_t capacity);

  /// Read-only lookup; null when absent or of a different type.
  const Counter* FindCounter(const std::string& name, const Labels& labels = {}) const;
  const Gauge* FindGauge(const std::string& name, const Labels& labels = {}) const;
  const HistogramMetric* FindHistogram(const std::string& name,
                                       const Labels& labels = {}) const;
  const TimeSeries* FindTimeSeries(const std::string& name,
                                   const Labels& labels = {}) const;

  /// Point-in-time copy of one time series (or gauge, as a single-sample
  /// series at time 0) — the unit the health engine and the exporters
  /// consume without holding registry locks.
  struct SeriesSnapshot {
    std::string name;
    Labels labels;  ///< canonicalized (sorted by key)
    std::vector<TimeSeries::Sample> samples;
  };

  /// Every time-series entry, snapshotted, sorted by (name, labels) —
  /// deterministic for a given registry content.
  std::vector<SeriesSnapshot> SnapshotTimeSeries() const;

  /// Every gauge entry as a single-sample series at time 0, sorted by
  /// (name, labels). Lets threshold rules range over scalar metrics too.
  std::vector<SeriesSnapshot> SnapshotGauges() const;

  /// Cross-label roll-ups: the sum of every counter named `name`, and the
  /// max of every gauge named `name`, over all label sets (0 when none
  /// exist). Used for corpus-level run summaries.
  double SumCounters(const std::string& name) const;
  double MaxGauge(const std::string& name) const;

  /// Serializes every metric, sorted by (name, labels), as
  /// {"metrics": [{"name", "labels", "type", ...}, ...]}. Deterministic for
  /// a given registry content.
  json::Value ToJson() const;

  size_t size() const;

 private:
  struct Entry {
    std::string name;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HistogramMetric> histogram;
    std::unique_ptr<TimeSeries> series;
  };

  static std::string KeyOf(const std::string& name, const Labels& labels);

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

/// Renders every time series in `registry` as CSV with the fixed header
/// `series,labels,time,value` (labels as `k=v;k=v`), rows sorted by
/// (name, labels) and then sample order — ready for gnuplot/matplotlib.
/// Deterministic for a given registry content.
std::string TimeSeriesCsv(const MetricsRegistry& registry);

/// The same export as JSON:
/// {"series": [{"name", "labels", "samples": [[t, v], ...]}, ...]}.
json::Value TimeSeriesJson(const MetricsRegistry& registry);

}  // namespace laar::obs

#endif  // LAAR_OBS_METRICS_REGISTRY_H_
