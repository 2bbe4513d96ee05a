#include "laar/obs/metrics_registry.h"

#include <algorithm>

#include "laar/common/strings.h"

namespace laar::obs {

std::string MetricsRegistry::KeyOf(const std::string& name, const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key = name;
  key += '{';
  for (const auto& [k, v] : sorted) {
    key += k;
    key += '=';
    key += v;
    key += ',';
  }
  key += '}';
  return key;
}

Counter* MetricsRegistry::GetCounter(const std::string& name, const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[KeyOf(name, labels)];
  if (entry.gauge != nullptr || entry.histogram != nullptr || entry.series != nullptr) {
    return nullptr;
  }
  if (entry.counter == nullptr) {
    entry.name = name;
    entry.labels = labels;
    entry.counter = std::make_unique<Counter>();
  }
  return entry.counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name, const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[KeyOf(name, labels)];
  if (entry.counter != nullptr || entry.histogram != nullptr || entry.series != nullptr) {
    return nullptr;
  }
  if (entry.gauge == nullptr) {
    entry.name = name;
    entry.labels = labels;
    entry.gauge = std::make_unique<Gauge>();
  }
  return entry.gauge.get();
}

HistogramMetric* MetricsRegistry::GetHistogram(const std::string& name,
                                               const Labels& labels, double lo, double hi,
                                               size_t bins) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[KeyOf(name, labels)];
  if (entry.counter != nullptr || entry.gauge != nullptr || entry.series != nullptr) {
    return nullptr;
  }
  if (entry.histogram == nullptr) {
    entry.name = name;
    entry.labels = labels;
    entry.histogram = std::make_unique<HistogramMetric>(lo, hi, bins);
  }
  return entry.histogram.get();
}

TimeSeries* MetricsRegistry::GetTimeSeries(const std::string& name, const Labels& labels,
                                           size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[KeyOf(name, labels)];
  if (entry.counter != nullptr || entry.gauge != nullptr || entry.histogram != nullptr) {
    return nullptr;
  }
  if (entry.series == nullptr) {
    entry.name = name;
    entry.labels = labels;
    entry.series = std::make_unique<TimeSeries>(capacity);
  }
  return entry.series.get();
}

const Counter* MetricsRegistry::FindCounter(const std::string& name,
                                            const Labels& labels) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(KeyOf(name, labels));
  return it == entries_.end() ? nullptr : it->second.counter.get();
}

const Gauge* MetricsRegistry::FindGauge(const std::string& name,
                                        const Labels& labels) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(KeyOf(name, labels));
  return it == entries_.end() ? nullptr : it->second.gauge.get();
}

const HistogramMetric* MetricsRegistry::FindHistogram(const std::string& name,
                                                      const Labels& labels) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(KeyOf(name, labels));
  return it == entries_.end() ? nullptr : it->second.histogram.get();
}

const TimeSeries* MetricsRegistry::FindTimeSeries(const std::string& name,
                                                  const Labels& labels) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(KeyOf(name, labels));
  return it == entries_.end() ? nullptr : it->second.series.get();
}

std::vector<MetricsRegistry::SeriesSnapshot> MetricsRegistry::SnapshotTimeSeries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SeriesSnapshot> out;
  for (const auto& [key, entry] : entries_) {  // map order: sorted by key
    if (entry.series == nullptr) continue;
    Labels sorted = entry.labels;
    std::sort(sorted.begin(), sorted.end());
    out.push_back(SeriesSnapshot{entry.name, std::move(sorted), entry.series->Samples()});
  }
  return out;
}

std::vector<MetricsRegistry::SeriesSnapshot> MetricsRegistry::SnapshotGauges() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SeriesSnapshot> out;
  for (const auto& [key, entry] : entries_) {
    if (entry.gauge == nullptr) continue;
    Labels sorted = entry.labels;
    std::sort(sorted.begin(), sorted.end());
    out.push_back(SeriesSnapshot{
        entry.name, std::move(sorted), {TimeSeries::Sample{0.0, entry.gauge->value()}}});
  }
  return out;
}

double MetricsRegistry::SumCounters(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (const auto& [key, entry] : entries_) {
    if (entry.name == name && entry.counter != nullptr) total += entry.counter->value();
  }
  return total;
}

double MetricsRegistry::MaxGauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double best = 0.0;
  for (const auto& [key, entry] : entries_) {
    if (entry.name == name && entry.gauge != nullptr) {
      best = std::max(best, entry.gauge->value());
    }
  }
  return best;
}

size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

json::Value MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  json::Value list = json::Value::MakeArray();
  for (const auto& [key, entry] : entries_) {
    json::Value metric = json::Value::MakeObject();
    metric.Set("name", json::Value::String(entry.name));
    if (!entry.labels.empty()) {
      json::Value labels = json::Value::MakeObject();
      for (const auto& [k, v] : entry.labels) labels.Set(k, json::Value::String(v));
      metric.Set("labels", std::move(labels));
    }
    if (entry.counter != nullptr) {
      metric.Set("type", json::Value::String("counter"));
      metric.Set("value", json::Value::Number(entry.counter->value()));
    } else if (entry.gauge != nullptr) {
      metric.Set("type", json::Value::String("gauge"));
      metric.Set("value", json::Value::Number(entry.gauge->value()));
    } else if (entry.histogram != nullptr) {
      metric.Set("type", json::Value::String("histogram"));
      const Histogram h = entry.histogram->Snapshot();
      metric.Set("lo", json::Value::Number(h.lo()));
      metric.Set("hi", json::Value::Number(h.hi()));
      json::Value counts = json::Value::MakeArray();
      for (size_t i = 0; i < h.bins(); ++i) {
        counts.Append(json::Value::Int(static_cast<int64_t>(h.count(i))));
      }
      metric.Set("counts", std::move(counts));
      metric.Set("underflow", json::Value::Int(static_cast<int64_t>(h.underflow())));
      metric.Set("overflow", json::Value::Int(static_cast<int64_t>(h.overflow())));
      metric.Set("count", json::Value::Int(static_cast<int64_t>(h.total())));
      metric.Set("sum", json::Value::Number(entry.histogram->sum()));
    } else if (entry.series != nullptr) {
      metric.Set("type", json::Value::String("timeseries"));
      json::Value samples = json::Value::MakeArray();
      for (const TimeSeries::Sample& s : entry.series->Samples()) {
        json::Value pair = json::Value::MakeArray();
        pair.Append(json::Value::Number(s.time));
        pair.Append(json::Value::Number(s.value));
        samples.Append(std::move(pair));
      }
      metric.Set("samples", std::move(samples));
      metric.Set("count",
                 json::Value::Int(static_cast<int64_t>(entry.series->total_appended())));
      if (entry.series->overwritten() > 0) {
        metric.Set("overwritten",
                   json::Value::Int(static_cast<int64_t>(entry.series->overwritten())));
      }
    }
    list.Append(std::move(metric));
  }
  json::Value doc = json::Value::MakeObject();
  doc.Set("metrics", std::move(list));
  return doc;
}

namespace {

std::string LabelString(const MetricsRegistry::Labels& labels) {
  std::string out;
  for (const auto& [k, v] : labels) {
    if (!out.empty()) out += ';';
    out += k;
    out += '=';
    out += v;
  }
  return out;
}

}  // namespace

std::string TimeSeriesCsv(const MetricsRegistry& registry) {
  std::string out = "series,labels,time,value\n";
  for (const MetricsRegistry::SeriesSnapshot& snapshot : registry.SnapshotTimeSeries()) {
    const std::string labels = LabelString(snapshot.labels);
    for (const TimeSeries::Sample& s : snapshot.samples) {
      out += StrFormat("%s,%s,%.9g,%.9g\n", snapshot.name.c_str(), labels.c_str(), s.time,
                       s.value);
    }
  }
  return out;
}

json::Value TimeSeriesJson(const MetricsRegistry& registry) {
  json::Value list = json::Value::MakeArray();
  for (const MetricsRegistry::SeriesSnapshot& snapshot : registry.SnapshotTimeSeries()) {
    json::Value series = json::Value::MakeObject();
    series.Set("name", json::Value::String(snapshot.name));
    if (!snapshot.labels.empty()) {
      json::Value labels = json::Value::MakeObject();
      for (const auto& [k, v] : snapshot.labels) labels.Set(k, json::Value::String(v));
      series.Set("labels", std::move(labels));
    }
    json::Value samples = json::Value::MakeArray();
    for (const TimeSeries::Sample& s : snapshot.samples) {
      json::Value pair = json::Value::MakeArray();
      pair.Append(json::Value::Number(s.time));
      pair.Append(json::Value::Number(s.value));
      samples.Append(std::move(pair));
    }
    series.Set("samples", std::move(samples));
    list.Append(std::move(series));
  }
  json::Value doc = json::Value::MakeObject();
  doc.Set("series", std::move(list));
  return doc;
}

}  // namespace laar::obs
