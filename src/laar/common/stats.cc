#include "laar/common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace laar {

std::string BoxPlot::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "n=%zu mean=%.4f [min=%.4f lo=%.4f p25=%.4f med=%.4f p75=%.4f hi=%.4f "
                "max=%.4f] outliers=%zu",
                count, mean, min, whisker_low, p25, median, p75, whisker_high, max,
                outliers.size());
  return buf;
}

void SampleStats::Add(double value) {
  samples_.push_back(value);
  sorted_valid_ = false;
  sum_ += value;
  sum_sq_ += value * value;
}

void SampleStats::AddAll(const std::vector<double>& values) {
  for (double v : values) Add(v);
}

double SampleStats::mean() const { return samples_.empty() ? 0.0 : sum_ / samples_.size(); }

double SampleStats::variance() const {
  const size_t n = samples_.size();
  if (n < 2) return 0.0;
  const double m = mean();
  // Two-pass form for numerical stability.
  double acc = 0.0;
  for (double v : samples_) acc += (v - m) * (v - m);
  return acc / static_cast<double>(n - 1);
}

double SampleStats::stddev() const { return std::sqrt(variance()); }

double SampleStats::min() const {
  if (samples_.empty()) return 0.0;
  return sorted_valid_ ? sorted_.front() : *std::min_element(samples_.begin(), samples_.end());
}

double SampleStats::max() const {
  if (samples_.empty()) return 0.0;
  return sorted_valid_ ? sorted_.back() : *std::max_element(samples_.begin(), samples_.end());
}

double SampleStats::Percentile(double q) const {
  const size_t n = samples_.size();
  if (n == 0) return 0.0;
  if (n == 1) return samples_.front();
  // `!(q > 0.0)` rather than `q <= 0.0`: a NaN `q` fails both orderings, and
  // letting it reach the interpolation below would make the
  // `static_cast<size_t>` undefined.
  if (!(q > 0.0)) return min();
  if (q >= 100.0) return max();
  const double pos = q / 100.0 * static_cast<double>(n - 1);
  const size_t idx = static_cast<size_t>(pos);
  const double frac = pos - static_cast<double>(idx);
  if (idx + 1 >= n) return max();
  if (sorted_valid_) return sorted_[idx] * (1.0 - frac) + sorted_[idx + 1] * frac;
  // Select the two order statistics instead of sorting: rank idx by
  // partition, and rank idx + 1 as the least of what lies above it. The
  // scratch copy stays marked unsorted.
  sorted_ = samples_;
  const auto lower = sorted_.begin() + static_cast<std::ptrdiff_t>(idx);
  std::nth_element(sorted_.begin(), lower, sorted_.end());
  const double upper = *std::min_element(lower + 1, sorted_.end());
  return *lower * (1.0 - frac) + upper * frac;
}

BoxPlot SampleStats::Summarize() const {
  BoxPlot box;
  box.count = samples_.size();
  if (samples_.empty()) return box;
  EnsureSorted();
  box.min = sorted_.front();
  box.max = sorted_.back();
  box.mean = mean();
  box.p25 = Percentile(25.0);
  box.median = Percentile(50.0);
  box.p75 = Percentile(75.0);
  const double iqr = box.p75 - box.p25;
  const double fence_low = box.p25 - 1.5 * iqr;
  const double fence_high = box.p75 + 1.5 * iqr;
  box.whisker_low = box.max;
  box.whisker_high = box.min;
  for (double v : sorted_) {
    if (v >= fence_low && v < box.whisker_low) box.whisker_low = v;
    if (v <= fence_high && v > box.whisker_high) box.whisker_high = v;
    if (v < fence_low || v > fence_high) box.outliers.push_back(v);
  }
  return box;
}

void SampleStats::EnsureSorted() const {
  if (sorted_valid_) return;
  sorted_ = samples_;
  std::sort(sorted_.begin(), sorted_.end());
  sorted_valid_ = true;
}

Histogram::Histogram(double lo, double hi, size_t bins)
    : lo_(lo), hi_(hi), width_(0.0), counts_(bins == 0 ? 1 : bins, 0) {
  // A non-increasing range would produce a non-positive bin width and
  // negative bin indices in Add; degrade to a single catch-all bin.
  if (!(hi > lo)) {
    hi_ = lo_;
    counts_.assign(1, 0);
    return;
  }
  width_ = (hi - lo) / static_cast<double>(counts_.size());
}

Histogram Histogram::FromCounts(double lo, double hi, const std::vector<size_t>& counts,
                                size_t underflow, size_t overflow) {
  Histogram hist(lo, hi, counts.size());
  // The constructor may have collapsed a degenerate range to one bin; only
  // install the counts when the shapes still agree.
  if (hist.counts_.size() == counts.size()) {
    hist.counts_ = counts;
  }
  hist.underflow_ = underflow;
  hist.overflow_ = overflow;
  hist.total_ = underflow + overflow;
  for (size_t c : hist.counts_) hist.total_ += c;
  return hist;
}

void Histogram::Add(double value) {
  ++total_;
  if (width_ <= 0.0) {  // degenerate range: everything lands in the one bin
    ++counts_[0];
    return;
  }
  if (value < lo_) {
    ++underflow_;
    return;
  }
  if (value >= hi_) {
    ++overflow_;
    return;
  }
  size_t bin = static_cast<size_t>((value - lo_) / width_);
  if (bin >= counts_.size()) bin = counts_.size() - 1;  // guard float edge
  ++counts_[bin];
}

double Histogram::BinLo(size_t bin) const { return lo_ + width_ * static_cast<double>(bin); }

double Histogram::BinHi(size_t bin) const { return lo_ + width_ * static_cast<double>(bin + 1); }

std::string Histogram::ToString(size_t max_width) const {
  size_t peak = 1;
  for (size_t c : counts_) peak = std::max(peak, c);
  std::ostringstream os;
  for (size_t i = 0; i < counts_.size(); ++i) {
    char label[64];
    std::snprintf(label, sizeof(label), "[%7.3f, %7.3f) %6zu ", BinLo(i), BinHi(i), counts_[i]);
    os << label;
    const size_t bar = counts_[i] * max_width / peak;
    for (size_t j = 0; j < bar; ++j) os << '#';
    os << '\n';
  }
  if (underflow_ > 0) os << "underflow: " << underflow_ << '\n';
  if (overflow_ > 0) os << "overflow: " << overflow_ << '\n';
  return os.str();
}

}  // namespace laar
