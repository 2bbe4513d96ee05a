#include "laar/model/input_space.h"

#include <cmath>

#include "laar/common/strings.h"

namespace laar::model {

namespace {

Status CheckPmf(const std::vector<double>& probabilities, const char* what) {
  double total = 0.0;
  for (double p : probabilities) {
    if (!std::isfinite(p) || p < 0.0) {
      return Status::InvalidArgument(StrFormat("%s: probability %g is not in [0, 1]", what, p));
    }
    total += p;
  }
  if (std::abs(total - 1.0) > 1e-9) {
    return Status::InvalidArgument(StrFormat("%s: probabilities sum to %.12f, expected 1",
                                             what, total));
  }
  return Status::OK();
}

}  // namespace

Status InputSpace::AddSource(const SourceRateSet& rate_set) {
  if (rate_set.rates.empty()) {
    return Status::InvalidArgument("source rate set must have at least one level");
  }
  if (!rate_set.labels.empty() && rate_set.labels.size() != rate_set.rates.size()) {
    return Status::InvalidArgument("labels must parallel rates");
  }
  if (rate_set.probabilities.size() != rate_set.rates.size()) {
    return Status::InvalidArgument("probabilities must parallel rates");
  }
  for (double r : rate_set.rates) {
    if (!std::isfinite(r) || r < 0.0) {
      return Status::InvalidArgument(
          StrFormat("source rates must be finite and non-negative, got %g", r));
    }
  }
  LAAR_RETURN_IF_ERROR(CheckPmf(rate_set.probabilities, "source rate probabilities"));
  for (const SourceRateSet& existing : sources_) {
    if (existing.source == rate_set.source) {
      return Status::AlreadyExists(
          StrFormat("source %d already has a rate set", rate_set.source));
    }
  }
  SourceRateSet stored = rate_set;
  if (stored.labels.empty()) {
    for (size_t i = 0; i < stored.rates.size(); ++i) {
      stored.labels.push_back(StrFormat("r%zu", i));
    }
  }
  sources_.push_back(std::move(stored));
  joint_.clear();  // any explicit joint pmf no longer matches dimensions
  return Status::OK();
}

Status InputSpace::SetJointProbabilities(std::vector<double> joint) {
  if (static_cast<ConfigId>(joint.size()) != num_configs()) {
    return Status::InvalidArgument(
        StrFormat("joint pmf has %zu entries, expected %d", joint.size(), num_configs()));
  }
  LAAR_RETURN_IF_ERROR(CheckPmf(joint, "joint pmf"));
  joint_ = std::move(joint);
  return Status::OK();
}

Status InputSpace::Validate() const {
  if (sources_.empty()) {
    return Status::FailedPrecondition("input space has no sources");
  }
  for (const SourceRateSet& s : sources_) {
    LAAR_RETURN_IF_ERROR(CheckPmf(s.probabilities, "source rate probabilities"));
  }
  if (!joint_.empty()) {
    LAAR_RETURN_IF_ERROR(CheckPmf(joint_, "joint pmf"));
  }
  return Status::OK();
}

ConfigId InputSpace::num_configs() const {
  if (sources_.empty()) return 0;
  int64_t total = 1;
  for (const SourceRateSet& s : sources_) {
    total *= static_cast<int64_t>(s.rates.size());
  }
  return static_cast<ConfigId>(total);
}

Result<size_t> InputSpace::SourceIndexOf(ComponentId source) const {
  for (size_t i = 0; i < sources_.size(); ++i) {
    if (sources_[i].source == source) return i;
  }
  return Status::NotFound(StrFormat("component %d has no rate set", source));
}

int InputSpace::LevelOf(size_t source_index, ConfigId config) const {
  // Mixed-radix decode, first source most significant.
  int64_t remainder = config;
  int64_t radix = 1;
  for (size_t i = source_index + 1; i < sources_.size(); ++i) {
    radix *= static_cast<int64_t>(sources_[i].rates.size());
  }
  remainder /= radix;
  return static_cast<int>(remainder % static_cast<int64_t>(sources_[source_index].rates.size()));
}

double InputSpace::RateOf(size_t source_index, ConfigId config) const {
  return sources_[source_index].rates[LevelOf(source_index, config)];
}

Result<double> InputSpace::RateOfComponent(ComponentId source, ConfigId config) const {
  LAAR_ASSIGN_OR_RETURN(size_t index, SourceIndexOf(source));
  return RateOf(index, config);
}

double InputSpace::Probability(ConfigId config) const {
  if (!joint_.empty()) return joint_[config];
  double p = 1.0;
  for (size_t i = 0; i < sources_.size(); ++i) {
    p *= sources_[i].probabilities[LevelOf(i, config)];
  }
  return p;
}

std::string InputSpace::ConfigLabel(ConfigId config) const {
  if (sources_.size() == 1) return sources_[0].labels[LevelOf(0, config)];
  std::string out = "(";
  for (size_t i = 0; i < sources_.size(); ++i) {
    if (i > 0) out += ", ";
    out += sources_[i].labels[LevelOf(i, config)];
  }
  out += ")";
  return out;
}

ConfigId InputSpace::PeakConfig() const {
  int64_t config = 0;
  for (const SourceRateSet& s : sources_) {
    size_t best = 0;
    for (size_t level = 1; level < s.rates.size(); ++level) {
      if (s.rates[level] > s.rates[best]) best = level;
    }
    config = config * static_cast<int64_t>(s.rates.size()) + static_cast<int64_t>(best);
  }
  return static_cast<ConfigId>(config);
}

}  // namespace laar::model
