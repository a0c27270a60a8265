#include "common.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>

namespace perfbench {

double Result::Get(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second;
}

void Result::Check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1),
                   values.end());
  return values[rank - 1];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double Median(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  return n % 2 == 1 ? sorted[n / 2]
                    : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

int64_t Tracer::Open(const std::string& name) {
  Span span;
  span.name = name;
  span.start = SecondsBetween(origin_, Clock::now());
  span.parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(std::move(span));
  const int64_t id = static_cast<int64_t>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::Close(int64_t id) {
  Span& span = spans_[static_cast<size_t>(id)];
  span.end = SecondsBetween(origin_, Clock::now());
  stack_.pop_back();
  if (span.parent >= 0) {
    spans_[static_cast<size_t>(span.parent)].child_seconds +=
        span.end - span.start;
  }
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::map<std::string, double> self;
  for (const Span& span : spans_) {
    self[span.name] += (span.end - span.start) - span.child_seconds;
  }
  return self;
}

std::map<std::string, double> Tracer::TotalSeconds() const {
  std::map<std::string, double> total;
  for (const Span& span : spans_) total[span.name] += span.end - span.start;
  return total;
}

void ScopedSpan::Rename(const std::string& name) {
  if (tracer_ != nullptr) tracer_->spans_[static_cast<size_t>(id_)].name = name;
}

}  // namespace perfbench
