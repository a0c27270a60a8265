#include "stream/event_source.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace imsr::stream {

ReplayEventSource::ReplayEventSource(
    std::vector<data::Interaction> interactions)
    : interactions_(std::move(interactions)) {
  std::stable_sort(interactions_.begin(), interactions_.end(),
                   [](const data::Interaction& a,
                      const data::Interaction& b) {
                     return a.timestamp < b.timestamp;
                   });
}

bool ReplayEventSource::Next(StreamEvent* event) {
  IMSR_CHECK(event != nullptr);
  if (position_ >= interactions_.size()) return false;
  const data::Interaction& record = interactions_[position_++];
  event->user = record.user;
  event->item = record.item;
  event->timestamp = record.timestamp;
  event->sequence = next_sequence_++;
  return true;
}

int64_t PretrainBoundaryTimestamp(
    const std::vector<data::Interaction>& interactions, double alpha) {
  IMSR_CHECK(!interactions.empty());
  int64_t z_min = interactions.front().timestamp;
  int64_t z_max = z_min;
  for (const data::Interaction& record : interactions) {
    z_min = std::min(z_min, record.timestamp);
    z_max = std::max(z_max, record.timestamp);
  }
  // Mirrors data/dataset.cc's span_of: timestamps strictly below the
  // boundary are pre-training.
  const double z_span = static_cast<double>(z_max - z_min) + 1.0;
  return static_cast<int64_t>(
      std::ceil(static_cast<double>(z_min) + alpha * z_span));
}

std::vector<data::Interaction> PostPretrainEvents(
    std::vector<data::Interaction> log, const data::Dataset& dataset,
    double alpha) {
  const int64_t boundary = PretrainBoundaryTimestamp(log, alpha);
  log.erase(std::remove_if(log.begin(), log.end(),
                           [&](const data::Interaction& record) {
                             return record.timestamp < boundary ||
                                    !dataset.user_kept(record.user);
                           }),
            log.end());
  return log;
}

}  // namespace imsr::stream
