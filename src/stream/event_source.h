// The online pipeline's event source: where the stream's interactions
// come from. A ReplayEventSource turns a recorded log (data/log_io CSV or
// a flattened SyntheticDataset) into an ordered stream; the source is the
// single authority for `StreamEvent::sequence`, so every downstream
// component agrees on arrival order.
#ifndef IMSR_STREAM_EVENT_SOURCE_H_
#define IMSR_STREAM_EVENT_SOURCE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "data/interaction.h"
#include "stream/event.h"

namespace imsr::stream {

// Replays recorded interactions in timestamp order (stable for ties, so
// a user's in-window order survives).
class ReplayEventSource {
 public:
  explicit ReplayEventSource(std::vector<data::Interaction> interactions);

  // Fills `event` (including its sequence number) with the next record;
  // false at end of stream.
  bool Next(StreamEvent* event);

  // Events not yet emitted.
  size_t remaining() const { return interactions_.size() - position_; }
  size_t total() const { return interactions_.size(); }

 private:
  std::vector<data::Interaction> interactions_;  // sorted
  size_t position_ = 0;
  uint64_t next_sequence_ = 1;
};

// The timestamp at which a log's pre-training window ends under the
// Dataset split (z_min + alpha * (z_max - z_min + 1), see data/dataset.cc);
// interactions with timestamp >= the boundary belong to the incremental
// spans.
int64_t PretrainBoundaryTimestamp(
    const std::vector<data::Interaction>& interactions, double alpha);

// What a stream replays against a pretrained state: the records of `log`
// at or after PretrainBoundaryTimestamp(log, alpha) whose user survived
// `dataset`'s min-interactions filter (cold ids never earn a dataset
// entry, matching the batch eval), in log order. `dataset` is the span
// split of the same log at the same alpha.
std::vector<data::Interaction> PostPretrainEvents(
    std::vector<data::Interaction> log, const data::Dataset& dataset,
    double alpha);

}  // namespace imsr::stream

#endif  // IMSR_STREAM_EVENT_SOURCE_H_
