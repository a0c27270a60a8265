// The unit of the online pipeline: one interaction stamped with its
// arrival order. `sequence` is assigned by the event source (1-based, in
// the order events leave the source) and is the currency of the
// prequential-ordering contract: a ServingSnapshot that was trained
// through sequence S must only score events with sequence > S.
#ifndef IMSR_STREAM_EVENT_H_
#define IMSR_STREAM_EVENT_H_

#include <cstdint>

#include "data/interaction.h"

namespace imsr::stream {

struct StreamEvent {
  data::UserId user = -1;
  data::ItemId item = -1;
  int64_t timestamp = 0;
  // 1-based arrival index assigned by the source; 0 means "unassigned".
  uint64_t sequence = 0;
};

}  // namespace imsr::stream

#endif  // IMSR_STREAM_EVENT_H_
