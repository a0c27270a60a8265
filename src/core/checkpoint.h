// Full-state checkpointing for the incremental pipeline: one file holds
// the model parameters, the per-user interest store and bookkeeping, so a
// deployment can stop after span t and resume at span t+1 — the paper's
// premise that historical interactions can be discarded (§IV-E) requires
// exactly this state to persist.
//
// On-disk format (imsr-checkpoint-v2):
//   magic string | int64 payload_size | payload | int64 crc32(payload)
// where the payload is a sequence of framed sections
//   tag string | int64 body_size | body
// ("meta" carries span/note plus the model shape, "model" and "store" the
// component state; unknown tags are skipped for forward compatibility).
// Saves are atomic-durable (write to path+".tmp", fsync, rename), and
// loads are all-or-nothing: any truncation, bit-flip (CRC mismatch) or
// shape mismatch returns false with a descriptive error and leaves the
// destination model/store untouched. Any other checkpoint version (the
// unframed v1 layout included) is rejected as unsupported.
#ifndef IMSR_CORE_CHECKPOINT_H_
#define IMSR_CORE_CHECKPOINT_H_

#include <string>

#include "core/interest_store.h"
#include "models/msr_model.h"

namespace imsr::core {

struct CheckpointMetadata {
  int64_t trained_through_span = 0;
  std::string note;
};

// Serialises (model, store, metadata) to `path` via an atomic durable
// replace. Returns false on I/O failure; `error` (optional) receives a
// description.
bool SaveCheckpoint(const std::string& path, const models::MsrModel& model,
                    const InterestStore& store,
                    const CheckpointMetadata& metadata,
                    std::string* error = nullptr);

// Restores a checkpoint into an existing model of the same configuration.
// Returns false on I/O failure, corruption (truncation, checksum
// mismatch) or format/shape mismatch; `error` (optional) receives a
// description. On failure the destination model and store are unchanged.
bool LoadCheckpoint(const std::string& path, models::MsrModel* model,
                    InterestStore* store, CheckpointMetadata* metadata,
                    std::string* error = nullptr);

// Shifts `path` -> `path.1` -> ... -> `path.<keep>`, dropping the oldest,
// so the previous checkpoint generation survives a failed save of the next
// one. No-op when `keep` <= 0 or `path` does not exist. Call before
// SaveCheckpoint when rotation is wanted (CLI: --keep_checkpoints=N).
void RotateCheckpoints(const std::string& path, int keep);

}  // namespace imsr::core

#endif  // IMSR_CORE_CHECKPOINT_H_
