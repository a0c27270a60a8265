// StreamTrainer — Algorithm 2's incremental span at a finer grain, for
// online ingestion. Events accumulate into a pending micro-span; every
// `publish_every` events the trainer runs the same span step as the
// batch TrainSpan (core::ImsrTrainer::TrainSpanStep: EIR teacher of the
// users already known, state for first-seen users, NID/PIT expansion on
// the `expand_every` cadence, `micro_epochs` epochs over the pending
// samples, an evidence-gated refresh of every touched user) and
// publishes a fresh ServingSnapshot through the SnapshotRegistry.
// Between publishes the serving state is untouched, so the prequential
// evaluator always scores against a state that has provably not seen
// the event being scored.
#ifndef IMSR_STREAM_STREAM_TRAINER_H_
#define IMSR_STREAM_STREAM_TRAINER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/imsr_trainer.h"
#include "serve/registry.h"
#include "stream/event.h"

namespace imsr::stream {

struct StreamTrainerConfig {
  // Events per micro-span: train + publish once this many have been
  // consumed since the last publish.
  int64_t publish_every = 200;
  // Run interests expansion (NID/PIT) every this many publishes; 0
  // disables expansion regardless of train.enable_expansion.
  int expand_every = 5;
  // Supervised epochs per micro-span (the batch trainer's r, scaled down).
  int micro_epochs = 1;
  // Span the pre-stream state was trained through (checkpoint metadata or
  // 0 after an in-process pretrain); snapshots and new interests are
  // tagged from initial_span + 1 upward.
  int initial_span = 0;
  // Inner hyper-parameters. `train.persist_interests`, `train.eir` and
  // `train.enable_expansion` select IMSR vs the fine-tuning baseline
  // exactly as in core/strategies.
  core::TrainConfig train;
  // Build an IvfIndex (default IvfBuildConfig) into every published
  // snapshot (initial and per micro-span). Index build time lands inside
  // the publish latency stats and the serve/index_build_ms histogram.
  bool build_index = false;
};

// Latency accounting for the publish path (kept outside obs so the bench
// works in IMSR_OBS=OFF builds).
struct PublishStats {
  uint64_t publishes = 0;
  double total_ms = 0.0;  // train + expansion + refresh + snapshot build
  double max_ms = 0.0;
  double mean_ms() const {
    return publishes == 0 ? 0.0 : total_ms / static_cast<double>(publishes);
  }
};

class StreamTrainer {
 public:
  // `model`/`store` may already hold pretrained state (checkpoint or an
  // in-process Pretrain); the trainer continues from it. `registry` is
  // the publication point (not owned).
  StreamTrainer(models::MsrModel* model, core::InterestStore* store,
                serve::SnapshotRegistry* registry,
                const StreamTrainerConfig& config);

  StreamTrainer(const StreamTrainer&) = delete;
  StreamTrainer& operator=(const StreamTrainer&) = delete;

  // Publishes the current (pre-stream) state as the serving baseline.
  // Call once before the stream starts so early events score against the
  // pretrained snapshot.
  void PublishInitial();

  // Ingests one event into the pending micro-span. Returns true when the
  // event completed a micro-span and a new snapshot was published.
  bool Consume(const StreamEvent& event);

  // Trains and publishes whatever partial micro-span is pending (end of
  // stream). Returns true if a publish happened.
  bool Flush();

  // Highest event sequence covered by the latest *published* snapshot —
  // events after it have been consumed at most into the pending buffer,
  // never into serving state.
  uint64_t trained_through_sequence() const {
    return published_through_sequence_;
  }

  // Number of events consumed but not yet trained/published.
  int64_t pending_events() const {
    return static_cast<int64_t>(pending_samples_.size()) + pending_cold_;
  }

  const PublishStats& publish_stats() const { return publish_stats_; }
  // Snapshots published with a freshly built IvfIndex attached.
  uint64_t index_builds() const { return index_builds_; }
  const core::ExpansionOutcome& expansion_totals() const {
    return trainer_.expansion_totals();
  }
  core::ImsrTrainer& trainer() { return trainer_; }
  const StreamTrainerConfig& config() const { return config_; }

 private:
  // Builds a snapshot for `span` (with an IvfIndex when configured) and
  // publishes it through the registry.
  void BuildAndPublish(int span);
  // Trains on the pending micro-span and publishes a snapshot.
  void TrainAndPublish();

  models::MsrModel* model_;
  core::InterestStore* store_;
  serve::SnapshotRegistry* registry_;
  StreamTrainerConfig config_;
  core::ImsrTrainer trainer_;

  // Rolling per-user history across the whole stream (capped at
  // train.max_history) — the sample context. Pending micro-span state:
  // the samples to train on and each touched user's in-span items, with
  // the touched users in first-touch order pointing at their items.
  std::unordered_map<data::UserId, std::vector<data::ItemId>> histories_;
  std::vector<data::TrainingSample> pending_samples_;
  std::unordered_map<data::UserId, std::vector<data::ItemId>> span_items_;
  std::vector<core::SpanUser> span_users_;
  int64_t pending_cold_ = 0;  // events with no history yet (first contact)

  int micro_span_ = 0;            // span tag of the next publish
  uint64_t last_sequence_ = 0;    // highest sequence consumed
  uint64_t published_through_sequence_ = 0;
  uint64_t index_builds_ = 0;
  PublishStats publish_stats_;
};

}  // namespace imsr::stream

#endif  // IMSR_STREAM_STREAM_TRAINER_H_
