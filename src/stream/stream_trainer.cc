#include "stream/stream_trainer.h"

#include <utility>

#include "obs/obs.h"
#include "serve/snapshot.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace imsr::stream {

StreamTrainer::StreamTrainer(models::MsrModel* model,
                             core::InterestStore* store,
                             serve::SnapshotRegistry* registry,
                             const StreamTrainerConfig& config)
    : model_(model),
      store_(store),
      registry_(registry),
      config_(config),
      trainer_(model, store, config.train) {
  IMSR_CHECK(model != nullptr);
  IMSR_CHECK(store != nullptr);
  IMSR_CHECK(registry != nullptr);
  IMSR_CHECK_GE(config.publish_every, 1);
  IMSR_CHECK_GE(config.micro_epochs, 1);
  micro_span_ = config.initial_span + 1;
}

void StreamTrainer::PublishInitial() {
  BuildAndPublish(config_.initial_span);
}

void StreamTrainer::BuildAndPublish(int span) {
  if (config_.build_index) {
    registry_->Publish(
        serve::BuildSnapshot(*model_, *store_, span, serve::IvfBuildConfig{}));
    ++index_builds_;
  } else {
    registry_->Publish(serve::BuildSnapshot(*model_, *store_, span));
  }
}

bool StreamTrainer::Consume(const StreamEvent& event) {
  IMSR_CHECK_GT(event.sequence, last_sequence_)
      << "events must arrive in sequence order";
  last_sequence_ = event.sequence;

  std::vector<data::ItemId>& history = histories_[event.user];
  if (history.empty()) {
    // First contact: nothing to predict from yet; the event still joins
    // the user's history and span items below.
    ++pending_cold_;
  } else {
    pending_samples_.push_back({event.user, history, event.item});
  }
  history.push_back(event.item);
  if (static_cast<int>(history.size()) > config_.train.max_history) {
    history.erase(history.begin(),
                  history.end() - config_.train.max_history);
  }

  // span_items_ is node-based, so the pointer a span user holds stays
  // valid as the map grows.
  std::vector<data::ItemId>& items = span_items_[event.user];
  if (items.empty()) span_users_.push_back({event.user, &items});
  items.push_back(event.item);

  if (pending_events() < config_.publish_every) return false;
  TrainAndPublish();
  return true;
}

bool StreamTrainer::Flush() {
  if (pending_events() == 0) return false;
  TrainAndPublish();
  return true;
}

void StreamTrainer::TrainAndPublish() {
  IMSR_TRACE_SPAN("stream/train_and_publish");
  const util::Stopwatch watch;

  // Interests expansion runs on its own cadence (NID is only meaningful
  // once a few micro-spans of drift have accumulated; running it every
  // publish would re-test mostly-unchanged users).
  const bool expand =
      config_.train.enable_expansion && config_.expand_every > 0 &&
      (publish_stats_.publishes + 1) %
              static_cast<uint64_t>(config_.expand_every) ==
          0;
  trainer_.TrainSpanStep(micro_span_, span_users_, pending_samples_,
                         config_.micro_epochs, expand);

  BuildAndPublish(micro_span_);
  published_through_sequence_ = last_sequence_;

  const double elapsed_ms = watch.ElapsedMillis();
  ++publish_stats_.publishes;
  publish_stats_.total_ms += elapsed_ms;
  if (elapsed_ms > publish_stats_.max_ms) {
    publish_stats_.max_ms = elapsed_ms;
  }
  IMSR_HISTOGRAM_RECORD("stream/publish_latency_ms", elapsed_ms);
  IMSR_COUNTER_ADD("stream/publishes", 1);
  IMSR_GAUGE_SET("stream/trained_through_sequence",
                 static_cast<double>(published_through_sequence_));

  ++micro_span_;
  pending_samples_.clear();
  span_items_.clear();
  span_users_.clear();
  pending_cold_ = 0;
}

}  // namespace imsr::stream
