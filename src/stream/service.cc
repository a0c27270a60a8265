#include "stream/service.h"

#include <memory>
#include <thread>

#include "obs/obs.h"
#include "stream/queue.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace imsr::stream {

StreamService::StreamService(StreamTrainer* trainer,
                             PrequentialEvaluator* evaluator,
                             serve::SnapshotRegistry* registry,
                             const StreamServiceConfig& config)
    : trainer_(trainer),
      evaluator_(evaluator),
      registry_(registry),
      config_(config) {
  IMSR_CHECK(trainer != nullptr);
  IMSR_CHECK(evaluator != nullptr);
  IMSR_CHECK(registry != nullptr);
  IMSR_CHECK_GT(config.queue_cap, 0u);
}

void StreamService::Step(const StreamEvent& event) {
  // Prequential order: the snapshot is loaded and the event scored
  // BEFORE the trainer may learn from it. Consume() can publish, but
  // that publish covers sequences <= event.sequence, which the *next*
  // event is scored against — never this one.
  const std::shared_ptr<const serve::ServingSnapshot> snapshot =
      registry_->Current();
  IMSR_CHECK(snapshot != nullptr);
  evaluator_->ScoreEvent(*snapshot, event,
                         trainer_->trained_through_sequence());
  trainer_->Consume(event);
}

StreamResult StreamService::Run(ReplayEventSource* source) {
  IMSR_CHECK(source != nullptr);
  IMSR_TRACE_SPAN("stream/run");
  if (registry_->Current() == nullptr) trainer_->PublishInitial();

  const int64_t scored_before = evaluator_->scored();
  const int64_t skipped_before = evaluator_->skipped();
  const uint64_t publishes_before = trainer_->publish_stats().publishes;
  const util::Stopwatch watch;

  const auto stop_requested = [this] {
    return config_.stop != nullptr &&
           config_.stop->load(std::memory_order_relaxed);
  };
  StreamResult result;
  if (config_.threaded) {
    BoundedEventQueue queue(config_.queue_cap);
    std::thread producer([this, source, &queue, &stop_requested] {
      StreamEvent event;
      uint64_t produced = 0;
      while ((config_.max_events == 0 ||
              produced < config_.max_events) &&
             !stop_requested() && source->Next(&event)) {
        if (!queue.Push(event)) break;  // closed under us
        ++produced;
      }
      // Closing (not abandoning) the queue is what makes shutdown a
      // drain: the consumer's Pop() keeps returning queued events until
      // the queue is empty, then sees the close.
      queue.Close();
    });
    StreamEvent event;
    while (queue.Pop(&event)) {
      Step(event);
      ++result.events;
    }
    producer.join();
    result.queue_max_depth = queue.max_depth();
    result.blocked_pushes = queue.blocked_pushes();
  } else {
    StreamEvent event;
    while ((config_.max_events == 0 ||
            result.events < config_.max_events) &&
           !stop_requested() && source->Next(&event)) {
      Step(event);
      ++result.events;
    }
  }
  trainer_->Flush();

  result.seconds = watch.ElapsedSeconds();
  result.events_per_sec =
      result.seconds > 0.0
          ? static_cast<double>(result.events) / result.seconds
          : 0.0;
  result.scored = evaluator_->scored() - scored_before;
  result.skipped = evaluator_->skipped() - skipped_before;
  result.publishes =
      trainer_->publish_stats().publishes - publishes_before;
  result.final_window = evaluator_->Window();
  const std::shared_ptr<const serve::ServingSnapshot> final_snapshot =
      registry_->Current();
  result.final_version =
      final_snapshot == nullptr ? 0 : final_snapshot->version();
  result.publish_mean_ms = trainer_->publish_stats().mean_ms();
  result.publish_max_ms = trainer_->publish_stats().max_ms;
  result.index_builds = trainer_->index_builds();
  result.ivf = evaluator_->ivf_totals();

  IMSR_GAUGE_SET("stream/events_per_sec", result.events_per_sec);
  IMSR_GAUGE_SET("stream/final_window_recall",
                 result.final_window.hit_ratio);
  return result;
}

}  // namespace imsr::stream
