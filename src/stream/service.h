// StreamService — the online loop: an ingestion thread reads the
// ReplayEventSource into a BoundedEventQueue (backpressure: a full queue blocks
// the producer, never drops events), and the consumer loop runs the
// prequential protocol per event — grab the current ServingSnapshot,
// score the event against it, only then hand the event to the
// StreamTrainer. Because scoring strictly precedes learning inside one
// consumer iteration, and publishes happen inside Consume() on that same
// thread, every event is provably evaluated by a state that has not seen
// it.
#ifndef IMSR_STREAM_SERVICE_H_
#define IMSR_STREAM_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "eval/metrics.h"
#include "serve/registry.h"
#include "stream/event_source.h"
#include "stream/prequential.h"
#include "stream/stream_trainer.h"

namespace imsr::stream {

struct StreamServiceConfig {
  size_t queue_cap = 1024;
  // Stop after this many events (0 = run the source dry).
  uint64_t max_events = 0;
  // false runs source -> score -> learn synchronously on the caller's
  // thread (deterministic; tests); true reads the source on a producer
  // thread through the bounded queue (the deployment shape).
  bool threaded = true;
  // Optional cooperative-shutdown flag (util::ShutdownFlag()): when it
  // flips true the producer stops ingesting, already-queued events are
  // drained through the prequential loop, the trainer flushes, and Run
  // returns normally — so a SIGINT'd stream run still writes its curve,
  // summary and final metrics, and exits 0.
  const std::atomic<bool>* stop = nullptr;
};

struct StreamResult {
  uint64_t events = 0;          // events consumed by the trainer
  int64_t scored = 0;
  int64_t skipped = 0;          // cold-start events (user not served yet)
  uint64_t publishes = 0;       // micro-span publishes (incl. final flush)
  double seconds = 0.0;
  double events_per_sec = 0.0;
  eval::WindowMetrics final_window;
  uint64_t final_version = 0;   // registry version after the run
  // Backpressure + freshness accounting.
  size_t queue_max_depth = 0;
  uint64_t blocked_pushes = 0;
  double publish_mean_ms = 0.0;
  double publish_max_ms = 0.0;
  // IVF accounting (zeros when the run served exact).
  uint64_t index_builds = 0;       // snapshots published with an index
  serve::IvfSearchTotals ivf;      // prequential searches this run
};

class StreamService {
 public:
  // All pointers are borrowed; the evaluator accumulates across Run()
  // calls (its curve spans the whole stream).
  StreamService(StreamTrainer* trainer, PrequentialEvaluator* evaluator,
                serve::SnapshotRegistry* registry,
                const StreamServiceConfig& config);

  StreamService(const StreamService&) = delete;
  StreamService& operator=(const StreamService&) = delete;

  // Drains `source` through the prequential loop. Publishes the initial
  // snapshot first if the registry is empty, and flushes the trainer's
  // partial micro-span at end of stream.
  StreamResult Run(ReplayEventSource* source);

 private:
  // One prequential iteration: score, then learn.
  void Step(const StreamEvent& event);

  StreamTrainer* trainer_;
  PrequentialEvaluator* evaluator_;
  serve::SnapshotRegistry* registry_;
  StreamServiceConfig config_;
};

}  // namespace imsr::stream

#endif  // IMSR_STREAM_SERVICE_H_
