// Tests for the streaming subsystem: bounded-queue backpressure
// semantics, replay-source ordering and sequence assignment, prequential
// window math, and — the load-bearing invariant — that every event is
// scored against a snapshot trained strictly before it, including while
// publishes race a full queue and concurrent snapshot readers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/imsr_trainer.h"
#include "core/nid.h"
#include "core/interest_store.h"
#include "data/synthetic.h"
#include "models/msr_model.h"
#include "obs/metrics.h"
#include "serve/ivf_index.h"
#include "serve/registry.h"
#include "serve/snapshot.h"
#include "stream/event_source.h"
#include "stream/prequential.h"
#include "stream/queue.h"
#include "stream/service.h"
#include "stream/stream_trainer.h"

namespace imsr::stream {
namespace {

StreamEvent MakeEvent(data::UserId user, data::ItemId item,
                      uint64_t sequence) {
  StreamEvent event;
  event.user = user;
  event.item = item;
  event.timestamp = static_cast<int64_t>(sequence);
  event.sequence = sequence;
  return event;
}

// ---------------------------------------------------------------------------
// BoundedEventQueue

TEST(QueueTest, FifoOrderAndDrainAfterClose) {
  BoundedEventQueue queue(8);
  for (uint64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(queue.Push(MakeEvent(0, static_cast<data::ItemId>(i), i)));
  }
  queue.Close();
  EXPECT_FALSE(queue.Push(MakeEvent(0, 9, 9)));  // closed
  StreamEvent event;
  for (uint64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(queue.Pop(&event));
    EXPECT_EQ(event.sequence, i);  // pending events drain in order
  }
  EXPECT_FALSE(queue.Pop(&event));  // closed and empty
}

TEST(QueueTest, TryPushRejectsWhenFull) {
  BoundedEventQueue queue(2);
  EXPECT_TRUE(queue.TryPush(MakeEvent(0, 0, 1)));
  EXPECT_TRUE(queue.TryPush(MakeEvent(0, 0, 2)));
  EXPECT_FALSE(queue.TryPush(MakeEvent(0, 0, 3)));
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.max_depth(), 2u);
}

TEST(QueueTest, PushBlocksOnFullQueueUntilConsumerPops) {
  BoundedEventQueue queue(2);
  ASSERT_TRUE(queue.Push(MakeEvent(0, 0, 1)));
  ASSERT_TRUE(queue.Push(MakeEvent(0, 0, 2)));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    queue.Push(MakeEvent(0, 0, 3));  // must block until a Pop frees a slot
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());  // still waiting — backpressure
  StreamEvent event;
  ASSERT_TRUE(queue.Pop(&event));
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_GE(queue.blocked_pushes(), 1u);
  queue.Close();
}

TEST(QueueTest, CloseWakesBlockedProducerAndConsumer) {
  BoundedEventQueue queue(1);
  ASSERT_TRUE(queue.Push(MakeEvent(0, 0, 1)));
  std::atomic<bool> push_result{true};
  std::thread producer([&] {
    push_result.store(queue.Push(MakeEvent(0, 0, 2)));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  queue.Close();
  producer.join();
  EXPECT_FALSE(push_result.load());  // woken by Close, event rejected
  StreamEvent event;
  EXPECT_TRUE(queue.Pop(&event));   // pending event still drains
  EXPECT_FALSE(queue.Pop(&event));  // then end-of-stream
}

// ---------------------------------------------------------------------------
// ReplayEventSource

TEST(ReplaySourceTest, EmitsTimestampOrderWithSequentialSequences) {
  std::vector<data::Interaction> log = {
      {0, 3, 30}, {1, 1, 10}, {0, 2, 20}, {1, 4, 40}};
  ReplayEventSource source(log);
  StreamEvent event;
  std::vector<int64_t> timestamps;
  std::vector<uint64_t> sequences;
  while (source.Next(&event)) {
    timestamps.push_back(event.timestamp);
    sequences.push_back(event.sequence);
  }
  EXPECT_EQ(timestamps, (std::vector<int64_t>{10, 20, 30, 40}));
  EXPECT_EQ(sequences, (std::vector<uint64_t>{1, 2, 3, 4}));
  EXPECT_EQ(source.remaining(), 0u);
}

TEST(ReplaySourceTest, PostPretrainEventsMatchDatasetSplit) {
  // Timeline [0, 99], alpha 0.5 -> boundary at 50 (dataset.cc's span_of:
  // ts < z_min + alpha*(z_max - z_min + 1) is pre-training).
  std::vector<data::Interaction> log;
  for (int64_t ts = 0; ts < 100; ts += 7) log.push_back({0, 0, ts});
  EXPECT_EQ(PretrainBoundaryTimestamp(log, 0.5), 50);
  const data::Dataset dataset(1, 1, log, /*num_incremental_spans=*/3, 0.5,
                              /*min_interactions=*/1);
  const std::vector<data::Interaction> replay =
      PostPretrainEvents(log, dataset, 0.5);
  int64_t incremental = 0;
  for (int span = 1; span < dataset.num_spans(); ++span) {
    incremental += dataset.span_interactions(span);
  }
  EXPECT_EQ(static_cast<int64_t>(replay.size()), incremental);
  for (const data::Interaction& record : replay) {
    EXPECT_GE(record.timestamp, 50);
  }
}

TEST(ReplaySourceTest, PostPretrainEventsSkipEarlierEventsAndColdUsers) {
  // User 0 has four records, user 1 two; min_interactions 3 drops user 1
  // from the dataset, so none of its records replay. Timeline [10, 40]
  // -> boundary ceil(10 + 0.5 * 31) = 26.
  const std::vector<data::Interaction> log = {
      {0, 1, 10}, {1, 0, 35}, {0, 2, 20}, {0, 4, 40}, {1, 2, 30},
      {0, 3, 30}};
  const data::Dataset dataset(2, 5, log, /*num_incremental_spans=*/2, 0.5,
                              /*min_interactions=*/3);
  ASSERT_FALSE(dataset.user_kept(1));
  const std::vector<data::Interaction> replay =
      PostPretrainEvents(log, dataset, 0.5);
  ASSERT_EQ(replay.size(), 2u);
  // Log order is kept; the source sorts by timestamp.
  EXPECT_EQ(replay[0].timestamp, 40);
  EXPECT_EQ(replay[1].timestamp, 30);
  ReplayEventSource source(replay);
  StreamEvent event;
  ASSERT_TRUE(source.Next(&event));
  EXPECT_EQ(event.timestamp, 30);
  EXPECT_EQ(event.sequence, 1u);  // sequences start on the replayed set
}

// ---------------------------------------------------------------------------
// PrequentialEvaluator

// Hand-built snapshot: `dim`-dimensional identity-ish embeddings so item
// ranks under kMaxInterest are fully predictable from the interest rows.
std::shared_ptr<serve::ServingSnapshot> MakeSnapshot(
    int64_t num_items, int64_t dim,
    const std::vector<std::pair<data::UserId, nn::Tensor>>& users) {
  nn::Tensor embeddings({num_items, dim});
  for (int64_t i = 0; i < std::min(num_items, dim); ++i) {
    embeddings.at(i, i) = 1.0f;
  }
  core::InterestStore store;
  util::Rng rng(3);
  for (const auto& [user, interests] : users) {
    store.Initialize(user, interests.size(0), dim, 0, rng);
    store.SetInterests(user, interests);
  }
  return std::make_shared<serve::ServingSnapshot>(
      std::move(embeddings), store.ExportPacked(), 0);
}

TEST(PrequentialTest, WindowRecallMatchesHandComputedRanks) {
  // User 0's single interest points at item 0: item 0 ranks 1st, every
  // other item ties at 0 and ranks pessimistically behind.
  nn::Tensor interests({1, 4});
  interests.at(0, 0) = 1.0f;
  const auto snapshot = MakeSnapshot(4, 4, {{0, interests}});

  PrequentialConfig config;
  config.top_n = 1;
  config.window = 8;
  config.rule = eval::ScoreRule::kMaxInterest;
  PrequentialEvaluator evaluator(config);

  EXPECT_TRUE(evaluator.ScoreEvent(*snapshot, MakeEvent(0, 0, 1), 0));
  EXPECT_TRUE(evaluator.ScoreEvent(*snapshot, MakeEvent(0, 2, 2), 0));
  const eval::WindowMetrics window = evaluator.Window();
  EXPECT_EQ(window.count, 2);
  EXPECT_NEAR(window.hit_ratio, 0.5, 1e-12);  // hit on item 0, miss on 2
  EXPECT_EQ(evaluator.scored(), 2);
}

TEST(PrequentialTest, UnknownUserIsSkippedNotScored) {
  nn::Tensor interests({1, 4});
  interests.at(0, 0) = 1.0f;
  const auto snapshot = MakeSnapshot(4, 4, {{0, interests}});
  PrequentialEvaluator evaluator(PrequentialConfig{});
  EXPECT_FALSE(evaluator.ScoreEvent(*snapshot, MakeEvent(7, 1, 1), 0));
  EXPECT_EQ(evaluator.scored(), 0);
  EXPECT_EQ(evaluator.skipped(), 1);
  EXPECT_EQ(evaluator.Window().count, 0);
}

TEST(PrequentialTest, AuditRecordsSnapshotProvenancePerEvent) {
  nn::Tensor interests({1, 4});
  interests.at(0, 0) = 1.0f;
  const auto snapshot = MakeSnapshot(4, 4, {{0, interests}});
  PrequentialConfig config;
  config.record_audit = true;
  PrequentialEvaluator evaluator(config);
  evaluator.ScoreEvent(*snapshot, MakeEvent(0, 1, 5), 2);
  ASSERT_EQ(evaluator.audits().size(), 1u);
  EXPECT_EQ(evaluator.audits()[0].sequence, 5u);
  EXPECT_EQ(evaluator.audits()[0].trained_through_sequence, 2u);
}

// ---------------------------------------------------------------------------
// End-to-end prequential ordering invariant

struct StreamFixture {
  data::SyntheticDataset synthetic;
  std::unique_ptr<models::MsrModel> model;
  core::InterestStore store;
  std::vector<data::Interaction> replay;

  explicit StreamFixture(uint64_t seed) {
    data::SyntheticConfig config;
    config.num_users = 24;
    config.num_items = 120;
    config.num_categories = 6;
    config.num_incremental_spans = 3;
    config.pretrain_interactions_per_user = 16;
    config.span_interactions_per_user = 8;
    config.min_interactions = 6;
    config.seed = seed;
    synthetic = GenerateSynthetic(config);

    models::ModelConfig model_config;
    model_config.embedding_dim = 8;
    model_config.attention_dim = 8;
    model.reset(new models::MsrModel(
        model_config, synthetic.dataset->num_items(), seed));

    core::TrainConfig train;
    train.pretrain_epochs = 1;
    train.epochs = 1;
    train.initial_interests = 2;
    train.seed = seed;
    core::ImsrTrainer pretrainer(model.get(), &store, train);
    pretrainer.Pretrain(*synthetic.dataset);

    const std::vector<data::Interaction> flat =
        FlattenDatasetToLog(*synthetic.dataset);
    const int64_t boundary = PretrainBoundaryTimestamp(flat, 0.5);
    for (const data::Interaction& record : flat) {
      if (record.timestamp >= boundary) replay.push_back(record);
    }
  }

  StreamTrainerConfig TrainerConfig(int64_t publish_every) const {
    StreamTrainerConfig config;
    config.publish_every = publish_every;
    config.expand_every = 2;
    config.micro_epochs = 1;
    config.initial_span = 0;
    config.train.epochs = 1;
    config.train.initial_interests = 2;
    config.train.seed = 17;
    return config;
  }
};

// The core guarantee, proven per event: each scored event's snapshot
// trained through a sequence strictly below the event's own, and
// snapshot versions only move forward as the stream flows.
void CheckAudits(const std::vector<ScoreAudit>& audits) {
  ASSERT_FALSE(audits.empty());
  uint64_t last_version = 0;
  uint64_t last_sequence = 0;
  for (const ScoreAudit& audit : audits) {
    EXPECT_LT(audit.trained_through_sequence, audit.sequence)
        << "event " << audit.sequence << " scored by snapshot v"
        << audit.snapshot_version << " that had already trained on it";
    EXPECT_GE(audit.snapshot_version, last_version);
    EXPECT_GT(audit.sequence, last_sequence);
    last_version = audit.snapshot_version;
    last_sequence = audit.sequence;
  }
}

TEST(StreamServiceTest, SynchronousRunScoresEveryEventBeforeLearning) {
  StreamFixture fixture(29);
  serve::SnapshotRegistry registry;
  StreamTrainer trainer(fixture.model.get(), &fixture.store, &registry,
                        fixture.TrainerConfig(/*publish_every=*/40));
  PrequentialConfig eval_config;
  eval_config.top_n = 10;
  eval_config.window = 100;
  eval_config.record_audit = true;
  PrequentialEvaluator evaluator(eval_config);
  StreamServiceConfig service_config;
  service_config.threaded = false;
  StreamService service(&trainer, &evaluator, &registry, service_config);

  ReplayEventSource source(fixture.replay);
  const StreamResult result = service.Run(&source);

  EXPECT_EQ(result.events, fixture.replay.size());
  EXPECT_EQ(result.scored + result.skipped,
            static_cast<int64_t>(result.events));
  EXPECT_GT(result.scored, 0);
  EXPECT_GT(result.publishes, 0u);
  // publish_every=40 plus one flush for the partial tail.
  const uint64_t expected_publishes =
      (result.events + 39) / 40;
  EXPECT_EQ(result.publishes, expected_publishes);
  EXPECT_EQ(result.final_version, result.publishes + 1);  // + initial
  EXPECT_GT(result.final_window.count, 0);
  CheckAudits(evaluator.audits());
}

// Cooperative shutdown: a raised stop flag halts ingestion but the run
// still flushes, publishes, and returns normally — in both loop shapes.
TEST(StreamServiceTest, StopFlagDrainsAndReturnsNormally) {
  StreamFixture fixture(37);
  std::atomic<bool> stop{true};  // raised before the run even starts
  for (const bool threaded : {false, true}) {
    serve::SnapshotRegistry registry;
    StreamTrainer trainer(fixture.model.get(), &fixture.store, &registry,
                          fixture.TrainerConfig(/*publish_every=*/40));
    PrequentialEvaluator evaluator(PrequentialConfig{});
    StreamServiceConfig service_config;
    service_config.threaded = threaded;
    service_config.queue_cap = 4;
    service_config.stop = &stop;
    StreamService service(&trainer, &evaluator, &registry, service_config);
    ReplayEventSource source(fixture.replay);
    const StreamResult result = service.Run(&source);
    EXPECT_EQ(result.events, 0u) << "threaded=" << threaded;
    EXPECT_NE(registry.Current(), nullptr);  // initial publish happened
  }
}

TEST(StreamServiceTest, ThreadedRunWithTinyQueueKeepsOrderingInvariant) {
  StreamFixture fixture(31);
  serve::SnapshotRegistry registry;
  StreamTrainer trainer(fixture.model.get(), &fixture.store, &registry,
                        fixture.TrainerConfig(/*publish_every=*/25));
  PrequentialConfig eval_config;
  eval_config.top_n = 10;
  eval_config.window = 100;
  eval_config.record_audit = true;
  PrequentialEvaluator evaluator(eval_config);
  StreamServiceConfig service_config;
  service_config.threaded = true;
  // A queue far smaller than the stream forces the producer to block on
  // a full queue while the consumer is mid-publish — the race the
  // backpressure contract must survive.
  service_config.queue_cap = 4;
  StreamService service(&trainer, &evaluator, &registry, service_config);

  ReplayEventSource source(fixture.replay);
  const StreamResult result = service.Run(&source);

  EXPECT_EQ(result.events, fixture.replay.size());
  EXPECT_GT(result.blocked_pushes, 0u);  // backpressure actually engaged
  EXPECT_LE(result.queue_max_depth, service_config.queue_cap);
  CheckAudits(evaluator.audits());
}

// Publishes racing a full queue AND concurrent snapshot readers: while
// the stream trains and republishes, reader threads continuously load
// Current() — every reader must observe monotonically non-decreasing
// versions and internally consistent snapshots (companion to the
// publish-while-reading stress in serve_test).
TEST(StreamServiceTest, ConcurrentReadersSeeMonotoneVersionsDuringRun) {
  StreamFixture fixture(37);
  serve::SnapshotRegistry registry;
  StreamTrainer trainer(fixture.model.get(), &fixture.store, &registry,
                        fixture.TrainerConfig(/*publish_every=*/20));
  PrequentialConfig eval_config;
  eval_config.top_n = 10;
  eval_config.window = 100;
  eval_config.record_audit = true;
  PrequentialEvaluator evaluator(eval_config);
  StreamServiceConfig service_config;
  service_config.threaded = true;
  service_config.queue_cap = 4;
  StreamService service(&trainer, &evaluator, &registry, service_config);

  std::atomic<bool> stop{false};
  std::atomic<bool> monotone{true};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      uint64_t last = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::shared_ptr<const serve::ServingSnapshot> snapshot =
            registry.Current();
        if (snapshot == nullptr) continue;
        const uint64_t version = snapshot->version();
        if (version < last) monotone.store(false);
        last = version;
        // Touch the frozen state: a torn publish would die here.
        if (snapshot->num_users() > 0) {
          (void)snapshot->Interests(snapshot->Users().front());
        }
      }
    });
  }

  ReplayEventSource source(fixture.replay);
  const StreamResult result = service.Run(&source);
  stop.store(true);
  for (std::thread& reader : readers) reader.join();

  EXPECT_TRUE(monotone.load());
  EXPECT_GT(result.publishes, 2u);
  CheckAudits(evaluator.audits());
}

// FT-mode (no persistence/expansion/retention) shares the pipeline; the
// knob only changes training semantics, not the ordering contract.
TEST(StreamServiceTest, FineTuningModeKeepsContract) {
  StreamFixture fixture(41);
  StreamTrainerConfig config = fixture.TrainerConfig(30);
  config.train.eir.kind = core::RetentionKind::kNone;
  config.train.enable_expansion = false;
  config.train.persist_interests = false;
  serve::SnapshotRegistry registry;
  StreamTrainer trainer(fixture.model.get(), &fixture.store, &registry,
                        config);
  PrequentialConfig eval_config;
  eval_config.record_audit = true;
  PrequentialEvaluator evaluator(eval_config);
  StreamServiceConfig service_config;
  service_config.threaded = false;
  StreamService service(&trainer, &evaluator, &registry, service_config);
  ReplayEventSource source(fixture.replay);
  const StreamResult result = service.Run(&source);
  EXPECT_GT(result.scored, 0);
  EXPECT_EQ(trainer.expansion_totals().users_expanded, 0);
  CheckAudits(evaluator.audits());
}

bool SameBytes(const nn::Tensor& a, const nn::Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// A user the store has never held has no M^{t-1}: a micro-span made only
// of first-seen users adds no retention term (Eq. 10), so it trains to
// the same bytes as that micro-span without EIR.
TEST(StreamTrainerTest, FirstSeenUsersGetNoTeacher) {
  const std::vector<data::UserId> newcomers = {1000, 1001, 1002};
  struct Outcome {
    std::vector<nn::Tensor> parameters;
    std::vector<nn::Tensor> interests;
  };
  auto run = [&](core::RetentionKind kind) {
    StreamFixture fixture(53);
    StreamTrainerConfig config = fixture.TrainerConfig(/*publish_every=*/1000);
    config.train.eir.kind = kind;
    serve::SnapshotRegistry registry;
    StreamTrainer trainer(fixture.model.get(), &fixture.store, &registry,
                          config);
    for (data::UserId user : newcomers) {
      EXPECT_FALSE(fixture.store.Has(user));
    }
    uint64_t sequence = 0;
    for (int round = 0; round < 3; ++round) {
      for (data::UserId user : newcomers) {
        trainer.Consume(MakeEvent(
            user, static_cast<data::ItemId>((user * 7 + round * 13) % 120),
            ++sequence));
      }
    }
    EXPECT_TRUE(trainer.Flush());
    Outcome outcome;
    for (const nn::Var& parameter : fixture.model->SharedParameters()) {
      outcome.parameters.push_back(parameter.value());
    }
    for (data::UserId user : newcomers) {
      outcome.interests.push_back(fixture.store.Interests(user));
    }
    return outcome;
  };
  const Outcome with_eir = run(core::RetentionKind::kSigmoidKd);
  const Outcome without_eir = run(core::RetentionKind::kNone);
  ASSERT_EQ(with_eir.parameters.size(), without_eir.parameters.size());
  for (size_t i = 0; i < with_eir.parameters.size(); ++i) {
    EXPECT_TRUE(SameBytes(with_eir.parameters[i], without_eir.parameters[i]))
        << "parameter " << i;
  }
  for (size_t i = 0; i < newcomers.size(); ++i) {
    EXPECT_TRUE(SameBytes(with_eir.interests[i], without_eir.interests[i]))
        << "user " << newcomers[i];
  }
}

// The micro-span refreshes through the batch rule: with one item per
// user (a first stream contact, so no sample and no training), every
// stored interest the item is not assigned to keeps its row bit for bit.
TEST(StreamTrainerTest, RefreshKeepsInterestsWithoutEvidence) {
  StreamFixture fixture(59);
  serve::SnapshotRegistry registry;
  StreamTrainer trainer(fixture.model.get(), &fixture.store, &registry,
                        fixture.TrainerConfig(/*publish_every=*/1000));
  const std::vector<data::UserId> users = fixture.store.Users();
  std::vector<nn::Tensor> before;
  std::vector<data::ItemId> items;
  uint64_t sequence = 0;
  for (data::UserId user : users) {
    before.push_back(fixture.store.Interests(user));
    items.push_back(static_cast<data::ItemId>((user * 11 + 3) % 120));
    trainer.Consume(MakeEvent(user, items.back(), ++sequence));
  }
  EXPECT_TRUE(trainer.Flush());
  int kept_rows = 0;
  for (size_t u = 0; u < users.size(); ++u) {
    const std::vector<int> assigned = core::CountAssignedItems(
        fixture.model->embeddings().LookupNoGrad({items[u]}), before[u]);
    const nn::Tensor& after = fixture.store.Interests(users[u]);
    ASSERT_EQ(after.size(0), before[u].size(0));
    for (int64_t k = 0; k < after.size(0); ++k) {
      if (assigned[static_cast<size_t>(k)] > 0) continue;
      EXPECT_TRUE(SameBytes(after.Row(k), before[u].Row(k)))
          << "user " << users[u] << " interest " << k;
      ++kept_rows;
    }
  }
  EXPECT_GT(kept_rows, 0);
}

#if !defined(IMSR_OBS_DISABLED)
int64_t CounterValue(const obs::MetricsSnapshot& snapshot,
                     const std::string& name) {
  for (const obs::CounterSnapshot& counter : snapshot.counters) {
    if (counter.name == name) return counter.value;
  }
  return 0;
}

int64_t HistogramCount(const obs::MetricsSnapshot& snapshot,
                       const std::string& name) {
  for (const obs::HistogramSnapshot& histogram : snapshot.histograms) {
    if (histogram.name == name) return histogram.count;
  }
  return 0;
}
#endif  // !IMSR_OBS_DISABLED

// IVF retrieval through the threaded service: every published snapshot
// (initial + each micro-span) carries a FRESH index — proven by the
// monotone build stamps a concurrent reader observes and by the
// index-build accounting — while the prequential ordering contract and
// the searches-equals-scored bookkeeping hold.
TEST(StreamServiceTest, IvfRetrievalPublishesFreshIndexEveryPublish) {
  StreamFixture fixture(47);
  StreamTrainerConfig config = fixture.TrainerConfig(/*publish_every=*/25);
  config.build_index = true;
  serve::SnapshotRegistry registry;
  StreamTrainer trainer(fixture.model.get(), &fixture.store, &registry,
                        config);
  PrequentialConfig eval_config;
  eval_config.top_n = 10;
  eval_config.window = 100;
  eval_config.record_audit = true;
  eval_config.retrieval = serve::RetrievalMode::kIVF;
  PrequentialEvaluator evaluator(eval_config);
  StreamServiceConfig service_config;
  service_config.threaded = true;
  service_config.queue_cap = 8;
  StreamService service(&trainer, &evaluator, &registry, service_config);

#if !defined(IMSR_OBS_DISABLED)
  const obs::MetricsSnapshot before = obs::Registry().Snapshot();
#endif

  // A concurrent reader checks every snapshot it can observe: an index
  // is always attached, and build stamps never move backwards as
  // versions advance (a reused index would repeat its stamp).
  std::atomic<bool> stop{false};
  std::atomic<bool> always_indexed{true};
  std::atomic<bool> stamps_monotone{true};
  std::thread reader([&] {
    uint64_t last_version = 0;
    uint64_t last_build = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::shared_ptr<const serve::ServingSnapshot> snapshot =
          registry.Current();
      if (snapshot == nullptr) continue;
      if (snapshot->index() == nullptr) {
        always_indexed.store(false);
        continue;
      }
      const uint64_t version = snapshot->version();
      const uint64_t build = snapshot->index()->build_id();
      if (version > last_version && build <= last_build &&
          last_build != 0) {
        stamps_monotone.store(false);
      }
      if (version >= last_version) {
        last_version = version;
        last_build = build;
      }
    }
  });

  ReplayEventSource source(fixture.replay);
  const StreamResult result = service.Run(&source);
  stop.store(true);
  reader.join();

  EXPECT_TRUE(always_indexed.load());
  EXPECT_TRUE(stamps_monotone.load());
  // Initial publish + every micro-span publish built an index.
  EXPECT_EQ(result.index_builds, result.publishes + 1);
  // Every scored event went through the index; nothing fell back.
  EXPECT_EQ(result.ivf.searches, result.scored);
  EXPECT_GT(result.ivf.probes, 0);
  EXPECT_GT(result.ivf.reranked, 0);
  const std::shared_ptr<const serve::ServingSnapshot> final_snapshot =
      registry.Current();
  ASSERT_NE(final_snapshot, nullptr);
  ASSERT_NE(final_snapshot->index(), nullptr);
  EXPECT_GT(final_snapshot->index()->build_id(), 0u);
  CheckAudits(evaluator.audits());

#if !defined(IMSR_OBS_DISABLED)
  // Per-publish index build latency landed in the obs histogram, once
  // per build.
  const obs::MetricsSnapshot after = obs::Registry().Snapshot();
  EXPECT_EQ(CounterValue(after, "serve/index_builds") -
                CounterValue(before, "serve/index_builds"),
            static_cast<int64_t>(result.index_builds));
  EXPECT_EQ(HistogramCount(after, "serve/index_build_ms") -
                HistogramCount(before, "serve/index_build_ms"),
            static_cast<int64_t>(result.index_builds));
#endif
}

}  // namespace
}  // namespace imsr::stream
