// Tests for the serving subsystem: ServingSnapshot packing/lookup,
// snapshot-vs-live-model bitwise evaluation equivalence (every ScoreRule
// x ItemFilter combination, across thread counts), the SnapshotRegistry's
// atomic publish (including publish-while-reading stress), the batch
// Recommend API, the pruned exact top-N against its brute-force oracle,
// the IVF-without-index fallbacks, the seam oracle (evaluators, server
// and IVF score and rank alike on near-tie corpora), and the trainer's
// publish points.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/imsr_trainer.h"
#include "core/interest_store.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "models/msr_model.h"
#include "obs/obs.h"
#include "serve/recommend.h"
#include "serve/registry.h"
#include "serve/snapshot.h"
#include "stream/prequential.h"

namespace imsr::serve {
namespace {

// 2 users, 4 items; pretrain [0,50), span1 [50,75), span2 [75,100).
data::Dataset MakeEvalDataset() {
  std::vector<data::Interaction> log = {
      {0, 0, 10}, {0, 1, 20}, {0, 2, 30},  // user 0 pretrain
      {0, 0, 55}, {0, 1, 60},              // user 0 span 1
      {0, 2, 80}, {0, 0, 95},              // user 0 span 2, test item 0
      {1, 3, 15}, {1, 2, 25}, {1, 3, 35},  // user 1 pretrain
      {1, 3, 85}, {1, 3, 90},              // user 1 span 2, test item 3
  };
  return data::Dataset(2, 4, log, 2, 0.5, 1);
}

// A store whose users have different interest counts (user 0: K=2,
// user 2: K=3, user 5: K=1) so the packed layout is non-trivial.
core::InterestStore MakeStore(int64_t dim, uint64_t seed) {
  core::InterestStore store;
  util::Rng rng(seed);
  store.Initialize(0, 2, dim, 0, rng);
  store.Initialize(2, 3, dim, 0, rng);
  store.Initialize(5, 1, dim, 0, rng);
  return store;
}

TEST(PackedInterestsTest, LayoutMatchesStore) {
  core::InterestStore store = MakeStore(/*dim=*/4, /*seed=*/11);
  const core::PackedInterests packed = store.ExportPacked();
  ASSERT_EQ(packed.users.size(), 3u);
  EXPECT_EQ(packed.users, (std::vector<data::UserId>{0, 2, 5}));
  EXPECT_EQ(packed.counts, (std::vector<int32_t>{2, 3, 1}));
  EXPECT_EQ(packed.row_begin, (std::vector<int64_t>{0, 2, 5}));
  EXPECT_EQ(packed.dim, 4);
  ASSERT_EQ(packed.data.size(), 6u * 4u);
  // Every user's rows are a verbatim copy of the store tensor.
  for (size_t u = 0; u < packed.users.size(); ++u) {
    const nn::Tensor& interests = store.Interests(packed.users[u]);
    const float* rows =
        packed.data.data() + packed.row_begin[u] * packed.dim;
    for (int64_t i = 0; i < interests.numel(); ++i) {
      EXPECT_EQ(rows[i], interests.data()[i]);
    }
  }
}

TEST(ServingSnapshotTest, LookupsMatchStore) {
  core::InterestStore store = MakeStore(/*dim=*/4, /*seed=*/12);
  util::Rng rng(3);
  ServingSnapshot snapshot(nn::Tensor::Randn({8, 4}, rng),
                           store.ExportPacked(),
                           /*trained_through_span=*/3);
  EXPECT_EQ(snapshot.num_items(), 8);
  EXPECT_EQ(snapshot.dim(), 4);
  EXPECT_EQ(snapshot.num_users(), 3);
  EXPECT_EQ(snapshot.trained_through_span(), 3);
  EXPECT_EQ(snapshot.version(), 0u);  // unpublished
  EXPECT_GT(snapshot.bytes(), 0);

  EXPECT_TRUE(snapshot.HasUser(0));
  EXPECT_FALSE(snapshot.HasUser(1));
  EXPECT_TRUE(snapshot.HasUser(2));
  EXPECT_FALSE(snapshot.HasUser(4));
  EXPECT_TRUE(snapshot.HasUser(5));
  EXPECT_FALSE(snapshot.HasUser(6));    // past the dense index
  EXPECT_FALSE(snapshot.HasUser(-1));
  EXPECT_EQ(snapshot.NumInterests(2), 3);
  EXPECT_EQ(snapshot.NumInterests(1), 0);

  for (data::UserId user : snapshot.Users()) {
    const nn::ConstMatrixView view = snapshot.Interests(user);
    const nn::Tensor& expected = store.Interests(user);
    ASSERT_EQ(view.rows, expected.size(0));
    ASSERT_EQ(view.cols, expected.size(1));
    for (int64_t i = 0; i < expected.numel(); ++i) {
      EXPECT_EQ(view.data[i], expected.data()[i]);
    }
  }
}

// The acceptance bar of the refactor: for every ScoreRule x ItemFilter
// combination and several thread counts, evaluating over a published
// snapshot reproduces the live-model metrics *bitwise* (EXPECT_EQ on the
// doubles, no tolerance).
TEST(ServingSnapshotTest, EvaluationBitwiseMatchesLiveModel) {
  const data::Dataset dataset = MakeEvalDataset();
  models::ModelConfig model_config;
  model_config.embedding_dim = 8;
  models::MsrModel model(model_config, dataset.num_items(), /*seed=*/21);
  core::InterestStore store;
  util::Rng rng(9);
  store.Initialize(0, 2, 8, 0, rng);
  store.Initialize(1, 3, 8, 0, rng);

  SnapshotRegistry registry;
  registry.Publish(BuildSnapshot(model, store, /*span=*/1));
  const std::shared_ptr<const ServingSnapshot> snapshot =
      registry.Current();
  ASSERT_NE(snapshot, nullptr);

  const nn::Tensor& live_embeddings =
      model.embeddings().parameter().value();
  for (eval::ScoreRule rule :
       {eval::ScoreRule::kAttentive, eval::ScoreRule::kMaxInterest}) {
    for (eval::ItemFilter filter :
         {eval::ItemFilter::kAll, eval::ItemFilter::kExistingOnly,
          eval::ItemFilter::kNewOnly}) {
      for (int threads : {1, 2, 4}) {
        eval::EvalConfig config;
        config.top_n = 2;
        config.rule = rule;
        config.threads = threads;
        const int history_span =
            filter == eval::ItemFilter::kAll ? -1 : 1;
        const eval::EvalResult live =
            eval::EvaluateSpan(live_embeddings, store, dataset, /*test_span=*/2,
                         config, filter, history_span);
        const eval::EvalResult served =
            eval::EvaluateSpan(*snapshot, dataset, /*test_span=*/2, config,
                         filter, history_span);
        EXPECT_EQ(live.metrics.users, served.metrics.users);
        EXPECT_EQ(live.metrics.hit_ratio, served.metrics.hit_ratio);
        EXPECT_EQ(live.metrics.ndcg, served.metrics.ndcg);
      }
    }
  }
}

// A snapshot is a deep copy: training mutations after the publish must
// not leak into already-published state.
TEST(ServingSnapshotTest, PublishedStateIsFrozen) {
  core::InterestStore store = MakeStore(/*dim=*/4, /*seed=*/13);
  models::ModelConfig model_config;
  model_config.embedding_dim = 4;
  models::MsrModel model(model_config, /*num_items=*/6, /*seed=*/1);

  SnapshotRegistry registry;
  registry.Publish(BuildSnapshot(model, store, /*span=*/0));
  const std::shared_ptr<const ServingSnapshot> snapshot =
      registry.Current();
  const float frozen_embedding = snapshot->item_embeddings().at(0, 0);
  const float frozen_interest = snapshot->Interests(0).data[0];

  // Mutate the live objects the way training would.
  model.embeddings().parameter().mutable_value().at(0, 0) =
      frozen_embedding + 42.0f;
  nn::Tensor mutated = store.Interests(0).Clone();
  mutated.at(0, 0) = frozen_interest + 42.0f;
  store.SetInterests(0, std::move(mutated));

  EXPECT_EQ(snapshot->item_embeddings().at(0, 0), frozen_embedding);
  EXPECT_EQ(snapshot->Interests(0).data[0], frozen_interest);
}

TEST(SnapshotRegistryTest, PublishStampsMonotonicVersions) {
  core::InterestStore store = MakeStore(/*dim=*/4, /*seed=*/14);
  models::ModelConfig model_config;
  model_config.embedding_dim = 4;
  models::MsrModel model(model_config, /*num_items=*/6, /*seed=*/1);

  SnapshotRegistry registry;
  EXPECT_EQ(registry.Current(), nullptr);
  EXPECT_EQ(registry.versions_published(), 0u);
  registry.Publish(BuildSnapshot(model, store, 0));
  EXPECT_EQ(registry.Current()->version(), 1u);
  registry.Publish(BuildSnapshot(model, store, 1));
  EXPECT_EQ(registry.Current()->version(), 2u);
  EXPECT_EQ(registry.Current()->trained_through_span(), 1);
  EXPECT_EQ(registry.versions_published(), 2u);
}

// The timed-republish fast path: an unchanged model + store republishes
// by sharing the previous snapshot's frozen content — same table
// pointers, fresh version, carried data epoch — and any mutation of
// either side disqualifies the shortcut.
TEST(SnapshotRegistryTest, SharedRepublishSharesContentAndCarriesEpoch) {
  core::InterestStore store = MakeStore(/*dim=*/4, /*seed=*/18);
  models::ModelConfig model_config;
  model_config.embedding_dim = 4;
  models::MsrModel model(model_config, /*num_items=*/6, /*seed=*/1);

  SnapshotRegistry registry;
  EXPECT_EQ(BuildSnapshotShared(model, store, 0, registry.Current()),
            nullptr);  // nothing published yet
  registry.Publish(BuildSnapshot(model, store, 0));
  const std::shared_ptr<const ServingSnapshot> first = registry.Current();
  EXPECT_GT(first->store_revision(), 0u);

  std::shared_ptr<ServingSnapshot> shared =
      BuildSnapshotShared(model, store, 1, first);
  ASSERT_NE(shared, nullptr);
  // Shared tables, not copies.
  EXPECT_EQ(shared->item_embeddings().data(),
            first->item_embeddings().data());
  EXPECT_EQ(shared->item_embeddings_kmajor().data(),
            first->item_embeddings_kmajor().data());
  EXPECT_EQ(shared->Interests(0).data, first->Interests(0).data);
  EXPECT_EQ(shared->trained_through_span(), 1);
  registry.Publish(std::move(shared));
  EXPECT_EQ(registry.Current()->version(), 2u);
  EXPECT_EQ(registry.Current()->data_epoch(), first->data_epoch());

  // Store mutation re-stamps the revision and disqualifies sharing.
  nn::Tensor mutated = store.Interests(0).Clone();
  mutated.at(0, 0) += 1.0f;
  store.SetInterests(0, std::move(mutated));
  EXPECT_EQ(BuildSnapshotShared(model, store, 2, registry.Current()),
            nullptr);
  registry.Publish(BuildSnapshot(model, store, 2));
  EXPECT_EQ(registry.Current()->data_epoch(), 3u);  // fresh epoch

  // Model mutation is caught by the embedding byte compare even though
  // the store revision matches.
  model.embeddings().parameter().mutable_value().at(0, 0) += 1.0f;
  EXPECT_EQ(BuildSnapshotShared(model, store, 3, registry.Current()),
            nullptr);

  // A hand-assembled snapshot (revision 0) never qualifies as prev.
  auto hand = std::make_shared<ServingSnapshot>(
      model.ExportItemEmbeddings(), store.ExportPacked(), /*span=*/3);
  EXPECT_EQ(hand->store_revision(), 0u);
  EXPECT_EQ(BuildSnapshotShared(model, store, 4, hand), nullptr);
}

// A retired snapshot stays valid for readers that still hold it.
TEST(SnapshotRegistryTest, RetiredSnapshotOutlivesPublish) {
  core::InterestStore store = MakeStore(/*dim=*/4, /*seed=*/15);
  models::ModelConfig model_config;
  model_config.embedding_dim = 4;
  models::MsrModel model(model_config, /*num_items=*/6, /*seed=*/1);

  SnapshotRegistry registry;
  registry.Publish(BuildSnapshot(model, store, 0));
  const std::shared_ptr<const ServingSnapshot> held = registry.Current();
  registry.Publish(BuildSnapshot(model, store, 1));
  EXPECT_EQ(held->version(), 1u);
  EXPECT_EQ(held->trained_through_span(), 0);
  // The held snapshot still answers queries.
  EXPECT_TRUE(held->HasUser(0));
  EXPECT_EQ(held->Interests(0).rows, 2);
}

// Publish-while-reading stress: a writer publishes pattern-stamped
// snapshots (every embedding and interest value == the snapshot's span
// id) while reader threads continuously load and validate. A reader must
// never observe a torn snapshot — every value it samples must equal the
// span stamp of the snapshot it holds. ASan-friendly: also exercises
// that retirement never frees under a reader.
TEST(SnapshotRegistryTest, ConcurrentPublishNeverExposesPartialState) {
  constexpr int kPublishes = 200;
  constexpr int kReaders = 4;
  constexpr int64_t kItems = 32;
  constexpr int64_t kDim = 8;

  auto make_stamped = [&](int stamp) {
    core::PackedInterests packed;
    packed.dim = kDim;
    packed.users = {0, 1};
    packed.row_begin = {0, 2};
    packed.counts = {2, 3};
    packed.data.assign(static_cast<size_t>(5 * kDim),
                       static_cast<float>(stamp));
    return std::make_shared<ServingSnapshot>(
        nn::Tensor::Full({kItems, kDim}, static_cast<float>(stamp)),
        std::move(packed), stamp);
  };

  SnapshotRegistry registry;
  registry.Publish(make_stamped(0));

  std::atomic<bool> stop{false};
  std::atomic<int64_t> reads{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const std::shared_ptr<const ServingSnapshot> snapshot =
            registry.Current();
        ASSERT_NE(snapshot, nullptr);
        const float stamp =
            static_cast<float>(snapshot->trained_through_span());
        // Sample the frozen state; any torn publish shows up as a
        // mismatched value.
        const nn::Tensor& embeddings = snapshot->item_embeddings();
        ASSERT_EQ(embeddings.at(0, 0), stamp);
        ASSERT_EQ(embeddings.at(kItems - 1, kDim - 1), stamp);
        const nn::ConstMatrixView interests = snapshot->Interests(1);
        ASSERT_EQ(interests.rows, 3);
        ASSERT_EQ(interests.data[0], stamp);
        ASSERT_EQ(interests.data[interests.rows * interests.cols - 1],
                  stamp);
        // And the full read path: a Recommend batch against the held
        // snapshot while the writer keeps publishing.
        const std::vector<RecommendResponse> responses = Recommend(
            *snapshot, {{0, 3}, {1, 2}, {9, 1}}, ServeConfig{3, eval::ScoreRule::kMaxInterest, 1});
        ASSERT_EQ(responses.size(), 3u);
        ASSERT_TRUE(responses[0].ok);
        ASSERT_TRUE(responses[1].ok);
        ASSERT_FALSE(responses[2].ok);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Keep publishing until the readers have validated a few snapshots —
  // on a single core the writer could otherwise finish before any reader
  // is scheduled. The hard cap keeps a starved run finite (and failing).
  int publish = 0;
  while (publish < kPublishes ||
         (reads.load(std::memory_order_relaxed) < kReaders &&
          publish < 200 * kPublishes)) {
    registry.Publish(make_stamped(++publish));
    if (publish % 16 == 0) std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(registry.Current()->trained_through_span(), publish);
  EXPECT_GE(reads.load(), kReaders);
}

TEST(RecommendTest, AnswersBatchAgainstSnapshot) {
  core::InterestStore store = MakeStore(/*dim=*/4, /*seed=*/16);
  util::Rng rng(4);
  ServingSnapshot snapshot(nn::Tensor::Randn({10, 4}, rng),
                           store.ExportPacked(), /*span=*/1);

  ServeConfig config;
  config.default_top_n = 4;
  const std::vector<RecommendRequest> requests = {
      {0, 0},    // default top_n
      {2, 3},    // explicit top_n
      {7, 5},    // unknown user
      {5, 100},  // top_n larger than the corpus: clamped
  };
  const std::vector<RecommendResponse> responses =
      Recommend(snapshot, requests, config);
  ASSERT_EQ(responses.size(), 4u);

  EXPECT_TRUE(responses[0].ok);
  EXPECT_EQ(responses[0].user, 0);
  EXPECT_EQ(responses[0].items.size(), 4u);
  // Scores come back highest first.
  for (size_t i = 1; i < responses[0].items.size(); ++i) {
    EXPECT_GE(responses[0].items[i - 1].second,
              responses[0].items[i].second);
  }

  EXPECT_TRUE(responses[1].ok);
  EXPECT_EQ(responses[1].items.size(), 3u);

  EXPECT_FALSE(responses[2].ok);
  EXPECT_NE(responses[2].error.find("user 7"), std::string::npos);
  EXPECT_TRUE(responses[2].items.empty());

  EXPECT_TRUE(responses[3].ok);
  EXPECT_EQ(responses[3].items.size(), 10u);  // whole corpus
}

TEST(RecommendTest, IdenticalAcrossThreadCounts) {
  core::InterestStore store = MakeStore(/*dim=*/8, /*seed=*/17);
  util::Rng rng(5);
  ServingSnapshot snapshot(nn::Tensor::Randn({64, 8}, rng),
                           store.ExportPacked(), /*span=*/1);
  std::vector<RecommendRequest> requests;
  for (int i = 0; i < 24; ++i) {
    requests.push_back({i % 2 == 0 ? 0 : 2, 5});
  }
  ServeConfig config;
  config.rule = eval::ScoreRule::kAttentive;
  config.threads = 1;
  const std::vector<RecommendResponse> sequential =
      Recommend(snapshot, requests, config);
  for (int threads : {2, 4, 8}) {
    config.threads = threads;
    const std::vector<RecommendResponse> parallel =
        Recommend(snapshot, requests, config);
    ASSERT_EQ(parallel.size(), sequential.size());
    for (size_t i = 0; i < sequential.size(); ++i) {
      EXPECT_EQ(parallel[i].ok, sequential[i].ok);
      ASSERT_EQ(parallel[i].items.size(), sequential[i].items.size());
      for (size_t j = 0; j < sequential[i].items.size(); ++j) {
        EXPECT_EQ(parallel[i].items[j].first,
                  sequential[i].items[j].first);
        EXPECT_EQ(parallel[i].items[j].second,
                  sequential[i].items[j].second);
      }
    }
  }
}

// --- Exact top-N oracle -----------------------------------------------------

using TopN = std::vector<std::pair<data::ItemId, float>>;

// The brute force the bound-pruned exact path must reproduce bit for
// bit: every item scored from the full panel product, then the
// tie-ordered TopNFromScores.
TopN BruteForceTopN(const ServingSnapshot& snapshot, data::UserId user,
                    eval::ScoreRule rule, int top_n) {
  nn::Tensor logits;
  nn::MatMulTransBPanelInto(nn::ViewOf(snapshot.item_embeddings_kmajor()),
                            snapshot.Interests(user), &logits);
  std::vector<float> scores(static_cast<size_t>(snapshot.num_items()));
  eval::ScoresFromLogits(logits.data(), snapshot.num_items(),
                         snapshot.NumInterests(user), rule, scores.data());
  return eval::TopNFromScores(scores, top_n);
}

bool BitwiseEqual(const TopN& a, const TopN& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(a[0])) == 0);
}

constexpr int64_t kOracleDim = 8;
constexpr data::UserId kOracleUsers = 6;

// A serving world built to stress the pruning bound, with rows scaled by
// `scale` (60 puts the logits near 1e4). Users:
//   0-3  K = 1, 2, 5, 12 random interest rows;
//   4    K = 12: eleven copies of the unit row e_0 and one e_1, so item
//        i's logits are exactly its first coordinate (x11) and its
//        second;
//   5    K = 6 rows in +/- pairs: mixed-sign logits.
// Items: random rows; every third row repeats an earlier one, so exact
// score ties land everywhere, including at the N-th place; every 37th
// row is zero (all logits 0). The last rows (up to a quarter of the
// corpus) target user 4 near 1e4. A row (L, L) gives 12 equal logits L,
// whose attentive mean s(L) can round up to 3 ulps above L; a row
// (-1e4, v) scores exactly v, the float just below s(L). Shuffled
// together, a pinned v often sits at the N-th place when its (L, L) row
// arrives, and a bound without rounding slack (L < v) would skip that
// row although it scores s(L) > v.
std::unique_ptr<ServingSnapshot> MakeOracleSnapshot(int64_t num_items,
                                                    float scale,
                                                    uint64_t seed) {
  util::Rng rng(seed);
  core::PackedInterests interests;
  interests.dim = kOracleDim;
  const std::vector<int32_t> counts = {1, 2, 5, 12, 12, 6};
  for (data::UserId user = 0; user < kOracleUsers; ++user) {
    const int32_t k = counts[static_cast<size_t>(user)];
    interests.users.push_back(user);
    interests.row_begin.push_back(static_cast<int64_t>(
        interests.data.size() / static_cast<size_t>(kOracleDim)));
    interests.counts.push_back(k);
    const nn::Tensor rows = nn::Tensor::Randn({k, kOracleDim}, rng);
    for (int32_t r = 0; r < k; ++r) {
      for (int64_t d = 0; d < kOracleDim; ++d) {
        float value = rows.at(r, d) * scale;
        if (user == 4) value = d == (r == 11 ? 1 : 0) ? 1.0f : 0.0f;
        if (user == 5 && r % 2 == 1) {
          value = -interests.data[interests.data.size() - kOracleDim];
        }
        interests.data.push_back(value);
      }
    }
  }
  nn::Tensor items = nn::Tensor::Randn({num_items, kOracleDim}, rng);
  for (int64_t i = 0; i < num_items; ++i) {
    float* row = items.data() + i * kOracleDim;
    if (i % 3 == 2) {
      std::copy_n(items.data() + (i / 3) * kOracleDim, kOracleDim, row);
    } else if (i % 37 == 36) {
      std::fill_n(row, kOracleDim, 0.0f);
    } else {
      for (int64_t d = 0; d < kOracleDim; ++d) row[d] *= scale;
    }
  }
  std::vector<std::pair<float, float>> near_ties;
  float x = 15000.0f;
  for (int j = 0; j < 64; ++j, x = std::nextafter(x, 2e4f)) {
    near_ties.emplace_back(x, x);
    const std::vector<float> equal(12, x);
    const float pinned = std::nextafter(
        eval::ScoreFromLogits(equal.data(), 12, eval::ScoreRule::kAttentive),
        0.0f);
    if (pinned > x) near_ties.emplace_back(-1e4f, pinned);
  }
  for (size_t j = near_ties.size() - 1; j > 0; --j) {
    std::swap(near_ties[j], near_ties[rng.NextBelow(j + 1)]);
  }
  const int64_t take = std::min<int64_t>(
      static_cast<int64_t>(near_ties.size()), num_items / 4);
  for (int64_t j = 0; j < take; ++j) {
    float* row = items.data() + (num_items - take + j) * kOracleDim;
    row[0] = near_ties[static_cast<size_t>(j)].first;
    row[1] = near_ties[static_cast<size_t>(j)].second;
  }
  return std::make_unique<ServingSnapshot>(std::move(items),
                                           std::move(interests),
                                           /*trained_through_span=*/1);
}

// RecommendOne, RecommendBatch and Recommend must each return exactly the
// brute force's bytes: the bound may only skip rows that cannot enter
// the top-N, and the strict (score desc, item id asc) order leaves no
// freedom in which tied item is kept or where it sorts.
TEST(RecommendOracleTest, PrunedExactTopNMatchesBruteForceBitwise) {
  for (const int64_t num_items : {1, 1023, 1025, 3000}) {
    for (const float scale : {1.0f, 60.0f}) {
      const std::unique_ptr<ServingSnapshot> snapshot =
          MakeOracleSnapshot(num_items, scale, /*seed=*/17 + num_items);
      for (const eval::ScoreRule rule :
           {eval::ScoreRule::kAttentive, eval::ScoreRule::kMaxInterest}) {
        SCOPED_TRACE(std::to_string(num_items) + " items, scale " +
                     std::to_string(scale) + ", " +
                     eval::ScoreRuleName(rule));
        ServeConfig config;
        config.rule = rule;
        config.retrieval = RetrievalMode::kExact;
        config.threads = 3;
        const int n = static_cast<int>(num_items);
        // Every user four times with four top_n values: the batch keeps
        // one accumulator per user at the largest and serves the rest as
        // prefixes.
        std::vector<RecommendRequest> requests;
        std::vector<TopN> expected;
        for (data::UserId user = 0; user < kOracleUsers; ++user) {
          for (const int top_n : {1, 20, n, n + 5}) {
            requests.push_back({user, top_n});
            expected.push_back(BruteForceTopN(*snapshot, user, rule, top_n));
          }
        }
        RecommendScratch scratch;
        for (size_t i = 0; i < requests.size(); ++i) {
          SCOPED_TRACE("user " + std::to_string(requests[i].user) +
                       " top_n " + std::to_string(requests[i].top_n));
          RecommendResponse one;
          RecommendOne(*snapshot, requests[i], config, &scratch, &one);
          EXPECT_TRUE(one.ok && BitwiseEqual(one.items, expected[i]))
              << "RecommendOne";
          RecommendBatch(*snapshot, &requests[i], 1, config, &scratch, &one);
          EXPECT_TRUE(one.ok && BitwiseEqual(one.items, expected[i]))
              << "RecommendBatch of one";
        }
        // The batch three ways: as built, reversed (a user's smaller
        // top_n first), and only the small top_n values, so every fused
        // accumulator prunes.
        std::vector<RecommendRequest> reversed(requests.rbegin(),
                                               requests.rend());
        std::vector<size_t> small;
        for (size_t i = 0; i < requests.size(); ++i) {
          if (requests[i].top_n <= 20) small.push_back(i);
        }
        std::vector<RecommendRequest> small_requests;
        for (size_t i : small) small_requests.push_back(requests[i]);
        std::vector<RecommendResponse> batch(requests.size());
        std::vector<RecommendResponse> batch_reversed(requests.size());
        std::vector<RecommendResponse> batch_small(small.size());
        RecommendBatch(*snapshot, requests.data(), requests.size(), config,
                       &scratch, batch.data());
        RecommendBatch(*snapshot, reversed.data(), reversed.size(), config,
                       &scratch, batch_reversed.data());
        RecommendBatch(*snapshot, small_requests.data(), small.size(),
                       config, &scratch, batch_small.data());
        const std::vector<RecommendResponse> fanned =
            Recommend(*snapshot, requests, config);
        std::vector<const RecommendResponse*> got_small(requests.size());
        for (size_t j = 0; j < small.size(); ++j) {
          got_small[small[j]] = &batch_small[j];
        }
        for (size_t i = 0; i < requests.size(); ++i) {
          SCOPED_TRACE("user " + std::to_string(requests[i].user) +
                       " top_n " + std::to_string(requests[i].top_n));
          for (const RecommendResponse* got :
               std::initializer_list<const RecommendResponse*>{
                   &batch[i], &batch_reversed[requests.size() - 1 - i],
                   got_small[i], &fanned[i]}) {
            if (got == nullptr) continue;
            EXPECT_TRUE(got->ok && BitwiseEqual(got->items, expected[i]));
          }
        }
      }
    }
  }
}

// The pruning counters are added once per call, not per row: a call
// over U unique users accounts for exactly U x num_items rows, split
// between reduced and skipped. Under IMSR_OBS=OFF they do not exist.
TEST(RecommendOracleTest, PruningCountersAccountForEveryRow) {
  const int64_t num_items = 3000;
  const std::unique_ptr<ServingSnapshot> snapshot =
      MakeOracleSnapshot(num_items, /*scale=*/1.0f, /*seed=*/29);
  ServeConfig config;
  config.retrieval = RetrievalMode::kExact;
  RecommendScratch scratch;
  RecommendResponse one;
  const std::vector<RecommendRequest> requests = {
      {2, 5}, {3, 20}, {2, 1}, {0, 10}};
  std::vector<RecommendResponse> batch(requests.size());
#if !defined(IMSR_OBS_DISABLED)
  auto counter = [](const char* name) {
    return obs::Registry().GetCounter(name).value();
  };
  int64_t reduced = counter("serve/exact_rows_reduced");
  int64_t skipped = counter("serve/exact_rows_skipped");
  RecommendOne(*snapshot, {2, 5}, config, &scratch, &one);
  const int64_t one_reduced = counter("serve/exact_rows_reduced") - reduced;
  const int64_t one_skipped = counter("serve/exact_rows_skipped") - skipped;
  EXPECT_EQ(one_reduced + one_skipped, num_items);
  EXPECT_GE(one_reduced, 5);
  EXPECT_GT(one_skipped, num_items / 2);

  reduced = counter("serve/exact_rows_reduced");
  skipped = counter("serve/exact_rows_skipped");
  RecommendBatch(*snapshot, requests.data(), requests.size(), config,
                 &scratch, batch.data());
  EXPECT_EQ(counter("serve/exact_rows_reduced") - reduced +
                counter("serve/exact_rows_skipped") - skipped,
            3 * num_items);  // three unique users
#else
  RecommendOne(*snapshot, {2, 5}, config, &scratch, &one);
  RecommendBatch(*snapshot, requests.data(), requests.size(), config,
                 &scratch, batch.data());
  for (const obs::CounterSnapshot& c : obs::Registry().Snapshot().counters) {
    EXPECT_NE(c.name, "serve/exact_rows_reduced");
    EXPECT_NE(c.name, "serve/exact_rows_skipped");
  }
#endif
  EXPECT_TRUE(one.ok);
}

// Bitwise equality of two response lists (items and float scores).
bool SameResponse(const RecommendResponse& a, const RecommendResponse& b) {
  return a.ok == b.ok && a.error == b.error &&
         a.items.size() == b.items.size() &&
         (a.items.empty() ||
          std::memcmp(a.items.data(), b.items.data(),
                      a.items.size() * sizeof(a.items[0])) == 0);
}

// A snapshot published without an IvfIndex must answer kIVF exactly as
// kExact on every read path — RecommendOne, RecommendBatch, Recommend,
// EvaluateSpan and PrequentialEvaluator::ScoreEvent — and count each
// fallback in its obs counter.
TEST(IvfFallbackTest, IndexlessSnapshotAnswersIvfExactly) {
  data::SyntheticConfig data_config;
  data_config.name = "fallback";
  data_config.num_users = 24;
  data_config.num_items = 150;
  data_config.num_categories = 6;
  data_config.pretrain_interactions_per_user = 20;
  data_config.span_interactions_per_user = 8;
  data_config.min_interactions = 5;
  data_config.seed = 23;
  const data::SyntheticDataset synthetic =
      data::GenerateSynthetic(data_config);
  const data::Dataset& dataset = *synthetic.dataset;
  models::ModelConfig model_config;
  model_config.embedding_dim = 8;
  models::MsrModel model(model_config, dataset.num_items(), /*seed=*/4);
  core::InterestStore store;
  core::TrainConfig train_config;
  train_config.pretrain_epochs = 1;
  train_config.batch_size = 32;
  train_config.negatives = 3;
  train_config.initial_interests = 3;
  core::ImsrTrainer trainer(&model, &store, train_config);
  trainer.Pretrain(dataset);
  const std::shared_ptr<ServingSnapshot> snapshot =
      BuildSnapshot(model, store, /*trained_through_span=*/0);
  ASSERT_EQ(snapshot->index(), nullptr);

  std::vector<RecommendRequest> requests;
  for (int64_t u = 0; u < snapshot->num_users(); u += 3) {
    requests.push_back(
        {static_cast<data::UserId>(u), static_cast<int>(5 + (u % 4) * 5)});
  }
  requests.push_back(requests.front());  // duplicate user
  requests.push_back({/*user=*/100000, 10});  // unknown user
  ASSERT_GE(requests.size(), 4u);
  const size_t count = requests.size();
  ServeConfig exact;
  ServeConfig ivf;
  ivf.retrieval = RetrievalMode::kIVF;
#if !defined(IMSR_OBS_DISABLED)
  auto counter = [](const char* name) {
    return obs::Registry().GetCounter(name).value();
  };
  const int64_t serve_before = counter("serve/ivf_fallback_exact");
  const int64_t eval_before = counter("eval/ivf_fallback_exact");
  const int64_t stream_before = counter("stream/ivf_fallback_exact");
#endif

  RecommendScratch scratch;
  for (const RecommendRequest& request : requests) {
    RecommendResponse want;
    RecommendResponse got;
    RecommendOne(*snapshot, request, exact, &scratch, &want);
    RecommendOne(*snapshot, request, ivf, &scratch, &got);
    EXPECT_TRUE(SameResponse(want, got)) << "RecommendOne user "
                                         << request.user;
  }
  std::vector<RecommendResponse> want_batch(count);
  std::vector<RecommendResponse> got_batch(count);
  RecommendBatch(*snapshot, requests.data(), count, exact, &scratch,
                 want_batch.data());
  RecommendBatch(*snapshot, requests.data(), count, ivf, &scratch,
                 got_batch.data());
  const std::vector<RecommendResponse> want_all =
      Recommend(*snapshot, requests, exact);
  const std::vector<RecommendResponse> got_all =
      Recommend(*snapshot, requests, ivf);
  ASSERT_EQ(got_all.size(), count);
  for (size_t i = 0; i < count; ++i) {
    EXPECT_TRUE(SameResponse(want_batch[i], got_batch[i]))
        << "RecommendBatch request " << i;
    EXPECT_TRUE(SameResponse(want_all[i], got_all[i]))
        << "Recommend request " << i;
  }

  eval::EvalConfig eval_exact;
  eval_exact.top_n = 10;
  eval::EvalConfig eval_ivf = eval_exact;
  eval_ivf.retrieval = RetrievalMode::kIVF;
  const eval::TopNMetrics want_eval =
      eval::EvaluateSpan(*snapshot, dataset, /*test_span=*/1, eval_exact)
          .metrics;
  const eval::TopNMetrics got_eval =
      eval::EvaluateSpan(*snapshot, dataset, /*test_span=*/1, eval_ivf)
          .metrics;
  ASSERT_GT(want_eval.users, 0);
  EXPECT_EQ(got_eval.users, want_eval.users);
  EXPECT_EQ(std::memcmp(&got_eval.hit_ratio, &want_eval.hit_ratio,
                        sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&got_eval.ndcg, &want_eval.ndcg, sizeof(double)),
            0);

  stream::PrequentialConfig stream_exact;
  stream_exact.top_n = 10;
  stream::PrequentialConfig stream_ivf = stream_exact;
  stream_ivf.retrieval = RetrievalMode::kIVF;
  stream::PrequentialEvaluator want_stream(stream_exact);
  stream::PrequentialEvaluator got_stream(stream_ivf);
  uint64_t sequence = 0;
  for (const data::UserId user : dataset.active_users(1)) {
    for (const data::ItemId item : dataset.user_span(user, 1).all) {
      stream::StreamEvent event;
      event.user = user;
      event.item = item;
      event.sequence = ++sequence;
      event.timestamp = static_cast<int64_t>(sequence);
      EXPECT_EQ(want_stream.ScoreEvent(*snapshot, event, 0),
                got_stream.ScoreEvent(*snapshot, event, 0));
    }
  }
  ASSERT_GT(want_stream.scored(), 0);
  EXPECT_EQ(got_stream.scored(), want_stream.scored());
  EXPECT_EQ(got_stream.skipped(), want_stream.skipped());
  const eval::WindowMetrics want_window = want_stream.Window();
  const eval::WindowMetrics got_window = got_stream.Window();
  EXPECT_EQ(got_window.count, want_window.count);
  EXPECT_EQ(std::memcmp(&got_window.hit_ratio, &want_window.hit_ratio,
                        sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&got_window.ndcg, &want_window.ndcg,
                        sizeof(double)), 0);
  EXPECT_EQ(got_stream.ivf_totals().searches, 0);

#if !defined(IMSR_OBS_DISABLED)
  // Every IVF request fell back: RecommendOne and RecommendBatch count
  // each request, Recommend its sub-batches' requests, EvaluateSpan each
  // evaluated user and ScoreEvent each scored event.
  EXPECT_EQ(counter("serve/ivf_fallback_exact") - serve_before,
            static_cast<int64_t>(3 * count));
  EXPECT_EQ(counter("eval/ivf_fallback_exact") - eval_before,
            want_eval.users);
  EXPECT_EQ(counter("stream/ivf_fallback_exact") - stream_before,
            want_stream.scored());
#endif
}

// --- Seam oracle: evaluator, server and IVF score one way --------------------

constexpr int64_t kSeamDim = 24;
constexpr int64_t kSeamItems = 1100;  // two panels, the second partial
constexpr int kSeamTopN = 20;

// Item rows built for near-ties. In each group of five, row 0 is
// random, rows 1 and 3 are row 0 with one coordinate moved up or down
// by 1 ulp, row 2 repeats row 0 and row 4 repeats row 1. The repeats
// score exactly alike (the pessimistic tie rule's case); the 1-ulp
// variants score within a few ulps of their base row, close enough that
// any other accumulation order reorders them.
nn::Tensor MakeSeamItems(uint64_t seed) {
  util::Rng rng(seed);
  nn::Tensor items = nn::Tensor::Randn({kSeamItems, kSeamDim}, rng);
  for (int64_t i = 0; i < kSeamItems; ++i) {
    const int64_t slot = i % 5;
    if (slot == 0) continue;
    const int64_t source = slot == 4 ? i - 3 : i - slot;
    float* row = items.data() + i * kSeamDim;
    std::copy_n(items.data() + source * kSeamDim, kSeamDim, row);
    const int64_t c = i % kSeamDim;
    if (slot == 1) row[c] = std::nextafter(row[c], INFINITY);
    if (slot == 3) row[c] = std::nextafter(row[c], -INFINITY);
  }
  return items;
}

// Every exact (user, item) score is one computation: the served top-N
// (RecommendOne), the evaluator's brute force (ScoreAllItemsInto, then
// TopNFromScores) and IVF at full probe and full re-rank agree bit for
// bit, for K = 1..12 under both rules, on a corpus of near-tie rows.
TEST(SeamOracleTest, ServedExactBruteForceAndFullIvfAgreeBitwise) {
  const nn::Tensor items = MakeSeamItems(/*seed=*/301);
  util::Rng rng(302);
  core::PackedInterests packed;
  packed.dim = kSeamDim;
  for (int32_t k = 1; k <= 12; ++k) {
    for (int profile = 0; profile < 2; ++profile) {
      packed.users.push_back(static_cast<data::UserId>(packed.users.size()));
      packed.row_begin.push_back(
          static_cast<int64_t>(packed.data.size()) / kSeamDim);
      packed.counts.push_back(k);
      const nn::Tensor rows = nn::Tensor::Randn({k, kSeamDim}, rng);
      packed.data.insert(packed.data.end(), rows.data(),
                         rows.data() + rows.numel());
    }
  }
  auto snapshot = std::make_shared<ServingSnapshot>(items, packed, 0);
  IvfBuildConfig build;
  build.min_rerank = static_cast<int>(kSeamItems);  // re-rank everything
  snapshot->AttachIndex(std::make_unique<IvfIndex>(items, packed, build));
  const int full_probe =
      static_cast<int>(snapshot->index()->num_centroids());

  RecommendScratch scratch;
  IvfIndex::Scratch ivf_scratch;
  eval::RankScratch oracle_scratch;
  int64_t tied_lists = 0;
  for (const eval::ScoreRule rule :
       {eval::ScoreRule::kAttentive, eval::ScoreRule::kMaxInterest}) {
    ServeConfig config;
    config.rule = rule;
    for (const data::UserId user : snapshot->Users()) {
      eval::ScoreAllItemsInto(snapshot->Interests(user), items, rule,
                              &oracle_scratch);
      for (const int top_n : {1, kSeamTopN, kSeamTopN + 1}) {
        const std::string where =
            std::string(eval::ScoreRuleName(rule)) + " user " +
            std::to_string(user) + " K=" +
            std::to_string(snapshot->NumInterests(user)) +
            " top_n=" + std::to_string(top_n);
        const TopN oracle = eval::TopNFromScores(oracle_scratch.scores, top_n);
        RecommendResponse served;
        RecommendOne(*snapshot, {user, top_n}, config, &scratch, &served);
        ASSERT_TRUE(served.ok) << where;
        EXPECT_TRUE(BitwiseEqual(served.items, oracle)) << where;
        TopN ivf;
        snapshot->index()->SearchTopN(snapshot->Interests(user), items, rule,
                                      top_n, full_probe, &ivf_scratch, &ivf);
        EXPECT_TRUE(BitwiseEqual(ivf, served.items)) << where;
        for (size_t i = 1; i < oracle.size(); ++i) {
          if (oracle[i].second == oracle[i - 1].second) {
            ++tied_lists;
            break;
          }
        }
      }
    }
  }
  // The corpus did put exact ties inside the served lists.
  EXPECT_GT(tied_lists, 0);
}

// The offline evaluator (snapshot and live-model overloads) and the
// prequential evaluator read each target's rank off the served
// top-(N+1). Their metrics must equal a reference loop over the
// full-corpus pessimistic rank min(TargetRank, N + 1). Targets sit at
// every position around the cut-off of each user's oracle order, and the
// check also runs at cut-offs N where exact ties straddle the N-th
// place: a target ranked N-th by item id whose twin follows it at N + 1
// must count as a miss.
TEST(SeamOracleTest, EvaluatorsRankLikeTheFullCorpusOracle) {
  const nn::Tensor items = MakeSeamItems(/*seed=*/311);
  util::Rng rng(312);
  core::InterestStore store;
  std::vector<data::Interaction> log;
  data::UserId next_user = 0;
  for (int64_t k = 1; k <= 12; ++k) {
    for (int profile = 0; profile < 2; ++profile) {
      const nn::Tensor interests = nn::Tensor::Randn({k, kSeamDim}, rng);
      for (const eval::ScoreRule rule :
           {eval::ScoreRule::kAttentive, eval::ScoreRule::kMaxInterest}) {
        const TopN order = eval::TopNFromScores(
            eval::ScoreAllItems(interests, items, rule), 501);
        std::vector<data::ItemId> targets;
        for (int position = 0; position < kSeamTopN + 4; ++position) {
          targets.push_back(order[static_cast<size_t>(position)].first);
        }
        targets.push_back(order.back().first);
        for (const data::ItemId target : targets) {
          const data::UserId user = next_user++;
          store.Initialize(user, k, kSeamDim, 0, rng);
          store.SetInterests(user, interests);
          // Pretrain one item; span 1 ends on the target (its test).
          const auto other = [target](int64_t step) {
            return static_cast<data::ItemId>((target + step) % kSeamItems);
          };
          log.push_back({user, other(1), 0});
          log.push_back({user, other(2), 90});
          log.push_back({user, target, 100});
        }
      }
    }
  }
  const data::Dataset dataset(next_user, kSeamItems, log, 1, 0.5, 1);
  const ServingSnapshot snapshot(items, store.ExportPacked(), 1);
  const std::vector<data::UserId>& users = dataset.active_users(1);
  ASSERT_EQ(static_cast<data::UserId>(users.size()), next_user);

  for (const eval::ScoreRule rule :
       {eval::ScoreRule::kAttentive, eval::ScoreRule::kMaxInterest}) {
    // Each target's full-corpus pessimistic rank, and the smallest and
    // largest cut-offs N at which a target is N-th by item id while an
    // exact twin behind it pushes its pessimistic rank past N.
    std::vector<int64_t> full_ranks;
    int tie_min = 0;
    int tie_max = 0;
    for (const data::UserId user : users) {
      const data::ItemId target = dataset.user_span(user, 1).test;
      const std::vector<float> scores =
          eval::ScoreAllItems(store.Interests(user), items, rule);
      const float mine = scores[static_cast<size_t>(target)];
      int64_t ahead = 0;  // items before the target under RanksBefore
      for (size_t i = 0; i < scores.size(); ++i) {
        ahead += eval::RanksBefore(static_cast<data::ItemId>(i), scores[i],
                                   target, mine);
      }
      full_ranks.push_back(eval::TargetRankFromScores(scores, target));
      const int n = static_cast<int>(ahead) + 1;
      if (full_ranks.back() > n && n <= kSeamTopN + 4) {
        tie_min = tie_min == 0 ? n : std::min(tie_min, n);
        tie_max = std::max(tie_max, n);
      }
    }
    ASSERT_GT(tie_min, 0) << "no exact tie straddles any cut-off";

    for (const int top_n : {kSeamTopN, tie_min, tie_max}) {
      const std::string where = std::string(eval::ScoreRuleName(rule)) +
                                " top_n=" + std::to_string(top_n);
      eval::MetricsAccumulator reference(top_n);
      eval::SlidingWindowAccumulator reference_window(top_n, next_user);
      for (const int64_t full_rank : full_ranks) {
        const int64_t rank = std::min<int64_t>(full_rank, top_n + 1);
        reference.AddRank(rank);
        reference_window.AddRank(rank);
      }
      const eval::TopNMetrics want = reference.Finalize();

      eval::EvalConfig config;
      config.top_n = top_n;
      config.rule = rule;
      const eval::TopNMetrics from_snapshot =
          eval::EvaluateSpan(snapshot, dataset, 1, config).metrics;
      const eval::TopNMetrics from_live =
          eval::EvaluateSpan(items, store, dataset, 1, config).metrics;
      for (const eval::TopNMetrics& got : {from_snapshot, from_live}) {
        EXPECT_EQ(got.users, want.users) << where;
        EXPECT_EQ(
            std::memcmp(&got.hit_ratio, &want.hit_ratio, sizeof(double)), 0)
            << where << " HR " << got.hit_ratio << " vs " << want.hit_ratio;
        EXPECT_EQ(std::memcmp(&got.ndcg, &want.ndcg, sizeof(double)), 0)
            << where << " NDCG " << got.ndcg << " vs " << want.ndcg;
      }

      stream::PrequentialConfig stream_config;
      stream_config.top_n = top_n;
      stream_config.rule = rule;
      stream_config.window = next_user;
      stream::PrequentialEvaluator prequential(stream_config);
      uint64_t sequence = 0;
      for (const data::UserId user : users) {
        stream::StreamEvent event;
        event.user = user;
        event.item = dataset.user_span(user, 1).test;
        event.sequence = ++sequence;
        event.timestamp = static_cast<int64_t>(sequence);
        ASSERT_TRUE(prequential.ScoreEvent(snapshot, event, 0)) << where;
      }
      const eval::WindowMetrics want_window = reference_window.Current();
      const eval::WindowMetrics got_window = prequential.Window();
      EXPECT_EQ(got_window.count, want_window.count) << where;
      EXPECT_EQ(std::memcmp(&got_window.hit_ratio, &want_window.hit_ratio,
                            sizeof(double)),
                0)
          << where;
      EXPECT_EQ(std::memcmp(&got_window.ndcg, &want_window.ndcg,
                            sizeof(double)),
                0)
          << where;
    }
  }
}

// End-to-end: the trainer publishes after pretraining and after each
// span (Algorithm 2's publish points), and the published snapshot
// reproduces the live evaluation bitwise.
TEST(TrainerPublishTest, PretrainAndSpansPublishServableSnapshots) {
  data::SyntheticConfig data_config;
  data_config.name = "tiny";
  data_config.num_users = 30;
  data_config.num_items = 120;
  data_config.num_categories = 8;
  data_config.pretrain_interactions_per_user = 24;
  data_config.span_interactions_per_user = 8;
  data_config.min_interactions = 5;
  data_config.seed = 19;
  const data::SyntheticDataset synthetic =
      data::GenerateSynthetic(data_config);
  const data::Dataset& dataset = *synthetic.dataset;

  models::ModelConfig model_config;
  model_config.embedding_dim = 8;
  models::MsrModel model(model_config, dataset.num_items(), /*seed=*/1);
  core::InterestStore store;
  core::TrainConfig train_config;
  train_config.pretrain_epochs = 1;
  train_config.epochs = 1;
  train_config.batch_size = 32;
  train_config.negatives = 3;
  train_config.initial_interests = 2;
  core::ImsrTrainer trainer(&model, &store, train_config);

  SnapshotRegistry registry;
  trainer.set_snapshot_registry(&registry);

  trainer.Pretrain(dataset);
  std::shared_ptr<const ServingSnapshot> snapshot = registry.Current();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->version(), 1u);
  EXPECT_EQ(snapshot->trained_through_span(), 0);
  EXPECT_EQ(static_cast<size_t>(snapshot->num_users()),
            store.num_users());

  trainer.TrainSpan(dataset, 1);
  snapshot = registry.Current();
  EXPECT_EQ(snapshot->version(), 2u);
  EXPECT_EQ(snapshot->trained_through_span(), 1);

  eval::EvalConfig eval_config;
  eval_config.top_n = 10;
  const eval::EvalResult live = eval::EvaluateSpan(
      model.embeddings().parameter().value(), store, dataset,
      /*test_span=*/2, eval_config);
  const eval::EvalResult served =
      eval::EvaluateSpan(*snapshot, dataset, /*test_span=*/2, eval_config);
  EXPECT_EQ(live.metrics.users, served.metrics.users);
  EXPECT_EQ(live.metrics.hit_ratio, served.metrics.hit_ratio);
  EXPECT_EQ(live.metrics.ndcg, served.metrics.ndcg);
}

}  // namespace
}  // namespace imsr::serve
