// Oracle gate for the IVF approximate-retrieval subsystem
// (serve/ivf_index.h, DESIGN.md §13). Every approximation is bounded
// against the brute-force path it replaces:
//
//  * recall@N of IVF vs full-corpus scoring at the default nprobe, across
//    snapshot sizes, build thread counts and score rules;
//  * full-probe + full-re-rank IVF is bitwise identical to brute force;
//  * exact mode on an indexed snapshot is bitwise identical to the
//    index-free serving path (the index can only ever ADD a mode);
//  * int8 quantized scores stay inside the analytic error bound;
//  * re-ranked output is stably ordered and every returned score is the
//    brute-force score of that item, bit for bit;
//  * index build edge cases: one-item corpus, centroid count > items,
//    duplicate and zero-norm embeddings, single-interest users, and
//    build determinism across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <utility>
#include <vector>

#include "core/interest_store.h"
#include "eval/evaluator.h"
#include "eval/ranker.h"
#include "nn/tensor.h"
#include "serve/ivf_index.h"
#include "serve/recommend.h"
#include "serve/registry.h"
#include "serve/snapshot.h"
#include "util/rng.h"

namespace imsr::serve {
namespace {

// A corpus with genuine cluster structure (the regime IVF is built for):
// `num_clusters` Gaussian centers, every item a center plus small noise.
struct ClusteredCorpus {
  nn::Tensor embeddings;  // (num_items x dim)
  nn::Tensor centers;     // (num_clusters x dim)
};

ClusteredCorpus MakeClusteredCorpus(int64_t num_items, int64_t dim,
                                    int64_t num_clusters, uint64_t seed) {
  util::Rng rng(seed);
  ClusteredCorpus corpus;
  corpus.centers = nn::Tensor::Randn({num_clusters, dim}, rng);
  corpus.embeddings = nn::Tensor::Uninitialized({num_items, dim});
  for (int64_t i = 0; i < num_items; ++i) {
    const int64_t c = static_cast<int64_t>(
        rng.NextBelow(static_cast<uint64_t>(num_clusters)));
    const float* center = corpus.centers.data() + c * dim;
    float* row = corpus.embeddings.data() + i * dim;
    for (int64_t k = 0; k < dim; ++k) {
      row[k] = center[k] + 0.15f * static_cast<float>(rng.NextGaussian());
    }
  }
  return corpus;
}

// One user's (K x dim) interests: K cluster centers plus noise — queries
// land where the corpus is dense, like real extracted interests.
std::vector<float> MakeInterests(const ClusteredCorpus& corpus, int64_t k,
                                 util::Rng& rng) {
  const int64_t dim = corpus.centers.size(1);
  const int64_t num_clusters = corpus.centers.size(0);
  std::vector<float> interests(static_cast<size_t>(k * dim));
  for (int64_t j = 0; j < k; ++j) {
    const int64_t c = static_cast<int64_t>(
        rng.NextBelow(static_cast<uint64_t>(num_clusters)));
    const float* center = corpus.centers.data() + c * dim;
    for (int64_t d = 0; d < dim; ++d) {
      interests[static_cast<size_t>(j * dim + d)] =
          center[d] + 0.1f * static_cast<float>(rng.NextGaussian());
    }
  }
  return interests;
}

// Packs hand-made per-user interest matrices (used as k-means seeds).
core::PackedInterests PackInterests(
    const std::vector<std::vector<float>>& users, int64_t dim) {
  core::PackedInterests packed;
  packed.dim = dim;
  int64_t row = 0;
  for (size_t u = 0; u < users.size(); ++u) {
    packed.users.push_back(static_cast<data::UserId>(u));
    packed.row_begin.push_back(row);
    const int64_t k = static_cast<int64_t>(users[u].size()) / dim;
    packed.counts.push_back(static_cast<int32_t>(k));
    packed.data.insert(packed.data.end(), users[u].begin(), users[u].end());
    row += k;
  }
  return packed;
}

std::vector<std::pair<data::ItemId, float>> BruteForceTopN(
    nn::ConstMatrixView interests, const nn::Tensor& embeddings,
    eval::ScoreRule rule, int top_n) {
  eval::RankScratch scratch;
  ScoreAllItemsInto(interests, embeddings, rule, &scratch);
  return eval::TopNFromScores(scratch.scores, top_n);
}

double RecallAgainstOracle(
    const std::vector<std::pair<data::ItemId, float>>& approx,
    const std::vector<std::pair<data::ItemId, float>>& oracle) {
  if (oracle.empty()) return 1.0;
  std::set<data::ItemId> oracle_items;
  for (const auto& entry : oracle) oracle_items.insert(entry.first);
  int hits = 0;
  for (const auto& entry : approx) {
    if (oracle_items.count(entry.first) > 0) ++hits;
  }
  return static_cast<double>(hits) /
         static_cast<double>(oracle_items.size());
}

// The tentpole gate: mean recall@20 against the brute-force oracle stays
// >= 0.95 at the index's DEFAULT nprobe, for every combination of corpus
// size, build thread count and score rule the suite sweeps.
TEST(IvfRecallTest, RecallAtDefaultNprobeAcrossSizesAndThreads) {
  constexpr int kTopN = 20;
  constexpr int64_t kDim = 16;
  for (const int64_t num_items : {512L, 4096L}) {
    const ClusteredCorpus corpus =
        MakeClusteredCorpus(num_items, kDim, /*num_clusters=*/24,
                            /*seed=*/17 + static_cast<uint64_t>(num_items));
    util::Rng rng(99);
    std::vector<std::vector<float>> users;
    for (int u = 0; u < 40; ++u) {
      users.push_back(MakeInterests(corpus, /*k=*/1 + (u % 4), rng));
    }
    const core::PackedInterests seeds = PackInterests(users, kDim);
    for (const int threads : {1, 4}) {
      IvfBuildConfig config;
      config.threads = threads;
      const IvfIndex index(corpus.embeddings, seeds, config);
      for (const eval::ScoreRule rule :
           {eval::ScoreRule::kAttentive, eval::ScoreRule::kMaxInterest}) {
        IvfIndex::Scratch scratch;
        std::vector<std::pair<data::ItemId, float>> top;
        double recall_sum = 0.0;
        for (size_t u = 0; u < users.size(); ++u) {
          const nn::ConstMatrixView interests{
              users[u].data(),
              static_cast<int64_t>(users[u].size()) / kDim, kDim};
          index.SearchTopN(interests, corpus.embeddings, rule, kTopN,
                           /*nprobe=*/0, &scratch, &top);
          recall_sum += RecallAgainstOracle(
              top, BruteForceTopN(interests, corpus.embeddings, rule,
                                  kTopN));
        }
        const double mean_recall =
            recall_sum / static_cast<double>(users.size());
        EXPECT_GE(mean_recall, 0.95)
            << "items=" << num_items << " threads=" << threads
            << " rule=" << ScoreRuleName(rule)
            << " default_nprobe=" << index.default_nprobe();
      }
    }
  }
}

// Probing every list and re-ranking the whole shortlist removes every
// approximation, so the result must equal brute force bit for bit (the
// clustered floats make exact score ties impossible in practice).
TEST(IvfOracleTest, FullProbeFullRerankMatchesBruteForceBitwise) {
  constexpr int kTopN = 20;
  constexpr int64_t kDim = 16;
  constexpr int64_t kNumItems = 768;
  const ClusteredCorpus corpus =
      MakeClusteredCorpus(kNumItems, kDim, /*num_clusters=*/12, /*seed=*/5);
  util::Rng rng(7);
  std::vector<std::vector<float>> users;
  for (int u = 0; u < 16; ++u) {
    users.push_back(MakeInterests(corpus, /*k=*/1 + (u % 4), rng));
  }
  // Expanded users (k0 = 4 plus NID's delta-K = 3 per expansion) reach
  // the wide (K >= 8) branch of the gathered re-rank kernel.
  for (const int64_t k : {8, 9, 12}) {
    users.push_back(MakeInterests(corpus, k, rng));
  }
  IvfBuildConfig config;
  config.min_rerank = static_cast<int>(kNumItems);  // re-rank everything
  const IvfIndex index(corpus.embeddings, PackInterests(users, kDim),
                       config);
  const int nprobe = static_cast<int>(index.num_centroids());
  for (const eval::ScoreRule rule :
       {eval::ScoreRule::kAttentive, eval::ScoreRule::kMaxInterest}) {
    IvfIndex::Scratch scratch;
    std::vector<std::pair<data::ItemId, float>> top;
    for (size_t u = 0; u < users.size(); ++u) {
      const nn::ConstMatrixView interests{
          users[u].data(), static_cast<int64_t>(users[u].size()) / kDim,
          kDim};
      IvfSearchStats stats;
      index.SearchTopN(interests, corpus.embeddings, rule, kTopN, nprobe,
                       &scratch, &top, &stats);
      EXPECT_EQ(stats.shortlist, kNumItems);  // every item reached
      EXPECT_EQ(stats.reranked, kNumItems);
      const auto oracle =
          BruteForceTopN(interests, corpus.embeddings, rule, kTopN);
      ASSERT_EQ(top.size(), oracle.size());
      for (size_t i = 0; i < top.size(); ++i) {
        EXPECT_EQ(top[i].first, oracle[i].first) << "user " << u;
        EXPECT_EQ(top[i].second, oracle[i].second) << "user " << u;
      }
    }
  }
}

// Attaching an index must not perturb exact mode: a kExact Recommend and
// a kExact EvaluateSpan over an indexed snapshot reproduce the index-free
// snapshot's answers bit for bit.
TEST(IvfOracleTest, ExactModeBitwiseIdenticalWithAndWithoutIndex) {
  constexpr int64_t kDim = 16;
  constexpr int64_t kNumItems = 300;
  const ClusteredCorpus corpus =
      MakeClusteredCorpus(kNumItems, kDim, /*num_clusters=*/8, /*seed=*/21);
  util::Rng rng(31);
  std::vector<std::vector<float>> users;
  std::vector<RecommendRequest> requests;
  for (int u = 0; u < 12; ++u) {
    users.push_back(MakeInterests(corpus, /*k=*/1 + (u % 3), rng));
    requests.push_back({static_cast<data::UserId>(u), 15});
  }
  const core::PackedInterests packed = PackInterests(users, kDim);

  nn::Tensor embeddings_copy =
      nn::Tensor::Uninitialized({kNumItems, kDim});
  std::copy_n(corpus.embeddings.data(), corpus.embeddings.numel(),
              embeddings_copy.data());
  ServingSnapshot plain(std::move(embeddings_copy), packed, 0);

  nn::Tensor embeddings_indexed =
      nn::Tensor::Uninitialized({kNumItems, kDim});
  std::copy_n(corpus.embeddings.data(), corpus.embeddings.numel(),
              embeddings_indexed.data());
  ServingSnapshot indexed(std::move(embeddings_indexed), packed, 0);
  indexed.AttachIndex(std::make_unique<IvfIndex>(
      corpus.embeddings, packed, IvfBuildConfig{}));
  ASSERT_NE(indexed.index(), nullptr);

  ServeConfig config;
  config.retrieval = RetrievalMode::kExact;
  const auto plain_responses = Recommend(plain, requests, config);
  const auto indexed_responses = Recommend(indexed, requests, config);
  ASSERT_EQ(plain_responses.size(), indexed_responses.size());
  for (size_t i = 0; i < plain_responses.size(); ++i) {
    ASSERT_EQ(plain_responses[i].items.size(),
              indexed_responses[i].items.size());
    for (size_t j = 0; j < plain_responses[i].items.size(); ++j) {
      EXPECT_EQ(plain_responses[i].items[j].first,
                indexed_responses[i].items[j].first);
      EXPECT_EQ(plain_responses[i].items[j].second,
                indexed_responses[i].items[j].second);
    }
  }
}

// Symmetric int8 quantization error bound: with per-row scales s_x, s_y
// and |rounding error| <= 0.5 per dimension,
//   |dot - approx| <= s_x * s_y * d * (127 + 0.25).
TEST(IvfQuantizationTest, ApproxDotWithinAnalyticBound) {
  constexpr int64_t kDim = 32;
  constexpr int64_t kNumItems = 200;
  const ClusteredCorpus corpus =
      MakeClusteredCorpus(kNumItems, kDim, /*num_clusters=*/6, /*seed=*/41);
  const IvfIndex index(corpus.embeddings, core::PackedInterests{},
                       IvfBuildConfig{});
  util::Rng rng(43);
  for (int trial = 0; trial < 50; ++trial) {
    const data::ItemId item = static_cast<data::ItemId>(
        rng.NextBelow(static_cast<uint64_t>(kNumItems)));
    std::vector<float> query(static_cast<size_t>(kDim));
    float query_maxabs = 0.0f;
    for (int64_t d = 0; d < kDim; ++d) {
      query[static_cast<size_t>(d)] =
          static_cast<float>(rng.NextGaussian());
      query_maxabs = std::max(
          query_maxabs, std::fabs(query[static_cast<size_t>(d)]));
    }
    const float* row = corpus.embeddings.data() + int64_t{item} * kDim;
    float item_maxabs = 0.0f;
    double exact = 0.0;
    for (int64_t d = 0; d < kDim; ++d) {
      item_maxabs = std::max(item_maxabs, std::fabs(row[d]));
      exact += static_cast<double>(row[d]) *
               static_cast<double>(query[static_cast<size_t>(d)]);
    }
    const double s_item = item_maxabs > 0.0f ? item_maxabs / 127.0 : 1.0;
    const double s_query =
        query_maxabs > 0.0f ? query_maxabs / 127.0 : 1.0;
    const double bound =
        s_item * s_query * static_cast<double>(kDim) * 127.25;
    const double approx =
        static_cast<double>(index.ApproxDot(item, query.data()));
    EXPECT_LE(std::fabs(exact - approx), bound * 1.0001 + 1e-6)
        << "item " << item;
  }
}

// IVF output is stably ordered (scores strictly descending; equal scores
// by ascending id) and every score is the item's brute-force score, bit
// for bit — the re-rank runs the exact kernels on the shortlist.
TEST(IvfOracleTest, RerankedOrderStableAndScoresExact) {
  constexpr int64_t kDim = 16;
  constexpr int64_t kNumItems = 1024;
  const ClusteredCorpus corpus = MakeClusteredCorpus(
      kNumItems, kDim, /*num_clusters=*/16, /*seed=*/61);
  util::Rng rng(67);
  std::vector<std::vector<float>> users;
  for (int u = 0; u < 10; ++u) {
    users.push_back(MakeInterests(corpus, /*k=*/2, rng));
  }
  const IvfIndex index(corpus.embeddings, PackInterests(users, kDim),
                       IvfBuildConfig{});
  IvfIndex::Scratch scratch;
  std::vector<std::pair<data::ItemId, float>> top;
  eval::RankScratch oracle_scratch;
  for (size_t u = 0; u < users.size(); ++u) {
    const nn::ConstMatrixView interests{users[u].data(), 2, kDim};
    index.SearchTopN(interests, corpus.embeddings,
                     eval::ScoreRule::kAttentive, 20, /*nprobe=*/0,
                     &scratch, &top);
    ScoreAllItemsInto(interests, corpus.embeddings,
                      eval::ScoreRule::kAttentive, &oracle_scratch);
    ASSERT_FALSE(top.empty());
    for (size_t i = 0; i < top.size(); ++i) {
      if (i > 0) {
        const bool descending = top[i - 1].second > top[i].second;
        const bool tie_by_id = top[i - 1].second == top[i].second &&
                               top[i - 1].first < top[i].first;
        EXPECT_TRUE(descending || tie_by_id) << "position " << i;
      }
      EXPECT_EQ(top[i].second,
                oracle_scratch.scores[static_cast<size_t>(top[i].first)])
          << "item " << top[i].first;
    }
  }
}

// The serving-accurate IVF eval protocol converges to exact metrics once
// nothing is approximated (full probe + full re-rank).
TEST(IvfOracleTest, EvaluatorIvfMatchesExactAtFullProbe) {
  // 3 users x 4 items, pretrain [0,50), span 1 [50,100).
  std::vector<data::Interaction> log = {
      {0, 0, 10}, {0, 1, 20}, {0, 2, 30}, {0, 0, 55}, {0, 1, 60},
      {1, 3, 15}, {1, 2, 25}, {1, 3, 35}, {1, 3, 85},
      {2, 1, 12}, {2, 2, 22}, {2, 0, 32}, {2, 2, 70},
  };
  data::Dataset dataset(3, 4, log, 1, 0.5, 1);
  util::Rng rng(71);
  core::InterestStore store;
  store.Initialize(0, 2, 8, 0, rng);
  store.Initialize(1, 1, 8, 0, rng);
  store.Initialize(2, 3, 8, 0, rng);
  const core::PackedInterests packed = store.ExportPacked();
  nn::Tensor embeddings = nn::Tensor::Randn({4, 8}, rng);

  nn::Tensor copy = nn::Tensor::Uninitialized({4, 8});
  std::copy_n(embeddings.data(), embeddings.numel(), copy.data());
  auto snapshot = std::make_shared<ServingSnapshot>(std::move(copy),
                                                    packed, 0);
  IvfBuildConfig build;
  build.min_rerank = 4;
  snapshot->AttachIndex(
      std::make_unique<IvfIndex>(embeddings, packed, build));
  SnapshotRegistry registry;
  registry.Publish(snapshot);

  eval::EvalConfig exact_config;
  exact_config.top_n = 4;
  exact_config.retrieval = RetrievalMode::kExact;
  eval::EvalConfig ivf_config = exact_config;
  ivf_config.retrieval = RetrievalMode::kIVF;
  ivf_config.nprobe = static_cast<int>(snapshot->index()->num_centroids());

  const eval::EvalResult exact =
      EvaluateSpan(*registry.Current(), dataset, 1, exact_config);
  const eval::EvalResult ivf =
      EvaluateSpan(*registry.Current(), dataset, 1, ivf_config);
  EXPECT_EQ(exact.metrics.users, ivf.metrics.users);
  EXPECT_EQ(exact.metrics.hit_ratio, ivf.metrics.hit_ratio);
  EXPECT_EQ(exact.metrics.ndcg, ivf.metrics.ndcg);
  EXPECT_EQ(ivf.ivf.searches, ivf.metrics.users);
  EXPECT_EQ(exact.ivf.searches, 0);
}

TEST(IvfEdgeTest, SingleItemCorpus) {
  util::Rng rng(81);
  const nn::Tensor embeddings = nn::Tensor::Randn({1, 8}, rng);
  const IvfIndex index(embeddings, core::PackedInterests{},
                       IvfBuildConfig{});
  EXPECT_EQ(index.num_items(), 1);
  EXPECT_EQ(index.num_centroids(), 1);
  const std::vector<float> query(8, 0.5f);
  IvfIndex::Scratch scratch;
  std::vector<std::pair<data::ItemId, float>> top;
  index.SearchTopN({query.data(), 1, 8}, embeddings,
                   eval::ScoreRule::kAttentive, 10, 0, &scratch, &top);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].first, 0);
}

TEST(IvfEdgeTest, CentroidCountClampedToCorpusSize) {
  util::Rng rng(83);
  const nn::Tensor embeddings = nn::Tensor::Randn({10, 8}, rng);
  IvfBuildConfig config;
  config.num_centroids = 64;  // more centroids than items
  const IvfIndex index(embeddings, core::PackedInterests{}, config);
  EXPECT_EQ(index.num_centroids(), 10);
  // Every item still lands in exactly one list.
  EXPECT_EQ(index.list_items().size(), 10u);
  EXPECT_EQ(index.list_begin().back(), 10);
}

TEST(IvfEdgeTest, DuplicateEmbeddingsRankByAscendingId) {
  // All rows identical: k-means is fully degenerate, every approximate
  // score ties, and the stable tie-break must surface ascending ids with
  // the one shared exact score.
  nn::Tensor embeddings = nn::Tensor::Uninitialized({32, 4});
  for (int64_t i = 0; i < embeddings.numel(); ++i) {
    embeddings.data()[i] = 0.25f * static_cast<float>(1 + (i % 4));
  }
  const IvfIndex index(embeddings, core::PackedInterests{},
                       IvfBuildConfig{});
  const std::vector<float> query = {1.0f, -0.5f, 0.25f, 0.75f};
  IvfIndex::Scratch scratch;
  std::vector<std::pair<data::ItemId, float>> top;
  index.SearchTopN({query.data(), 1, 4}, embeddings,
                   eval::ScoreRule::kAttentive, 5,
                   static_cast<int>(index.num_centroids()), &scratch, &top);
  ASSERT_EQ(top.size(), 5u);
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(top[i].first, static_cast<data::ItemId>(i));
    EXPECT_EQ(top[i].second, top[0].second);
  }
}

TEST(IvfEdgeTest, ZeroNormRowsAndZeroQuery) {
  // Zero rows exercise the quantization scale guard (scale = 1 instead
  // of 0/127); an all-zero query must still retrieve without NaNs.
  util::Rng rng(89);
  nn::Tensor embeddings = nn::Tensor::Randn({24, 6}, rng);
  for (int64_t i = 0; i < 3; ++i) {
    std::fill_n(embeddings.data() + i * 6, 6, 0.0f);
  }
  const IvfIndex index(embeddings, core::PackedInterests{},
                       IvfBuildConfig{});
  for (int64_t i = 0; i < 3; ++i) {
    const std::vector<float> probe(6, 1.0f);
    EXPECT_EQ(index.ApproxDot(static_cast<data::ItemId>(i), probe.data()),
              0.0f);
  }
  const std::vector<float> query(6, 0.0f);
  IvfIndex::Scratch scratch;
  std::vector<std::pair<data::ItemId, float>> top;
  index.SearchTopN({query.data(), 1, 6}, embeddings,
                   eval::ScoreRule::kMaxInterest, 4,
                   static_cast<int>(index.num_centroids()), &scratch, &top);
  ASSERT_EQ(top.size(), 4u);
  for (const auto& entry : top) {
    EXPECT_FALSE(std::isnan(entry.second));
    EXPECT_EQ(entry.second, 0.0f);  // zero query scores every item 0
  }
}

TEST(IvfEdgeTest, SingleInterestUserMatchesOracle) {
  constexpr int64_t kDim = 12;
  const ClusteredCorpus corpus =
      MakeClusteredCorpus(600, kDim, /*num_clusters=*/10, /*seed=*/91);
  util::Rng rng(93);
  const std::vector<float> interests = MakeInterests(corpus, 1, rng);
  const IvfIndex index(corpus.embeddings,
                       PackInterests({interests}, kDim), IvfBuildConfig{});
  const nn::ConstMatrixView view{interests.data(), 1, kDim};
  IvfIndex::Scratch scratch;
  std::vector<std::pair<data::ItemId, float>> top;
  index.SearchTopN(view, corpus.embeddings, eval::ScoreRule::kAttentive,
                   10, static_cast<int>(index.num_centroids()), &scratch,
                   &top);
  // K=1 attentive == the raw dot; with a full probe the answer is exact
  // (min_rerank=64 >= top_n covers the cutoff).
  const auto oracle = BruteForceTopN(view, corpus.embeddings,
                                     eval::ScoreRule::kAttentive, 10);
  ASSERT_EQ(top.size(), oracle.size());
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(top[i].first, oracle[i].first);
    EXPECT_EQ(top[i].second, oracle[i].second);
  }
}

TEST(IvfEdgeTest, BuildIsBitwiseDeterministicAcrossThreadCounts) {
  constexpr int64_t kDim = 16;
  const ClusteredCorpus corpus =
      MakeClusteredCorpus(2000, kDim, /*num_clusters=*/14, /*seed=*/101);
  util::Rng rng(103);
  std::vector<std::vector<float>> users;
  for (int u = 0; u < 8; ++u) {
    users.push_back(MakeInterests(corpus, 1 + (u % 4), rng));
  }
  const core::PackedInterests seeds = PackInterests(users, kDim);
  IvfBuildConfig config_a;
  config_a.threads = 1;
  IvfBuildConfig config_b;
  config_b.threads = 4;
  const IvfIndex a(corpus.embeddings, seeds, config_a);
  const IvfIndex b(corpus.embeddings, seeds, config_b);
  ASSERT_EQ(a.num_centroids(), b.num_centroids());
  EXPECT_EQ(0, std::memcmp(a.centroids().data(), b.centroids().data(),
                           static_cast<size_t>(a.centroids().numel()) *
                               sizeof(float)));
  EXPECT_EQ(a.list_begin(), b.list_begin());
  EXPECT_EQ(a.list_items(), b.list_items());
  EXPECT_EQ(a.codes(), b.codes());
  EXPECT_EQ(0, std::memcmp(a.scales().data(), b.scales().data(),
                           a.scales().size() * sizeof(float)));
  EXPECT_NE(a.build_id(), b.build_id());  // stamps stay unique
}

TEST(IvfIndexTest, RetrievalModeNamesRoundTrip) {
  RetrievalMode mode = RetrievalMode::kIVF;
  std::string error;
  EXPECT_TRUE(RetrievalModeFromName("exact", &mode, &error));
  EXPECT_EQ(mode, RetrievalMode::kExact);
  EXPECT_TRUE(RetrievalModeFromName("ivf", &mode, &error));
  EXPECT_EQ(mode, RetrievalMode::kIVF);
  EXPECT_FALSE(RetrievalModeFromName("annoy", &mode, &error));
  EXPECT_NE(error.find("annoy"), std::string::npos);
  EXPECT_STREQ(RetrievalModeName(RetrievalMode::kExact), "exact");
  EXPECT_STREQ(RetrievalModeName(RetrievalMode::kIVF), "ivf");
}

}  // namespace
}  // namespace imsr::serve
