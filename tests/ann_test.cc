// Oracle gate for the IVF approximate-retrieval subsystem
// (serve/ivf_index.h, DESIGN.md §13). Every approximation is bounded
// against the brute-force path it replaces:
//
//  * recall@N of IVF vs full-corpus scoring at the default nprobe, across
//    snapshot sizes, build thread counts and score rules;
//  * full-probe + full-re-rank IVF is bitwise identical to brute force;
//  * partial-probe IVF (answer and stats) is bitwise identical to a
//    per-item scalar reference scan, over ragged and empty lists and
//    equal approximate scores straddling the shortlist cut;
//  * the blocked int8 scan kernel equals a scalar int32 loop;
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
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "core/interest_store.h"
#include "eval/evaluator.h"
#include "eval/ranker.h"
#include "nn/tensor.h"
#include "obs/obs.h"
#include "serve/ivf_index.h"
#include "serve/recommend.h"
#include "serve/registry.h"
#include "serve/snapshot.h"
#include "util/rng.h"
#include "util/thread_pool.h"

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
    const int original_threads = util::GlobalThreadCount();
    for (const int threads : {1, 4}) {
      util::SetGlobalThreadCount(threads);
      const IvfIndex index(corpus.embeddings, seeds, IvfBuildConfig{});
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
    util::SetGlobalThreadCount(original_threads);
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
  // The build fans out over the whole process-wide pool: build once on
  // one thread and once on four.
  const int original_threads = util::GlobalThreadCount();
  util::SetGlobalThreadCount(1);
  const IvfIndex a(corpus.embeddings, seeds, IvfBuildConfig{});
  util::SetGlobalThreadCount(4);
  const IvfIndex b(corpus.embeddings, seeds, IvfBuildConfig{});
  util::SetGlobalThreadCount(original_threads);
  ASSERT_EQ(a.num_centroids(), b.num_centroids());
  EXPECT_EQ(0, std::memcmp(a.centroids().data(), b.centroids().data(),
                           static_cast<size_t>(a.centroids().numel()) *
                               sizeof(float)));
  EXPECT_EQ(a.list_begin(), b.list_begin());
  EXPECT_EQ(a.list_items(), b.list_items());
  // Codes sit in whole 16-row blocks; the padding rows past the last
  // item are zero, so both builds agree on every byte.
  const int64_t num_blocks =
      (a.num_items() + kCodeBlockRows - 1) / kCodeBlockRows;
  ASSERT_EQ(a.codes().size(),
            static_cast<size_t>(num_blocks * kCodeBlockRows * kDim));
  for (int64_t p = a.num_items(); p < num_blocks * kCodeBlockRows; ++p) {
    for (int64_t t = 0; t < kDim; ++t) {
      EXPECT_EQ(a.codes()[static_cast<size_t>(
                    (p / kCodeBlockRows) * kCodeBlockRows * kDim +
                    t * kCodeBlockRows + p % kCodeBlockRows)],
                0);
    }
  }
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

// --- Blocked scan vs a per-item scalar reference --------------------------

// Code of list position p, dimension t, in IvfIndex::codes()'s blocked
// layout.
int8_t BlockedCode(const std::vector<int8_t>& codes, int64_t dim,
                   int64_t p, int64_t t) {
  return codes[static_cast<size_t>(
      (p / kCodeBlockRows) * kCodeBlockRows * dim + t * kCodeBlockRows +
      p % kCodeBlockRows)];
}

// Random int8 code in [-127, 127].
int8_t RandomCode(util::Rng& rng) {
  return static_cast<int8_t>(static_cast<int>(rng.NextBelow(255)) - 127);
}

// The blocked kernel's int32 sums are exact, so they must equal a scalar
// loop bit for bit: across widths that are and are not multiples of the
// lane count (130 spans several of the kernel's int32 strips), row counts
// that end mid-block, K that is and is not a multiple of the kernel's
// query tile, and codes pinned at +-127 (the largest products).
TEST(IvfScanKernelTest, BlockedDotsMatchScalarInt32Reference) {
  util::Rng rng(7);
  for (const int64_t dim : {1, 5, 16, 32, 33, 64, 130}) {
    for (const int64_t rows : {1, 15, 16, 17, 1000}) {
      for (const int64_t k : {1, 3, 4, 5, 12}) {
        const int64_t num_blocks =
            (rows + kCodeBlockRows - 1) / kCodeBlockRows;
        std::vector<int8_t> row_codes(static_cast<size_t>(rows * dim));
        std::vector<int8_t> blocks(
            static_cast<size_t>(num_blocks * kCodeBlockRows * dim), 0);
        for (int64_t r = 0; r < rows; ++r) {
          for (int64_t t = 0; t < dim; ++t) {
            // Every third row is all +127, every third all -127.
            const int8_t code = r % 3 == 0   ? int8_t{127}
                                : r % 3 == 1 ? int8_t{-127}
                                             : RandomCode(rng);
            row_codes[static_cast<size_t>(r * dim + t)] = code;
            blocks[static_cast<size_t>(
                (r / kCodeBlockRows) * kCodeBlockRows * dim +
                t * kCodeBlockRows + r % kCodeBlockRows)] = code;
          }
        }
        std::vector<int8_t> queries(static_cast<size_t>(k * dim));
        for (int64_t j = 0; j < k; ++j) {
          for (int64_t t = 0; t < dim; ++t) {
            queries[static_cast<size_t>(j * dim + t)] =
                j % 2 == 0 ? int8_t{127} : RandomCode(rng);
          }
        }
        std::vector<int32_t> dots(
            static_cast<size_t>(num_blocks * kCodeBlockRows * k), -1);
        DotCodeBlocks(blocks.data(), num_blocks, dim, queries.data(), k,
                      dots.data());
        int64_t mismatches = 0;
        for (int64_t r = 0; r < num_blocks * kCodeBlockRows; ++r) {
          for (int64_t j = 0; j < k; ++j) {
            int32_t want = 0;
            for (int64_t t = 0; r < rows && t < dim; ++t) {
              want += static_cast<int32_t>(
                          row_codes[static_cast<size_t>(r * dim + t)]) *
                      static_cast<int32_t>(
                          queries[static_cast<size_t>(j * dim + t)]);
            }
            mismatches += dots[static_cast<size_t>(r * k + j)] != want;
          }
        }
        EXPECT_EQ(mismatches, 0)
            << "dim=" << dim << " rows=" << rows << " k=" << k;
      }
    }
  }
}

// IvfIndex's query quantization, restated: scale = maxabs / 127 (1 for
// a zero row), code = round(x / scale) clamped to [-127, 127].
float QuantizeForTest(const float* row, int64_t n, int8_t* codes) {
  float maxabs = 0.0f;
  for (int64_t i = 0; i < n; ++i) maxabs = std::max(maxabs, std::fabs(row[i]));
  const float scale = maxabs > 0.0f ? maxabs / 127.0f : 1.0f;
  for (int64_t i = 0; i < n; ++i) {
    codes[i] = static_cast<int8_t>(
        std::clamp<long>(std::lroundf(row[i] / scale), -127, 127));
  }
  return scale;
}

// The per-item search SearchTopN's list-level scan replaced: probes as
// the index does, then a visited set per item, a scalar int8 dot per
// candidate and interest, a partial_sort of every candidate for the
// shortlist, and the brute-force score of each shortlisted item for the
// re-rank. No bound, no blocks, no accumulator.
std::vector<std::pair<data::ItemId, float>> ReferenceSearch(
    const IvfIndex& index, nn::ConstMatrixView interests,
    const nn::Tensor& embeddings, eval::ScoreRule rule, int top_n,
    int nprobe, IvfSearchStats* stats) {
  const int64_t dim = index.dim();
  const int64_t k = interests.rows;
  const int64_t num_centroids = index.num_centroids();
  const int64_t probes = nprobe > 0
                             ? std::min<int64_t>(nprobe, num_centroids)
                             : index.default_nprobe();
  std::vector<int8_t> query_codes(static_cast<size_t>(k * dim));
  std::vector<float> query_scales(static_cast<size_t>(k));
  for (int64_t j = 0; j < k; ++j) {
    query_scales[static_cast<size_t>(j)] = QuantizeForTest(
        interests.data + j * dim, dim, query_codes.data() + j * dim);
  }
  *stats = IvfSearchStats{};
  std::vector<bool> visited(static_cast<size_t>(index.num_items()), false);
  std::vector<data::ItemId> candidates;
  std::vector<float> approx;
  std::vector<float> row(static_cast<size_t>(k));
  std::vector<float> centroid_scores(static_cast<size_t>(num_centroids));
  std::vector<int32_t> order(static_cast<size_t>(num_centroids));
  for (int64_t j = 0; j < k; ++j) {
    for (int64_t c = 0; c < num_centroids; ++c) {
      centroid_scores[static_cast<size_t>(c)] =
          nn::DotSpan(interests.data + j * dim,
                      index.centroids().data() + c * dim, dim);
    }
    std::iota(order.begin(), order.end(), 0);
    std::partial_sort(order.begin(), order.begin() + probes, order.end(),
                      [&](int32_t a, int32_t b) {
                        return eval::RanksBefore(
                            a, centroid_scores[static_cast<size_t>(a)], b,
                            centroid_scores[static_cast<size_t>(b)]);
                      });
    for (int64_t t = 0; t < probes; ++t) {
      const size_t list = static_cast<size_t>(order[static_cast<size_t>(t)]);
      ++stats->probes;
      for (int64_t p = index.list_begin()[list];
           p < index.list_begin()[list + 1]; ++p) {
        const data::ItemId item = index.list_items()[static_cast<size_t>(p)];
        if (visited[static_cast<size_t>(item)]) continue;
        visited[static_cast<size_t>(item)] = true;
        for (int64_t jj = 0; jj < k; ++jj) {
          int32_t dot = 0;
          for (int64_t tt = 0; tt < dim; ++tt) {
            dot += static_cast<int32_t>(
                       BlockedCode(index.codes(), dim, p, tt)) *
                   static_cast<int32_t>(
                       query_codes[static_cast<size_t>(jj * dim + tt)]);
          }
          row[static_cast<size_t>(jj)] =
              index.scales()[static_cast<size_t>(p)] *
              query_scales[static_cast<size_t>(jj)] *
              static_cast<float>(dot);
        }
        candidates.push_back(item);
        approx.push_back(eval::ScoreFromLogits(row.data(), k, rule));
      }
    }
  }
  stats->shortlist = static_cast<int64_t>(candidates.size());
  const int64_t rerank = std::min<int64_t>(
      stats->shortlist,
      std::max<int64_t>(static_cast<int64_t>(top_n) * index.rerank_factor(),
                        index.min_rerank()));
  std::vector<size_t> selected(candidates.size());
  std::iota(selected.begin(), selected.end(), size_t{0});
  std::partial_sort(selected.begin(), selected.begin() + rerank,
                    selected.end(), [&](size_t a, size_t b) {
                      return eval::RanksBefore(candidates[a], approx[a],
                                               candidates[b], approx[b]);
                    });
  eval::RankScratch exact;
  ScoreAllItemsInto(interests, embeddings, rule, &exact);
  std::vector<std::pair<data::ItemId, float>> top;
  for (int64_t r = 0; r < rerank; ++r) {
    const data::ItemId item = candidates[selected[static_cast<size_t>(r)]];
    top.emplace_back(item, exact.scores[static_cast<size_t>(item)]);
  }
  const int64_t keep = std::min<int64_t>(top_n, rerank);
  std::partial_sort(top.begin(), top.begin() + keep, top.end(),
                    [](const auto& a, const auto& b) {
                      return eval::RanksBefore(a.first, a.second, b.first,
                                               b.second);
                    });
  top.resize(static_cast<size_t>(keep));
  stats->reranked = rerank;
  return top;
}

// Memcmps SearchTopN (answer and stats) against ReferenceSearch for every
// user x rule x top_n {1, 20, 100} x nprobe {1, 2, default} at the
// default re-rank depth.
void ExpectSearchMatchesReference(
    const IvfIndex& index, const nn::Tensor& embeddings,
    const std::vector<std::vector<float>>& users, const char* corpus) {
  IvfIndex::Scratch scratch;
  std::vector<std::pair<data::ItemId, float>> top;
  for (const eval::ScoreRule rule :
       {eval::ScoreRule::kAttentive, eval::ScoreRule::kMaxInterest}) {
    for (const int top_n : {1, 20, 100}) {
      for (const int nprobe : {1, 2, 0}) {
        for (size_t u = 0; u < users.size(); ++u) {
          const nn::ConstMatrixView interests{
              users[u].data(),
              static_cast<int64_t>(users[u].size()) / index.dim(),
              index.dim()};
          IvfSearchStats stats;
          index.SearchTopN(interests, embeddings, rule, top_n, nprobe,
                           &scratch, &top, &stats);
          IvfSearchStats want_stats;
          const auto want = ReferenceSearch(index, interests, embeddings,
                                            rule, top_n, nprobe,
                                            &want_stats);
          const std::string where =
              std::string(corpus) + " rule=" + ScoreRuleName(rule) +
              " top_n=" + std::to_string(top_n) +
              " nprobe=" + std::to_string(nprobe) +
              " user=" + std::to_string(u) +
              " k=" + std::to_string(interests.rows);
          EXPECT_EQ(0, std::memcmp(&stats, &want_stats, sizeof(stats)))
              << where << ": probes " << stats.probes << "/"
              << want_stats.probes << " shortlist " << stats.shortlist
              << "/" << want_stats.shortlist << " reranked "
              << stats.reranked << "/" << want_stats.reranked;
          ASSERT_EQ(top.size(), want.size()) << where;
          EXPECT_TRUE(want.empty() ||
                      std::memcmp(top.data(), want.data(),
                                  want.size() * sizeof(want[0])) == 0)
              << where;
        }
      }
    }
  }
}

// Ragged lists: every list length is whatever k-means gives (most are
// not multiples of 16), far-off seed rows leave lists empty — and, being
// long vectors, the probe picks them first — and every row appears three
// times, so equal approximate scores straddle the shortlist cut and only
// item ids settle it.
TEST(IvfOracleTest, PartialProbeMatchesPerItemReferenceBitwise) {
  constexpr int64_t kDim = 12;
  constexpr int64_t kDistinct = 233;
  const ClusteredCorpus base =
      MakeClusteredCorpus(kDistinct, kDim, /*num_clusters=*/18, /*seed=*/131);
  nn::Tensor embeddings = nn::Tensor::Uninitialized({3 * kDistinct, kDim});
  for (int64_t copy = 0; copy < 3; ++copy) {
    std::copy_n(base.embeddings.data(), base.embeddings.numel(),
                embeddings.data() + copy * kDistinct * kDim);
  }
  util::Rng rng(137);
  std::vector<std::vector<float>> users;
  for (int64_t k = 1; k <= 12; ++k) {
    users.push_back(MakeInterests(base, k, rng));
    users.push_back(MakeInterests(base, k, rng));
  }
  std::vector<std::vector<float>> seed_users = users;
  for (int64_t c = 0; c < 4; ++c) {
    std::vector<float> far(base.centers.data() + c * kDim,
                           base.centers.data() + (c + 1) * kDim);
    for (float& x : far) x *= 40.0f;
    seed_users.push_back(far);
  }
  IvfBuildConfig config;
  config.num_centroids = 40;
  const IvfIndex index(embeddings, PackInterests(seed_users, kDim), config);

  int empty = 0;
  int ragged = 0;
  for (int64_t c = 0; c < index.num_centroids(); ++c) {
    const int64_t size = index.list_begin()[static_cast<size_t>(c + 1)] -
                         index.list_begin()[static_cast<size_t>(c)];
    empty += size == 0;
    ragged += size % kCodeBlockRows != 0;
  }
  ASSERT_GT(empty, 0);
  ASSERT_GT(ragged, 0);
  ExpectSearchMatchesReference(index, embeddings, users, "ragged");
}

// A tie group that spans lists: 192 items share one payload and differ
// only in a "selector" coordinate every query leaves at zero, so they get
// equal approximate (and exact) scores while k-means spreads them over
// several lists, their ids interleaved. Users whose K interest rows are
// identical give every group item K equal logits, whose attentive score
// can round above the max logit: there the strict bound with its
// rounding slack is what lets a later, lower-id group member displace
// the shortlist's worst entry.
TEST(IvfOracleTest, TieGroupAcrossListsMatchesPerItemReferenceBitwise) {
  constexpr int64_t kDim = 10;
  constexpr int64_t kSelectors = 3;
  constexpr int64_t kGroup = 192;
  constexpr int64_t kNumItems = 600;
  util::Rng rng(151);
  std::vector<float> payload(static_cast<size_t>(kDim), 0.0f);
  for (int64_t t = kSelectors; t < kDim; ++t) {
    payload[static_cast<size_t>(t)] =
        0.5f * static_cast<float>(rng.NextGaussian());
  }
  const ClusteredCorpus background =
      MakeClusteredCorpus(kNumItems - kGroup, kDim, /*num_clusters=*/8,
                          /*seed=*/157);
  nn::Tensor embeddings = nn::Tensor::Uninitialized({kNumItems, kDim});
  for (int64_t i = 0; i < kGroup; ++i) {
    float* row = embeddings.data() + i * kDim;
    std::copy(payload.begin(), payload.end(), row);
    // Six directions, id-interleaved; |selector| = 2 is every row's max,
    // so the whole group shares one quantization scale.
    row[(i % 6) / 2] = i % 2 == 0 ? 2.0f : -2.0f;
  }
  std::copy_n(background.embeddings.data(), background.embeddings.numel(),
              embeddings.data() + kGroup * kDim);
  // Background rows are shrunk so the group outscores them and the
  // shortlist cut falls inside the group.
  for (int64_t i = kGroup * kDim; i < kNumItems * kDim; ++i) {
    embeddings.data()[i] *= 0.2f;
  }
  std::vector<std::vector<float>> users;
  for (int64_t k = 1; k <= 12; ++k) {
    for (int variant = 0; variant < 3; ++variant) {
      std::vector<float> rows(static_cast<size_t>(k * kDim), 0.0f);
      const float stretch = 1.0f + 0.0173f * static_cast<float>(
                                                 3 * k + variant);
      for (int64_t j = 0; j < k; ++j) {
        for (int64_t t = kSelectors; t < kDim; ++t) {
          rows[static_cast<size_t>(j * kDim + t)] =
              stretch * payload[static_cast<size_t>(t)];
        }
      }
      if (variant == 2 && k > 1) {  // one row off toward the background
        for (int64_t t = kSelectors; t < kDim; ++t) {
          rows[static_cast<size_t>(t)] = background.centers.data()[t];
        }
      }
      users.push_back(rows);
    }
  }
  IvfBuildConfig config;
  config.num_centroids = 14;
  const IvfIndex index(embeddings, core::PackedInterests{}, config);

  std::set<int64_t> group_lists;
  for (int64_t c = 0; c < index.num_centroids(); ++c) {
    for (int64_t p = index.list_begin()[static_cast<size_t>(c)];
         p < index.list_begin()[static_cast<size_t>(c + 1)]; ++p) {
      if (index.list_items()[static_cast<size_t>(p)] < kGroup) {
        group_lists.insert(c);
      }
    }
  }
  ASSERT_GE(group_lists.size(), 2u);
  ExpectSearchMatchesReference(index, embeddings, users, "tie-group");
}

// serve/ivf_scan_rows_{reduced,skipped} split the shortlist: every
// scanned row is either reduced (its bound reached the shortlist's
// threshold) or skipped. Both are obs-only.
TEST(IvfObsTest, ScanRowCountersSplitTheShortlist) {
  constexpr int64_t kDim = 16;
  const ClusteredCorpus corpus =
      MakeClusteredCorpus(4096, kDim, /*num_clusters=*/24, /*seed=*/163);
  util::Rng rng(167);
  const std::vector<float> interests = MakeInterests(corpus, 3, rng);
  const IvfIndex index(corpus.embeddings, core::PackedInterests{},
                       IvfBuildConfig{});
  IvfIndex::Scratch scratch;
  std::vector<std::pair<data::ItemId, float>> top;
  IvfSearchStats stats;
  const auto search = [&] {
    index.SearchTopN({interests.data(), 3, kDim}, corpus.embeddings,
                     eval::ScoreRule::kAttentive, 5,
                     static_cast<int>(index.num_centroids()), &scratch,
                     &top, &stats);
  };
#if !defined(IMSR_OBS_DISABLED)
  auto counter = [](const char* name) {
    return obs::Registry().GetCounter(name).value();
  };
  const int64_t reduced = counter("serve/ivf_scan_rows_reduced");
  const int64_t skipped = counter("serve/ivf_scan_rows_skipped");
  search();
  const int64_t search_reduced =
      counter("serve/ivf_scan_rows_reduced") - reduced;
  const int64_t search_skipped =
      counter("serve/ivf_scan_rows_skipped") - skipped;
  EXPECT_EQ(stats.shortlist, 4096);
  EXPECT_EQ(search_reduced + search_skipped, stats.shortlist);
  EXPECT_GE(search_reduced, stats.reranked);
  EXPECT_GT(search_skipped, stats.shortlist / 2);
#else
  search();
  for (const obs::CounterSnapshot& c : obs::Registry().Snapshot().counters) {
    EXPECT_NE(c.name, "serve/ivf_scan_rows_reduced");
    EXPECT_NE(c.name, "serve/ivf_scan_rows_skipped");
  }
#endif
  EXPECT_EQ(top.size(), 5u);
}

}  // namespace
}  // namespace imsr::serve
