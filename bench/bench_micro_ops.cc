// google-benchmark micro suite for the substrate: the hot operations of
// the MSR stack (matmul, softmax, squash, B2I routing, SA attention,
// PIT projection, full-corpus ranking, puzzlement) — useful for spotting
// regressions in the numeric kernels.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench/bench_main.h"
#include "core/nid.h"
#include "core/pit.h"
#include "eval/ranker.h"
#include "models/capsule_routing.h"
#include "models/comirec_sa.h"
#include "nn/ops.h"
#include "nn/tensor.h"
#include "util/parallel.h"
#include "util/thread_pool.h"

namespace {

using namespace imsr;  // NOLINT(build/namespaces)

void BM_MatMul(benchmark::State& state) {
  util::Rng rng(1);
  const auto n = static_cast<int64_t>(state.range(0));
  const nn::Tensor a = nn::Tensor::Randn({n, 32}, rng);
  const nn::Tensor b = nn::Tensor::Randn({32, 32}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MatMul)->Arg(16)->Arg(64)->Arg(256);

void BM_MatMulTransB(benchmark::State& state) {
  util::Rng rng(1);
  const auto n = static_cast<int64_t>(state.range(0));
  const nn::Tensor a = nn::Tensor::Randn({n, 32}, rng);
  const nn::Tensor b = nn::Tensor::Randn({32, 32}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::MatMulTransB(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MatMulTransB)->Arg(16)->Arg(64)->Arg(256);

void BM_ParallelFor_overhead(benchmark::State& state) {
  // Dispatch cost of the persistent pool: a near-empty body over `count`
  // elements, chunked with the default grain.
  const auto count = static_cast<int64_t>(state.range(0));
  std::vector<float> sink(static_cast<size_t>(count), 0.0f);
  util::ThreadPool& pool = util::GlobalPool();
  for (auto _ : state) {
    pool.ParallelFor(count, 0, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) {
        sink[static_cast<size_t>(i)] += 1.0f;
      }
    });
    benchmark::DoNotOptimize(sink.data());
  }
  state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_ParallelFor_overhead)->Arg(1)->Arg(1024)->Arg(65536);

void BM_SoftmaxRows(benchmark::State& state) {
  util::Rng rng(2);
  const nn::Tensor a = nn::Tensor::Randn({state.range(0), 8}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::Softmax(a));
  }
}
BENCHMARK(BM_SoftmaxRows)->Arg(64)->Arg(1024);

void BM_SquashRows(benchmark::State& state) {
  util::Rng rng(3);
  const nn::Tensor a = nn::Tensor::Randn({state.range(0), 32}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::SquashRows(a));
  }
}
BENCHMARK(BM_SquashRows)->Arg(8)->Arg(64);

void BM_B2IRouting(benchmark::State& state) {
  util::Rng rng(4);
  const auto n = static_cast<int64_t>(state.range(0));
  const nn::Tensor e_hat = nn::Tensor::Randn({n, 32}, rng);
  const nn::Tensor init = nn::Tensor::Randn({6, 32}, rng);
  const models::RoutingConfig config{3, 0.0f};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        models::B2IRouting(e_hat, init, config, nullptr));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_B2IRouting)->Arg(20)->Arg(50)->Arg(200);

void BM_SelfAttentionForward(benchmark::State& state) {
  util::Rng rng(5);
  models::SelfAttentionExtractor extractor(32, 32, rng);
  extractor.EnsureUserCapacity(0, 6, rng, nullptr);
  const nn::Tensor items =
      nn::Tensor::Randn({state.range(0), 32}, rng);
  const nn::Tensor init = nn::Tensor::Randn({6, 32}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.ForwardNoGrad(items, init, 0));
  }
}
BENCHMARK(BM_SelfAttentionForward)->Arg(20)->Arg(50);

void BM_PitProjectAndTrim(benchmark::State& state) {
  util::Rng rng(6);
  const nn::Tensor interests =
      nn::Tensor::Randn({state.range(0), 32}, rng);
  const core::PitConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::ProjectAndTrim(interests, state.range(0) - 3, config));
  }
}
BENCHMARK(BM_PitProjectAndTrim)->Arg(7)->Arg(12);

void BM_Puzzlement(benchmark::State& state) {
  util::Rng rng(7);
  const nn::Tensor items = nn::Tensor::Randn({state.range(0), 32}, rng);
  const nn::Tensor interests = nn::Tensor::Randn({6, 32}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::MeanAssignmentKl(items, interests));
  }
}
BENCHMARK(BM_Puzzlement)->Arg(12)->Arg(50);

void BM_FullCorpusRanking(benchmark::State& state) {
  util::Rng rng(8);
  const auto items = static_cast<int64_t>(state.range(0));
  const nn::Tensor table = nn::Tensor::Randn({items, 32}, rng);
  const nn::Tensor interests = nn::Tensor::Randn({6, 32}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval::TargetRank(
        interests, table, 7, eval::ScoreRule::kAttentive));
  }
  state.SetItemsProcessed(state.iterations() * items);
}
BENCHMARK(BM_FullCorpusRanking)->Arg(1000)->Arg(4000);

void BM_RankAllUsers(benchmark::State& state) {
  // Brute-force ranking sweep: every user's interests score the whole
  // item table (the oracle the served and evaluated top-N are tested
  // against), batched over the persistent pool with per-chunk scratch
  // reuse.
  util::Rng rng(10);
  constexpr int64_t kUsers = 64;
  constexpr int64_t kInterests = 6;
  const auto items = static_cast<int64_t>(state.range(0));
  const nn::Tensor table = nn::Tensor::Randn({items, 32}, rng);
  std::vector<nn::Tensor> interests;
  interests.reserve(kUsers);
  for (int64_t u = 0; u < kUsers; ++u) {
    interests.push_back(nn::Tensor::Randn({kInterests, 32}, rng));
  }
  std::vector<int64_t> ranks(kUsers, 0);
  for (auto _ : state) {
    util::ParallelChunks(kUsers, 0, [&](int64_t begin, int64_t end) {
      eval::RankScratch scratch;
      for (int64_t u = begin; u < end; ++u) {
        eval::ScoreAllItemsInto(interests[static_cast<size_t>(u)], table,
                                eval::ScoreRule::kAttentive, &scratch);
        ranks[static_cast<size_t>(u)] =
            eval::TargetRankFromScores(scratch.scores, u % items);
      }
    });
    benchmark::DoNotOptimize(ranks.data());
  }
  state.SetItemsProcessed(state.iterations() * kUsers * items);
}
BENCHMARK(BM_RankAllUsers)->Arg(1000)->Arg(4000);

void BM_AutogradTrainingStep(benchmark::State& state) {
  // One representative sample graph: gather -> routing extract -> Eq.5
  // aggregate -> sampled softmax -> backward.
  util::Rng rng(9);
  nn::Var table(nn::Tensor::Randn({1000, 32}, rng), true);
  nn::Var transform(nn::Tensor::Randn({32, 32}, rng), true);
  const nn::Tensor init = nn::Tensor::Randn({4, 32}, rng);
  std::vector<int64_t> history(20);
  for (auto& h : history) h = static_cast<int64_t>(rng.NextBelow(1000));
  std::vector<int64_t> candidates(11);
  for (auto& c : candidates) c = static_cast<int64_t>(rng.NextBelow(1000));
  const models::RoutingConfig config{3, 0.0f};
  for (auto _ : state) {
    nn::Var items = nn::ops::GatherRows(table, history);
    nn::Var e_hat = nn::ops::MatMul(items, transform);
    const nn::Tensor coupling =
        models::B2IRouting(e_hat.value(), init, config, nullptr);
    nn::Var interests = nn::ops::SquashRows(
        nn::ops::MatMul(nn::Var(nn::Transpose(coupling)), e_hat));
    nn::Var cands = nn::ops::GatherRows(table, candidates);
    nn::Var target = nn::ops::RowVector(cands, 0);
    nn::Var beta = nn::ops::Softmax(nn::ops::MatVec(interests, target));
    nn::Var v = nn::ops::MatVec(nn::ops::Transpose(interests), beta);
    nn::Var loss =
        nn::ops::NegLogSoftmax(nn::ops::MatVec(cands, v), 0);
    loss.Backward();
    table.ZeroGrad();
    transform.ZeroGrad();
    benchmark::DoNotOptimize(loss.value().item());
  }
}
BENCHMARK(BM_AutogradTrainingStep);

}  // namespace

int main(int argc, char** argv) {
  return imsr::bench::RunBenchmarks(argc, argv);
}
