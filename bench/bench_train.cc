// Training-step micro benchmarks: the per-sample loss graph
// (build + value) and the full TrainEpoch inner loop (graph + backward +
// Adam step) over a fixed synthetic workload. BENCH_PR5.json at the repo
// root is the historical record of the memory-subsystem work (DESIGN.md
// §10); the repo benchmark (perfbench/, span_train) now measures the
// training loop end to end.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/imsr_trainer.h"
#include "data/sampler.h"
#include "data/synthetic.h"
#include "models/msr_model.h"

namespace {

using namespace imsr;  // NOLINT(build/namespaces)

// One self-contained training fixture: synthetic span-0 data, a ComiRec-DR
// model at paper-scale dimensions (d=32, K=4) and the IMSR trainer.
struct TrainFixture {
  explicit TrainFixture(int64_t dim = 32) {
    data::SyntheticConfig data_config;
    data_config.name = "bench";
    data_config.num_users = 64;
    data_config.num_items = 1000;
    data_config.num_categories = 12;
    data_config.pretrain_interactions_per_user = 30;
    data_config.span_interactions_per_user = 10;
    data_config.min_interactions = 5;
    data_config.seed = 17;
    synthetic = data::GenerateSynthetic(data_config);

    models::ModelConfig model_config;
    model_config.kind = models::ExtractorKind::kComiRecDr;
    model_config.embedding_dim = dim;
    model = std::make_unique<models::MsrModel>(
        model_config, synthetic.dataset->num_items(), /*seed=*/1);

    core::TrainConfig train_config;
    train_config.batch_size = 32;
    train_config.negatives = 10;
    train_config.initial_interests = 4;
    train_config.enable_expansion = false;
    train_config.seed = 5;
    trainer = std::make_unique<core::ImsrTrainer>(model.get(), &store,
                                                  train_config);
    trainer->EnsureUserState(*synthetic.dataset, /*span=*/0);
    samples = data::BuildSpanSamples(*synthetic.dataset, /*span=*/0,
                                     train_config.max_history);
  }

  data::SyntheticDataset synthetic;
  std::unique_ptr<models::MsrModel> model;
  core::InterestStore store;
  std::unique_ptr<core::ImsrTrainer> trainer;
  std::vector<data::TrainingSample> samples;
};

void BM_SampleLoss(benchmark::State& state) {
  // Forward graph construction + loss value for one sample — the unit the
  // autograd arena is sized around.
  TrainFixture fixture(state.range(0));
  const data::TrainingSample& sample = fixture.samples.front();
  for (auto _ : state) {
    nn::Var loss = fixture.trainer->SampleLoss(sample, nullptr);
    benchmark::DoNotOptimize(loss.value().item());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SampleLoss)->Arg(32)->Arg(64);

void BM_TrainEpochStep(benchmark::State& state) {
  // The steady-state optimizer loop: per iteration one TrainEpoch over a
  // fixed sample set (batch 32 -> samples/32 optimizer steps). Items
  // processed = training samples, so items/s is sample throughput.
  TrainFixture fixture(state.range(0));
  // Warm up once so lazily created state (Adam moments, scratch, arena
  // blocks) exists before the timed region.
  fixture.trainer->TrainEpoch(fixture.samples, nullptr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fixture.trainer->TrainEpoch(fixture.samples, nullptr));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fixture.samples.size()));
}
BENCHMARK(BM_TrainEpochStep)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_TrainEpochStepWithTeacher(benchmark::State& state) {
  // BM_TrainEpochStep with the EIR retention term (Eq. 10) on every
  // sample: the teacher is a snapshot taken after the warm-up epoch, as
  // TrainSpan snapshots the previous span's model, so it covers every
  // user and differs from the student being trained.
  TrainFixture fixture(state.range(0));
  fixture.trainer->TrainEpoch(fixture.samples, nullptr);
  const core::TeacherSnapshot teacher =
      fixture.trainer->SnapshotTeacher(*fixture.synthetic.dataset, 0);
  fixture.trainer->TrainEpoch(fixture.samples, &teacher);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fixture.trainer->TrainEpoch(fixture.samples, &teacher));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fixture.samples.size()));
}
BENCHMARK(BM_TrainEpochStepWithTeacher)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_ValidationLoss(benchmark::State& state) {
  // Eval-only forward over the span's validation items — the no-grad
  // guard's target (no tape should be built here).
  TrainFixture fixture(32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fixture.trainer->ValidationLoss(*fixture.synthetic.dataset, 0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ValidationLoss)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
