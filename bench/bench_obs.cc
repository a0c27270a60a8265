// google-benchmark suite for the obs layer itself: cost of a counter
// add, a histogram record, and a trace span on the hot path, in three
// regimes — macros compiled in with tracing off (the default production
// shape), tracing on, and (when built with -DIMSR_OBS=OFF) everything
// compiled out. Compare BM_MatMulTransB here against bench_micro_ops to
// confirm instrumentation does not perturb the numeric kernels.
#include <benchmark/benchmark.h>

#include "bench/bench_main.h"
#include "nn/ops.h"
#include "nn/tensor.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace {

using namespace imsr;  // NOLINT(build/namespaces)

void BM_CounterAdd(benchmark::State& state) {
  for (auto _ : state) {
    IMSR_COUNTER_ADD("bench/counter", 1);
  }
}
BENCHMARK(BM_CounterAdd);

void BM_GaugeSet(benchmark::State& state) {
  double v = 0.0;
  for (auto _ : state) {
    IMSR_GAUGE_SET("bench/gauge", v);
    v += 1.0;
  }
}
BENCHMARK(BM_GaugeSet);

void BM_HistogramRecord(benchmark::State& state) {
  double v = 0.0;
  for (auto _ : state) {
    IMSR_HISTOGRAM_RECORD("bench/histogram", v);
    v += 0.125;
    if (v > 4000.0) v = 0.0;
  }
}
BENCHMARK(BM_HistogramRecord);

void BM_TraceSpanDisabled(benchmark::State& state) {
  // Tracing not enabled: the span should collapse to one atomic load.
  obs::EnableTracing(false);
  for (auto _ : state) {
    IMSR_TRACE_SPAN("bench/span");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TraceSpanDisabled);

void BM_TraceSpanEnabled(benchmark::State& state) {
  obs::EnableTracing(true);
  for (auto _ : state) {
    IMSR_TRACE_SPAN("bench/span");
    benchmark::ClobberMemory();
  }
  obs::EnableTracing(false);
  obs::ClearTrace();
}
BENCHMARK(BM_TraceSpanEnabled);

// Same shape as bench_micro_ops BM_MatMulTransB(256): the acceptance
// reference for "instrumentation must not perturb the kernels".
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

}  // namespace

int main(int argc, char** argv) {
  return imsr::bench::RunBenchmarks(argc, argv);
}
