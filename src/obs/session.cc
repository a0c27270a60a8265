#include "obs/session.h"

#include <chrono>
#include <cstdio>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/csv.h"
#include "util/flags.h"

namespace imsr::obs {

void RegisterObsFlags(util::FlagSet* flags) {
  flags->AddString("metrics_out", "",
                   "write the metrics registry here at exit (.json or .csv)");
  flags->AddString("trace_out", "",
                   "write a chrome://tracing trace here at exit");
  flags->AddDouble("metrics_interval", 0.0,
                   "rewrite --metrics_out every N seconds while running");
}

ObsOptions ObsOptionsFromFlags(const util::FlagSet& flags) {
  ObsOptions options;
  options.metrics_out = flags.GetString("metrics_out");
  options.trace_out = flags.GetString("trace_out");
  options.metrics_interval_seconds = flags.GetDouble("metrics_interval");
  return options;
}

ObsSession::ObsSession(ObsOptions options) : options_(std::move(options)) {
  if (!options_.trace_out.empty()) EnableTracing(true);
  // Any configured export is kept live: the trace writer works from a
  // snapshot (it does not drain), so rewriting it each interval is safe
  // and means a killed run still leaves files current to the last tick.
  if (options_.active() && options_.metrics_interval_seconds > 0.0) {
    flusher_ = std::thread([this] {
      const auto interval = std::chrono::duration<double>(
          options_.metrics_interval_seconds);
      std::unique_lock<std::mutex> lock(mutex_);
      while (!stop_cv_.wait_for(lock, interval, [this] { return stop_; })) {
        lock.unlock();
        Flush();
        lock.lock();
      }
    });
  }
}

ObsSession::~ObsSession() {
  if (flusher_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    stop_cv_.notify_all();
    flusher_.join();
  }
  if (!options_.active()) return;
  // Final flush after the flusher has stopped: whatever accumulated since
  // the last periodic tick (the partial interval) reaches the files.
  Flush();
  if (!options_.trace_out.empty()) EnableTracing(false);
  std::printf("%s", MetricsSummaryTable().c_str());
}

void ObsSession::Flush() {
  if (!options_.metrics_out.empty()) FlushMetrics();
  if (!options_.trace_out.empty()) FlushTrace();
}

void ObsSession::FlushMetrics() {
  std::string error;
  if (!WriteMetricsFile(options_.metrics_out, Registry().Snapshot(),
                        &error)) {
    std::fprintf(stderr, "obs: %s\n", error.c_str());
  }
}

void ObsSession::FlushTrace() {
  std::string error;
  if (!WriteChromeTrace(options_.trace_out, &error)) {
    std::fprintf(stderr, "obs: %s\n", error.c_str());
  }
}

std::string MetricsSummaryTable() {
  const MetricsSnapshot snapshot = Registry().Snapshot();
  if (snapshot.empty()) return "";
  util::Table table({"metric", "kind", "value"});
  for (const CounterSnapshot& c : snapshot.counters) {
    table.AddRow({c.name, "counter", std::to_string(c.value)});
  }
  for (const GaugeSnapshot& g : snapshot.gauges) {
    table.AddRow({g.name, "gauge", util::FormatDouble(g.value, 4)});
  }
  for (const HistogramSnapshot& h : snapshot.histograms) {
    const double mean =
        h.count > 0 ? h.sum / static_cast<double>(h.count) : 0.0;
    table.AddRow({h.name, "histogram",
                  "n=" + std::to_string(h.count) +
                      " mean=" + util::FormatDouble(mean, 4) +
                      " max=" + util::FormatDouble(h.max, 4)});
  }
  return table.ToPrettyString();
}

}  // namespace imsr::obs
