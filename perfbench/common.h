// Shared pieces of the repository benchmark: run options, the result
// record every workload fills, order statistics, and the span tracer.
//
// The tracer records spans from the benchmark's own code around calls into
// the library's public functions (no instrumentation inside the program).
// A layer's self time is its span's duration minus the time its child
// spans cover; the per-layer report sums self time by span name.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // "full" or "smoke": smoke shrinks every size so a workload ends in
  // seconds while running the same code paths and output checks.
  std::string size = "full";
  int threads = 1;         // process-wide pool size
  double hot_rate = 0.0;   // open-loop offered rates, requests/s
  double cold_rate = 0.0;
  double stream_rate = 0.0;
  double span_rate = 0.0;
  double beside_rate = 0.0;  // the reader beside training
  double event_rate = 0.0;   // stream_live's event arrivals, events/s
  std::string socket_dir = ".bench_build";
  bool smoke() const { return size == "smoke"; }
};

// Everything a workload reports. run.py selects the metrics BENCHMARK.json
// declares and fails the run when an end-to-end one is missing.
class Result {
 public:
  void Set(const std::string& name, double value) { metrics_[name] = value; }
  bool Has(const std::string& name) const { return metrics_.count(name) > 0; }
  double Get(const std::string& name) const;
  const std::map<std::string, double>& metrics() const { return metrics_; }

  // Records an output check; a failed one makes the run incorrect.
  void Check(bool ok, const std::string& what);
  const std::vector<std::string>& failures() const { return failures_; }

  // Operations the workload attempted and how many failed (errored,
  // rejected, invalid). Drives the ok_share metric.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Free-form key/value facts printed in the provenance line.
  std::map<std::string, std::string> notes;

 private:
  std::map<std::string, double> metrics_;
  std::vector<std::string> failures_;
};

// Order statistic by nearest rank on a copy (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);
// The middle value, or the mean of the two middle values of an even
// count; 0 when empty.
double Median(const std::vector<double>& values);

// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb();


// --- tracing -----------------------------------------------------------

// In-memory span recorder. Spans nest per thread: a span opened while
// another is open on the same thread is its child. Disabled tracers make
// ScopedSpan a no-op, so the same workload code runs traced or not.
class Tracer {
 public:
  void Enable(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // Self time (seconds) per span name, summed over every closed span.
  std::map<std::string, double> SelfSeconds() const;
  // Total duration (seconds) per span name.
  std::map<std::string, double> TotalSeconds() const;

 private:
  friend class ScopedSpan;
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int64_t parent = -1;
    double child_seconds = 0.0;
  };
  int64_t Open(const std::string& name);
  void Close(int64_t id);

  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  // One tracer per recording thread; spans are not shared across threads.
  std::vector<Span> spans_;
  std::vector<int64_t> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        id_(tracer_ != nullptr ? tracer_->Open(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close(id_);
  }
  // Renames the span before it closes (a call's outcome can pick the
  // layer its time belongs to).
  void Rename(const std::string& name);

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t id_;
};

// Workload entry points (serve_workloads.cc, train_workloads.cc).
void RunServeHotExact(const Options& options, Result* result);
void RunServeColdIvf(const Options& options, Result* result);
void RunStreamLive(const Options& options, Result* result);
void RunSpanTrain(const Options& options, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
