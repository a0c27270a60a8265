// CLI-facing driver for the obs subsystem: turns the --metrics_out=,
// --trace_out= and --metrics_interval= flags into an RAII session that
// enables tracing, periodically flushes metrics while work runs, and on
// destruction writes the final metrics/trace files and prints a summary
// table of every recorded metric.
#ifndef IMSR_OBS_SESSION_H_
#define IMSR_OBS_SESSION_H_

#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>

namespace imsr::util {
class FlagSet;
}  // namespace imsr::util

namespace imsr::obs {

struct ObsOptions {
  // Metrics export path; ".csv" suffix selects CSV, anything else JSON.
  // Empty disables metrics export.
  std::string metrics_out;
  // Chrome trace-event JSON export path; empty disables tracing.
  std::string trace_out;
  // > 0: rewrite `metrics_out` (atomically) every this-many seconds while
  // the session is alive, so long runs can be watched live.
  double metrics_interval_seconds = 0.0;

  bool active() const { return !metrics_out.empty() || !trace_out.empty(); }
};

// The observability flags of every long-lived tool: RegisterObsFlags
// adds --metrics_out, --trace_out and --metrics_interval, and
// ObsOptionsFromFlags reads them back after the parse.
void RegisterObsFlags(util::FlagSet* flags);
ObsOptions ObsOptionsFromFlags(const util::FlagSet& flags);

class ObsSession {
 public:
  explicit ObsSession(ObsOptions options);
  // Stops the flusher, writes one last flush of every configured export
  // (so the final partial interval of a long run is never lost), prints
  // the summary table to stdout (only when any obs flag was set).
  ~ObsSession();

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  // Rewrites every configured export (metrics and/or trace) now. Safe to
  // call from any thread; both writers work from snapshots and the
  // metrics file is replaced atomically.
  void Flush();

 private:
  void FlushMetrics();
  void FlushTrace();

  ObsOptions options_;
  std::thread flusher_;
  std::mutex mutex_;
  std::condition_variable stop_cv_;
  bool stop_ = false;
};

// Renders the current registry contents as the exit summary table
// (exposed for tests).
std::string MetricsSummaryTable();

}  // namespace imsr::obs

#endif  // IMSR_OBS_SESSION_H_
