// The serving harness every workload shares: a live serve::Server over a
// SnapshotRegistry, an open-loop client that times each request from when
// it was due, a saturating closed-loop phase, the output checks on served
// responses, and the per-layer probes of the read path.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "core/interest_store.h"
#include "models/msr_model.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "util/rng.h"

namespace perfbench {

// Requests in arrival order: Poisson arrivals at a fixed rate, users drawn
// by the workload's popularity model.
struct Schedule {
  std::vector<double> due_s;          // offset from phase start
  std::vector<imsr::data::UserId> users;
  int top_n = 20;
  double rate = 0.0;
  double seconds = 0.0;
};

// Draws user ids: Zipf(theta) over [0, n) when theta > 0 (YCSB's bounded
// generator; rank r has weight 1 / (r + 1)^theta), uniform otherwise, or
// uniform over an explicit id list.
class UserPicker {
 public:
  UserPicker(uint64_t n, double theta);
  explicit UserPicker(std::vector<imsr::data::UserId> ids);
  imsr::data::UserId Next(imsr::util::Rng* rng) const;

 private:
  uint64_t n_ = 0;
  double theta_ = 0.0;
  double zeta_n_ = 0.0;
  double alpha_ = 0.0;
  double eta_ = 0.0;
  std::vector<imsr::data::UserId> ids_;
};

Schedule MakePoissonSchedule(double rate, double seconds,
                             const UserPicker& users, int top_n,
                             uint64_t seed);

// One served response kept for the bitwise replay check, with the
// snapshot that answered it held alive.
struct ServedSample {
  std::shared_ptr<const imsr::serve::ServingSnapshot> snapshot;
  imsr::data::UserId user = -1;
  int top_n = 0;
  std::vector<std::pair<imsr::data::ItemId, float>> items;
};

struct ClientStats {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t errors = 0;      // kError / kShuttingDown responses
  uint64_t overloaded = 0;  // admission rejections
  uint64_t invalid = 0;     // malformed, unexpected or missing responses
  std::string first_invalid;
  std::vector<double> latency_ms;  // ok responses, from due time
  std::vector<double> due_s;       // due time of each latency sample
  std::vector<double> late_ms;     // send time minus due time
  double seconds = 0.0;            // phase wall time
  bool backlog_grew = false;
  std::vector<ServedSample> samples;
  uint64_t failed() const { return errors + overloaded + invalid; }
};

// Sends `schedule` over `connections` Unix-socket connections from the
// calling thread, never waiting for responses before a send. Every
// response is validated; every `sample_every`-th ok response whose
// snapshot is still the registry's current one is kept for replay.
ClientStats RunOpenLoop(const std::string& socket_path, int connections,
                        const Schedule& schedule,
                        const imsr::serve::SnapshotRegistry* registry,
                        int sample_every, size_t max_samples);

// Keeps `depth` requests outstanding on each of `connections` for
// `seconds`, users drawn from `users`.
ClientStats RunClosedLoop(const std::string& socket_path, int connections,
                          int depth, double seconds, const UserPicker& users,
                          int top_n, uint64_t seed);

// A serve::Server running its poll loop on its own thread.
class LiveServer {
 public:
  LiveServer(const imsr::serve::SnapshotRegistry* registry,
             const imsr::serve::ServerConfig& config);
  ~LiveServer();
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

  bool ok() const { return started_; }
  const std::string& error() const { return error_; }
  const std::string& socket_path() const { return path_; }
  imsr::serve::ServerStats stats() const { return server_.stats(); }
  imsr::serve::ShardSetStats shard_stats() const {
    return server_.shard_stats();
  }

 private:
  std::string path_;
  imsr::serve::Server server_;
  bool started_ = false;
  std::string error_;
  std::thread thread_;
};

// A socket path inside `dir`, unique to this process.
std::string SocketPath(const std::string& dir);

// Settings of the serving side shared by every workload.
struct ServeSettings {
  int shards = 2;
  int connections = 2;
  int depth = 8;             // closed-loop outstanding per connection
  // Response cache budget, split evenly over the shards.
  size_t cache_bytes = 1u << 20;
  imsr::serve::RetrievalMode retrieval = imsr::serve::RetrievalMode::kExact;
  int top_n = 20;
};

imsr::serve::ServerConfig MakeServerConfig(const ServeSettings& settings,
                                           const std::string& socket_path);

// Everything the reader side measured in one workload run.
struct ReaderReport {
  ClientStats open;
  ClientStats saturate;
  imsr::serve::ShardSetStats shard_open;  // stats delta over the open loop
  imsr::serve::ServerStats server;        // totals at shutdown
};

// Drives `server` through a saturating warm-up (validated and counted in
// `result`, not measured), the open loop over `schedule`, then the
// saturating phase.
ReaderReport DriveServer(LiveServer* server,
                         const imsr::serve::SnapshotRegistry* registry,
                         const ServeSettings& settings,
                         const Schedule& schedule, const UserPicker& picker,
                         double warmup_s, double saturate_s, uint64_t seed,
                         Result* result);

// Counter deltas between two ShardSetStats reads; cache_bytes is the
// later read's resident size.
imsr::serve::ShardSetStats ShardStatsDelta(
    const imsr::serve::ShardSetStats& before,
    const imsr::serve::ShardSetStats& after);

// Validates every served response already checked by the client, replays
// the kept samples through in-process RecommendOne on the snapshot that
// answered them and compares bitwise, and fills the serve end-to-end
// metrics, the loadgen layer and the cache/server stats layers.
void ReportReader(const ReaderReport& report, const ServeSettings& settings,
                  const Options& options, Result* result);

// Per-layer probes of the read path against the registry's current
// snapshot (traced runs): ShardSet replay of `schedule`, in-process
// request replay traced and
// untraced (self times, tracing overhead), RecommendOne/RecommendBatch,
// protocol, IVF and nn kernel costs. `store` seeds an IVF index when the
// snapshot has none. `batch_width` is the open loop's mean shard batch.
void ProbeReadPath(const imsr::serve::SnapshotRegistry* registry,
                   const imsr::core::InterestStore& store,
                   const Schedule& schedule,
                   const ServeSettings& settings, double batch_width,
                   double client_p50_ms, const Options& options,
                   Result* result);

// Snapshot build and publish costs (traced runs): full BuildSnapshot,
// BuildSnapshotShared and SnapshotRegistry::Publish into a scratch
// registry, medians over `repeats`.
void ProbeSnapshotBuild(const imsr::models::MsrModel& model,
                        const imsr::core::InterestStore& store,
                        int repeats, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
