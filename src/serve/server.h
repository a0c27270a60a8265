// imsr_serve core: a sharded, concurrent recommendation server.
//
// Two layers, split so the concurrency core is testable without sockets:
//
//  * ShardSet — N worker shards, each owning a bounded task queue, a
//    RecommendScratch, and (optionally) a snapshot-versioned response
//    cache. Requests are hash-routed by user id (splitmix64, so
//    consecutive ids spread evenly), answered against the lock-free
//    SnapshotRegistry's current snapshot, and delivered through a
//    ResponseSink. Admission control is explicit: a full shard queue
//    rejects the request with a kOverloaded response on the submitting
//    thread — queues never grow without bound and nothing is dropped
//    silently.
//
//    Workers drain their queue in micro-batches: one blocking pop, then
//    whatever is immediately available up to batch_max (no added latency
//    when the queue is shallow — an empty queue yields a batch of one).
//    Each batch is scored through serve::RecommendBatch, which fuses the
//    unique users' corpus scans into one pass over the embedding table;
//    responses are bitwise identical to the per-request RecommendOne
//    path. The worker loads the registry's current snapshot once per
//    batch, AFTER collecting it, so publishes land between batches and
//    every response reflects a snapshot at least as new as the
//    registry's current at that request's admission: every response is
//    bitwise-consistent with exactly one snapshot version, never a
//    stale one. Cache entries are keyed by (snapshot version, user,
//    top_n, rule, retrieval, nprobe) — a publish invalidates by
//    construction (DESIGN.md §15).
//
//  * Server — the transport: one I/O thread runs accept + a poll()
//    readiness loop over all connections (Unix-domain or TCP), reassembles
//    protocol frames, and submits decoded requests to the ShardSet.
//    Responses are written directly from shard workers under a
//    per-connection write mutex (frames are atomic units; interleaving is
//    prevented, ordering across shards is not promised — responses carry
//    request_ids). A connection is a shared_ptr whose destructor closes
//    the fd, so a worker's late response write can never race a close.
#ifndef IMSR_SERVE_SERVER_H_
#define IMSR_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.h"
#include "serve/recommend.h"
#include "serve/registry.h"
#include "util/bounded_queue.h"

namespace imsr::serve {

// Where a shard worker (or the admission path) delivers a finished
// response. Implementations must be safe to call from any thread.
class ResponseSink {
 public:
  virtual ~ResponseSink() = default;
  virtual void SendResponse(const ResponseFrame& response) = 0;
};

// splitmix64 of the user id modulo num_shards — deterministic, and
// scrambles the low bits so sequential user ids spread across shards.
size_t ShardOf(data::UserId user, size_t num_shards);

struct ShardSetConfig {
  int num_shards = 4;
  // Per-shard queue bound; a full queue rejects (kOverloaded).
  size_t queue_cap = 256;
  // Most requests a worker scores per queue drain. 1 restores the PR 9
  // pop-score-respond loop; larger values amortise the corpus scan
  // across whatever is already waiting (never adds latency — a shallow
  // queue just yields a small batch).
  int batch_max = 32;
  // Total response-cache budget in bytes, split evenly across shards.
  // 0 disables caching entirely.
  size_t cache_bytes = 0;
  // Scoring configuration; parallelism comes from the shards themselves.
  ServeConfig serve;
};

struct ShardSetStats {
  uint64_t submitted = 0;  // accepted into a shard queue
  uint64_t rejected = 0;   // admission-control rejections
  uint64_t answered = 0;   // responses produced by workers
  uint64_t batches = 0;    // micro-batches drained (answered/batches =
                           // mean batch size)
  uint64_t cache_hits = 0;       // responses served from the cache
  uint64_t cache_misses = 0;     // lookups that fell through to scoring
  uint64_t cache_evictions = 0;  // entries evicted by the byte budget
  uint64_t cache_bytes = 0;      // resident cache bytes, summed over shards
};

class ShardSet {
 public:
  // `registry` is borrowed and must outlive the ShardSet; snapshots may
  // be published to it concurrently with serving.
  ShardSet(const SnapshotRegistry* registry, const ShardSetConfig& config);
  ~ShardSet();  // implies Drain()

  ShardSet(const ShardSet&) = delete;
  ShardSet& operator=(const ShardSet&) = delete;

  void Start();

  // Routes `request` to its shard. Returns true when enqueued; false
  // when the shard queue was full — in that case a kOverloaded response
  // has already been delivered to `sink` on this thread. The sink is
  // held (shared) until its response is written.
  bool Submit(const RequestFrame& request,
              std::shared_ptr<ResponseSink> sink);

  // Closes every shard queue, lets workers drain what was admitted, and
  // joins them. Every submitted request gets a response before Drain
  // returns. Idempotent.
  void Drain();

  ShardSetStats stats() const;
  int num_shards() const { return static_cast<int>(shards_.size()); }

 private:
  struct Task {
    RequestFrame request;
    std::shared_ptr<ResponseSink> sink;
  };
  struct Shard {
    explicit Shard(size_t queue_cap);
    util::BoundedQueue<Task> queue;
    std::thread worker;
    // Resident bytes of this shard's response cache (worker-written,
    // stats()-read).
    std::atomic<uint64_t> cache_bytes{0};
  };

  void WorkerLoop(Shard* shard);

  const SnapshotRegistry* registry_;
  ShardSetConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  bool started_ = false;
  bool drained_ = false;
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> answered_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};
  std::atomic<uint64_t> cache_evictions_{0};
};

struct ServerConfig {
  // Non-empty selects a Unix-domain socket at this path (an existing
  // stale socket file is replaced).
  std::string unix_path;
  // Used when unix_path is empty; 0 binds an ephemeral port (read it
  // back from port()). Listens on 127.0.0.1.
  int tcp_port = 0;
  ShardSetConfig shards;
  // Optional cooperative stop (util::ShutdownFlag()); polled by Run().
  const std::atomic<bool>* stop = nullptr;
};

struct ServerStats {
  uint64_t accepted = 0;       // connections accepted
  uint64_t disconnected = 0;   // connections closed (peer or error)
  uint64_t frames = 0;         // request frames decoded
  uint64_t protocol_errors = 0;  // framing/decode failures (fatal per conn)
};

class Server {
 public:
  Server(const SnapshotRegistry* registry, const ServerConfig& config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds + listens and starts the shard workers. False + error on bind
  // failure (path in use, privileged port, ...).
  bool Start(std::string* error);

  // Runs the accept/read poll loop on the calling thread until Shutdown()
  // or the configured stop flag. On exit: stops accepting, drains the
  // shards (every admitted request is answered), then closes connections.
  void Run();

  // Signals Run() to wind down; safe from any thread / signal context
  // via the stop flag. Idempotent.
  void Shutdown();

  // The bound TCP port (resolved when tcp_port was 0); 0 for unix.
  int port() const { return port_; }
  const std::string& unix_path() const { return config_.unix_path; }

  ServerStats stats() const;
  ShardSetStats shard_stats() const { return shards_.stats(); }

 private:
  class Connection;

  bool ShouldStop() const;
  // Reads whatever is available on `connection`; false when the
  // connection is finished (EOF, error, protocol violation).
  bool DrainReadable(const std::shared_ptr<Connection>& connection);

  ServerConfig config_;
  ShardSet shards_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::map<int, std::shared_ptr<Connection>> connections_;
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> disconnected_{0};
  std::atomic<uint64_t> frames_{0};
  std::atomic<uint64_t> protocol_errors_{0};
};

}  // namespace imsr::serve

#endif  // IMSR_SERVE_SERVER_H_
