// Client side of the serve wire protocol: the one socket client that the
// load harness (imsr_loadgen) and the socket tests drive.
//
//  * ConnectSocket — a connected stream socket to a unix path or a TCP
//    host:port.
//  * Client — C connections on one thread. Sends are queued and written
//    without blocking (pipelined), one poll loop reads every connection
//    through a FrameAssembler, responses are matched to their request by
//    request_id and validated, and each valid response reaches a
//    callback with its latency measured from the request's *due* time.
//    The first failure latches: its message is kept and later ones are
//    only counted.
//  * ZipfPicker — the bounded Zipf user draw (hot ids low).
//  * RunLoad — the one load driver: a closed loop (a depth window per
//    connection, plus optional bursts) or an open loop (Poisson due
//    times at an aggregate rate, sends never gated on responses).
#ifndef IMSR_SERVE_CLIENT_H_
#define IMSR_SERVE_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/protocol.h"
#include "util/rng.h"

namespace imsr::serve {

// Where a server listens: `unix_path` when non-empty, else TCP
// `host`:`port`.
struct Endpoint {
  std::string unix_path;
  std::string host = "127.0.0.1";
  int port = 0;
};

// Connects a blocking stream socket to `endpoint` (TCP sockets get
// TCP_NODELAY). Returns the fd, or -1 with `*error` set.
int ConnectSocket(const Endpoint& endpoint, std::string* error);

// YCSB's bounded Zipfian over [0, n): rank r is drawn with probability
// proportional to 1/(r+1)^theta, so the low ids are the hot ones.
// theta in [0, 1); 0 draws uniformly. Draws are clamped to n - 1 (the
// closed form can round up to n).
class ZipfPicker {
 public:
  ZipfPicker(uint64_t n, double theta);
  uint64_t Next(util::Rng* rng) const;

 private:
  uint64_t n_;
  double theta_;
  double zeta_n_ = 0.0;
  double alpha_ = 0.0;
  double eta_ = 0.0;
};

// Response accounting. Every response lands in exactly one of ok,
// errors, overloaded or failures.
struct ClientStats {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t errors = 0;      // kError responses (e.g. an unknown user)
  uint64_t overloaded = 0;  // kOverloaded and kShuttingDown responses
  uint64_t failures = 0;    // protocol violations and invalid responses
  std::string first_failure;
};

// Receives each valid response (any status) on the polling thread, with
// its latency from the request's due time.
using ResponseCallback = std::function<void(
    int connection, const ResponseFrame& response, double latency_ms)>;

class Client {
 public:
  using Clock = std::chrono::steady_clock;

  // Opens `connections` connections to `endpoint`. A connect failure
  // latches (broken() turns true).
  Client(const Endpoint& endpoint, int connections);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Queues a request for `user` on `connection`; its bytes go out on the
  // next Poll. Request ids are 1, 2, ... in send order. `top_n` must be
  // positive: an ok response must carry exactly that many items.
  uint64_t Send(int connection, data::UserId user, int top_n,
                Clock::time_point due);

  // Writes queued bytes, waits up to `timeout` for the sockets, then
  // handles every complete response. A frame that fails to decode, an
  // unknown request_id, a closed connection, or no response for 30 s
  // while requests are outstanding breaks the client. An ok response
  // must carry exactly its request's top_n items in non-increasing score
  // order (NaN fails); one that does not is a failure and does not reach
  // `on_response`.
  void Poll(Clock::duration timeout, const ResponseCallback& on_response);

  // Polls until no request is outstanding or the client breaks.
  void Drain(const ResponseCallback& on_response);

  bool broken() const { return broken_; }
  size_t outstanding() const { return pending_.size(); }
  size_t outstanding(int connection) const {
    return connections_[static_cast<size_t>(connection)].outstanding;
  }
  const ClientStats& stats() const { return stats_; }

 private:
  struct Connection {
    int fd = -1;
    std::vector<uint8_t> out;
    size_t out_pos = 0;
    FrameAssembler in;
    size_t outstanding = 0;
  };
  struct Pending {
    int connection = 0;
    int top_n = 0;
    Clock::time_point due;
  };

  void Fail(const std::string& why, bool fatal);
  void Flush(Connection* connection);
  void Read(int c, const ResponseCallback& on_response);
  void Handle(int c, const ResponseFrame& response, Clock::time_point now,
              const ResponseCallback& on_response);

  std::vector<Connection> connections_;
  std::unordered_map<uint64_t, Pending> pending_;
  uint64_t next_id_ = 1;
  Clock::time_point progress_ = Clock::now();  // last send into idle / reply
  ClientStats stats_;
  bool broken_ = false;
};

// One load run: `requests` spread over `connections` (the first
// requests % connections get one extra), users drawn by ZipfPicker(users,
// zipf) from a per-connection RNG stream that is a pure function of
// (seed, connection), so a seed replays each connection's sequence.
struct LoadSpec {
  Endpoint endpoint;
  int connections = 4;
  uint64_t requests = 0;
  uint64_t users = 1;
  double zipf = 0.0;
  int top_n = 10;
  uint64_t seed = 1;
  // Closed loop: requests outstanding per connection; every burst_every
  // valid responses a connection sends burst_size more beyond that
  // window (0 = no bursts).
  int depth = 8;
  uint64_t burst_every = 0;
  uint64_t burst_size = 0;
  // > 0 selects the open loop: Poisson arrivals at this aggregate rate
  // (req/s), rate / connections per connection. Late sends go out
  // back to back and keep their due time.
  double rate = 0.0;
};

// Drives `spec` to completion on the calling thread: every request sent
// and answered, or the client broken. `on_response` sees every valid
// response.
ClientStats RunLoad(const LoadSpec& spec, const ResponseCallback& on_response);

}  // namespace imsr::serve

#endif  // IMSR_SERVE_CLIENT_H_
