// Socket client of the harness: open-loop Poisson sends timed from their
// due time, and the saturating closed loop. One thread drives every
// connection through a non-blocking poll loop, so a slow server delays
// responses but never the send schedule.
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <ctime>

#include "harness.h"
#include "serve/protocol.h"

namespace perfbench {

namespace serve = imsr::serve;
using imsr::data::UserId;

UserPicker::UserPicker(uint64_t n, double theta) : n_(n), theta_(theta) {
  if (theta_ <= 0.0) return;
  auto zeta = [](uint64_t count, double t) {
    double sum = 0.0;
    for (uint64_t i = 1; i <= count; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i), t);
    }
    return sum;
  };
  zeta_n_ = zeta(n, theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - zeta(2, theta) / zeta_n_);
}

UserPicker::UserPicker(std::vector<UserId> ids) : ids_(std::move(ids)) {}

UserId UserPicker::Next(imsr::util::Rng* rng) const {
  if (!ids_.empty()) {
    return ids_[static_cast<size_t>(rng->NextBelow(ids_.size()))];
  }
  if (theta_ <= 0.0) return static_cast<UserId>(rng->NextBelow(n_));
  const double u = rng->NextDouble();
  const double uz = u * zeta_n_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  const uint64_t rank = static_cast<uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return static_cast<UserId>(std::min(rank, n_ - 1));
}

Schedule MakePoissonSchedule(double rate, double seconds,
                             const UserPicker& users, int top_n,
                             uint64_t seed) {
  Schedule schedule;
  schedule.rate = rate;
  schedule.seconds = seconds;
  schedule.top_n = top_n;
  imsr::util::Rng rng(seed);
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t >= seconds) break;
    schedule.due_s.push_back(t);
    schedule.users.push_back(users.Next(&rng));
  }
  return schedule;
}

std::string SocketPath(const std::string& dir) {
  static int counter = 0;
  return dir + "/pb-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter++) + ".sock";
}

serve::ServerConfig MakeServerConfig(const ServeSettings& settings,
                                     const std::string& socket_path) {
  serve::ServerConfig config;
  config.unix_path = socket_path;
  config.shards.num_shards = settings.shards;
  config.shards.queue_cap = 256;
  config.shards.batch_max = 32;
  config.shards.cache_bytes = settings.cache_bytes;
  config.shards.serve.default_top_n = settings.top_n;
  config.shards.serve.retrieval = settings.retrieval;
  return config;
}

LiveServer::LiveServer(const serve::SnapshotRegistry* registry,
                       const serve::ServerConfig& config)
    : path_(config.unix_path), server_(registry, config) {
  started_ = server_.Start(&error_);
  if (started_) thread_ = std::thread([this] { server_.Run(); });
}

LiveServer::~LiveServer() {
  if (thread_.joinable()) {
    server_.Shutdown();
    thread_.join();
  }
}

namespace {

struct Connection {
  int fd = -1;
  std::vector<uint8_t> out;
  size_t out_pos = 0;
  serve::FrameAssembler in;
};

int ConnectUnix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

// One in-flight request, indexed by request_id - 1.
struct Pending {
  double due_s = 0.0;
  UserId user = -1;
  int top_n = 0;
  bool answered = false;
};

// The poll loop both phases share: owns the connections, flushes queued
// request bytes, reads and validates responses.
class Client {
 public:
  Client(const std::string& path, int connections, ClientStats* stats)
      : stats_(stats) {
    for (int i = 0; i < connections; ++i) {
      Connection connection;
      connection.fd = ConnectUnix(path);
      if (connection.fd < 0) {
        Fail("cannot connect to " + path);
        break;
      }
      connections_.push_back(std::move(connection));
    }
  }
  ~Client() {
    for (Connection& connection : connections_) ::close(connection.fd);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool broken() const { return broken_; }
  uint64_t outstanding() const { return outstanding_; }
  double Now() const { return SecondsBetween(start_, Clock::now()); }

  // Queues request `id` (1-based, consecutive) on `connection`.
  void Send(int connection, UserId user, int top_n, double due_s) {
    serve::RequestFrame request;
    request.request_id = pending_.size() + 1;
    request.user = user;
    request.top_n = top_n;
    pending_.push_back({due_s, user, top_n, false});
    const std::vector<uint8_t> bytes = serve::EncodeRequest(request);
    Connection& target = connections_[static_cast<size_t>(connection)];
    target.out.insert(target.out.end(), bytes.begin(), bytes.end());
    ++outstanding_;
    ++stats_->sent;
  }

  // Writes queued bytes, then waits up to `timeout_s` for responses and
  // handles every complete one. `on_response(connection)` runs after
  // each response (the closed loop refills from it).
  template <typename OnResponse>
  void Poll(double timeout_s, OnResponse&& on_response) {
    Flush();
    std::vector<pollfd> fds;
    for (const Connection& connection : connections_) {
      const bool writing = connection.out_pos < connection.out.size();
      fds.push_back({connection.fd,
                     static_cast<short>(POLLIN | (writing ? POLLOUT : 0)),
                     0});
    }
    timeout_s = std::max(0.0, timeout_s);
    timespec timeout;
    timeout.tv_sec = static_cast<time_t>(timeout_s);
    timeout.tv_nsec =
        static_cast<long>((timeout_s - std::floor(timeout_s)) * 1e9);
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready <= 0) return;
    for (size_t c = 0; c < fds.size(); ++c) {
      if (fds[c].revents & (POLLIN | POLLHUP | POLLERR)) {
        Read(static_cast<int>(c), on_response);
      }
    }
  }

  // Responses never received count as invalid.
  void FinishMissing() {
    if (outstanding_ > 0) {
      Fail(std::to_string(outstanding_) + " responses never arrived",
           outstanding_);
      outstanding_ = 0;
    }
  }

  static constexpr size_t kMaxHeldEpochs = 8;
  const serve::SnapshotRegistry* registry = nullptr;
  int sample_every = 0;
  size_t max_samples = 0;
  double epoch_spacing_s = 0.0;  // least time between newly held epochs
  double record_until_s = 1e300;  // closed loop: stop counting after this

 private:
  void Fail(const std::string& why, uint64_t count = 1) {
    stats_->invalid += count;
    if (stats_->first_invalid.empty()) stats_->first_invalid = why;
    broken_ = true;
  }

  void Flush() {
    for (Connection& connection : connections_) {
      while (connection.out_pos < connection.out.size()) {
        const ssize_t n =
            ::write(connection.fd, connection.out.data() + connection.out_pos,
                    connection.out.size() - connection.out_pos);
        if (n > 0) {
          connection.out_pos += static_cast<size_t>(n);
        } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
          break;
        } else {
          Fail(std::string("write failed: ") + std::strerror(errno));
          return;
        }
      }
      if (connection.out_pos == connection.out.size()) {
        connection.out.clear();
        connection.out_pos = 0;
      }
    }
  }

  template <typename OnResponse>
  void Read(int c, OnResponse&& on_response) {
    Connection& connection = connections_[static_cast<size_t>(c)];
    uint8_t buffer[1 << 16];
    while (true) {
      const ssize_t n = ::read(connection.fd, buffer, sizeof(buffer));
      if (n > 0) {
        connection.in.Append(buffer, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EINTR)) break;
      Fail("connection closed by server");
      return;
    }
    const double now_s = Now();
    std::vector<uint8_t> payload;
    std::string error;
    while (true) {
      const serve::FrameAssembler::Result next =
          connection.in.Next(&payload, &error);
      if (next == serve::FrameAssembler::Result::kNeedMore) break;
      if (next == serve::FrameAssembler::Result::kError) {
        Fail("framing error: " + error);
        return;
      }
      serve::ResponseFrame response;
      if (!serve::TryDecodeResponse(payload, &response, &error)) {
        Fail("undecodable response: " + error);
        return;
      }
      Handle(response, now_s);
      on_response(c);
    }
  }

  void Handle(const serve::ResponseFrame& response, double now_s) {
    if (response.request_id == 0 || response.request_id > pending_.size() ||
        pending_[response.request_id - 1].answered) {
      Fail("unexpected request_id " + std::to_string(response.request_id));
      return;
    }
    Pending& pending = pending_[response.request_id - 1];
    pending.answered = true;
    --outstanding_;
    const bool counted = now_s <= record_until_s;
    switch (response.status) {
      case serve::ResponseStatus::kOk: {
        if (static_cast<int>(response.items.size()) != pending.top_n) {
          Fail("request " + std::to_string(response.request_id) + " got " +
               std::to_string(response.items.size()) + " items, wanted " +
               std::to_string(pending.top_n));
          return;
        }
        for (size_t i = 1; i < response.items.size(); ++i) {
          if (!(response.items[i - 1].second >= response.items[i].second)) {
            Fail("scores not descending in request " +
                 std::to_string(response.request_id));
            return;
          }
        }
        if (!counted) return;
        ++stats_->ok;
        stats_->latency_ms.push_back((now_s - pending.due_s) * 1e3);
        stats_->due_s.push_back(pending.due_s);
        MaybeSample(response);
        return;
      }
      case serve::ResponseStatus::kOverloaded:
        ++stats_->overloaded;
        return;
      default:
        ++stats_->errors;
        if (stats_->first_invalid.empty()) {
          stats_->first_invalid = "error response: " + response.error;
        }
        return;
    }
  }

  void MaybeSample(const serve::ResponseFrame& response) {
    if (registry == nullptr || sample_every <= 0 ||
        stats_->samples.size() >= max_samples ||
        stats_->ok % static_cast<uint64_t>(sample_every) != 0) {
      return;
    }
    std::shared_ptr<const serve::ServingSnapshot> current =
        registry->Current();
    if (current == nullptr || current->version() != response.snapshot_version) {
      return;  // republished since; the next sample will do
    }
    // Kept samples hold their snapshots alive. Holding a few distinct
    // contents (data epochs), spaced over the phase, keeps that memory
    // out of peak_rss_mb when every publish changes content.
    const uint64_t epoch = current->data_epoch();
    if (std::find(held_epochs_.begin(), held_epochs_.end(), epoch) ==
        held_epochs_.end()) {
      const double now_s = Now();
      if (held_epochs_.size() >= kMaxHeldEpochs || now_s < next_epoch_s_) {
        return;
      }
      held_epochs_.push_back(epoch);
      next_epoch_s_ = now_s + epoch_spacing_s;
    }
    ServedSample sample;
    sample.snapshot = std::move(current);
    sample.user = pending_[response.request_id - 1].user;
    sample.top_n = pending_[response.request_id - 1].top_n;
    sample.items = response.items;
    stats_->samples.push_back(std::move(sample));
  }

  ClientStats* stats_;
  std::vector<uint64_t> held_epochs_;
  double next_epoch_s_ = 0.0;
  std::vector<Connection> connections_;
  std::vector<Pending> pending_;
  uint64_t outstanding_ = 0;
  bool broken_ = false;
  Clock::time_point start_ = Clock::now();
};

constexpr double kDrainTimeoutS = 20.0;

}  // namespace

ClientStats RunOpenLoop(const std::string& socket_path, int connections,
                        const Schedule& schedule,
                        const serve::SnapshotRegistry* registry,
                        int sample_every, size_t max_samples) {
  ClientStats stats;
  Client client(socket_path, connections, &stats);
  client.registry = registry;
  client.sample_every = sample_every;
  client.max_samples = max_samples;
  client.epoch_spacing_s = schedule.seconds / Client::kMaxHeldEpochs;
  const size_t total = schedule.due_s.size();
  std::vector<double> backlog;  // outstanding, sampled every 100 ms
  double next_sample_s = 0.1;
  size_t next = 0;
  const auto ignore = [](int) {};
  while (!client.broken()) {
    const double now_s = client.Now();
    while (next < total && schedule.due_s[next] <= now_s) {
      stats.late_ms.push_back((now_s - schedule.due_s[next]) * 1e3);
      client.Send(static_cast<int>(next % static_cast<size_t>(connections)),
                  schedule.users[next], schedule.top_n,
                  schedule.due_s[next]);
      ++next;
    }
    if (now_s >= next_sample_s && next < total) {
      backlog.push_back(static_cast<double>(client.outstanding()));
      next_sample_s += 0.1;
    }
    if (next == total) {
      if (client.outstanding() == 0) break;
      if (now_s > schedule.seconds + kDrainTimeoutS) {
        client.FinishMissing();
        break;
      }
    }
    const double wait_s =
        next < total ? schedule.due_s[next] - now_s : 0.05;
    client.Poll(std::min(wait_s, 0.05), ignore);
  }
  stats.seconds = schedule.seconds;
  // The backlog grew when the last quarter of the phase held clearly more
  // requests in flight than the first quarter.
  if (backlog.size() >= 8) {
    const size_t quarter = backlog.size() / 4;
    const std::vector<double> first(backlog.begin(),
                                    backlog.begin() + quarter);
    const std::vector<double> last(backlog.end() - quarter, backlog.end());
    stats.backlog_grew = Mean(last) > 2.0 * Mean(first) + 16.0;
  }
  return stats;
}

ClientStats RunClosedLoop(const std::string& socket_path, int connections,
                          int depth, double seconds, const UserPicker& users,
                          int top_n, uint64_t seed) {
  ClientStats stats;
  Client client(socket_path, connections, &stats);
  client.record_until_s = seconds;
  imsr::util::Rng rng(seed);
  const auto send_one = [&](int connection) {
    client.Send(connection, users.Next(&rng), top_n, client.Now());
  };
  for (int c = 0; c < connections && !client.broken(); ++c) {
    for (int d = 0; d < depth; ++d) send_one(c);
  }
  const auto refill = [&](int connection) {
    if (client.Now() < seconds) send_one(connection);
  };
  while (!client.broken()) {
    const double now_s = client.Now();
    if (now_s >= seconds && client.outstanding() == 0) break;
    if (now_s > seconds + kDrainTimeoutS) {
      client.FinishMissing();
      break;
    }
    client.Poll(0.05, refill);
  }
  stats.seconds = seconds;
  return stats;
}

}  // namespace perfbench
