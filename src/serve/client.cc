#include "serve/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>

#include "util/check.h"

namespace imsr::serve {

namespace {

using Clock = Client::Clock;

// Longest wait inside one Poll of the drivers, and the silence after
// which outstanding requests count as lost.
constexpr Clock::duration kPollSlice = std::chrono::milliseconds(100);
constexpr Clock::duration kStallTimeout = std::chrono::seconds(30);

std::string ErrnoText() { return std::strerror(errno); }

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Per-connection RNG seed: splitmix64 over (seed, connection) decorrelates
// the streams completely (a linear offset would hand neighbouring
// connections overlapping user and gap sequences) while staying a pure
// function of the seed.
uint64_t ConnectionSeed(uint64_t seed, int connection) {
  return SplitMix64(seed ^
                    SplitMix64(static_cast<uint64_t>(connection) + 1));
}

// Exponential inter-arrival gap of a Poisson process at `rate` req/s.
Clock::duration PoissonGap(util::Rng* rng, double rate) {
  const double gap_s = -std::log(1.0 - rng->NextDouble()) / rate;
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(gap_s));
}

}  // namespace

int ConnectSocket(const Endpoint& endpoint, std::string* error) {
  const bool unix_socket = !endpoint.unix_path.empty();
  const int fd = ::socket(unix_socket ? AF_UNIX : AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = "socket: " + ErrnoText();
    return -1;
  }
  int rc = -1;
  if (unix_socket) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, endpoint.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (rc != 0) *error = "connect " + endpoint.unix_path + ": " + ErrnoText();
  } else {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(endpoint.port));
    if (::inet_pton(AF_INET, endpoint.host.c_str(), &addr.sin_addr) != 1) {
      *error = "bad IPv4 host " + endpoint.host;
    } else {
      rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
      if (rc != 0) {
        *error = "connect " + endpoint.host + ":" +
                 std::to_string(endpoint.port) + ": " + ErrnoText();
      }
    }
    const int one = 1;
    if (rc == 0) ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  if (rc != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

double ZipfPicker::Zeta(uint64_t n, double theta) {
  const uint64_t exact = std::min(n, kZetaExactTerms);
  double sum = 0.0;
  for (uint64_t i = 1; i <= exact; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  if (n == exact) return sum;
  // sum_{i=a+1}^{b} f(i) = int_a^b f + (f(b) - f(a)) / 2
  //   + (f'(b) - f'(a)) / 12 - (f'''(b) - f'''(a)) / 720 + R, with
  // f(x) = x^-theta; R is of order f^(5)(a) / 30240, far below double
  // rounding at a = kZetaExactTerms.
  const double a = static_cast<double>(exact);
  const double b = static_cast<double>(n);
  const auto f = [theta](double x) { return std::pow(x, -theta); };
  const auto f1 = [theta](double x) {
    return -theta * std::pow(x, -theta - 1.0);
  };
  const auto f3 = [theta](double x) {
    return -theta * (theta + 1.0) * (theta + 2.0) *
           std::pow(x, -theta - 3.0);
  };
  const double integral =
      (std::pow(b, 1.0 - theta) - std::pow(a, 1.0 - theta)) / (1.0 - theta);
  return sum + integral + (f(b) - f(a)) / 2.0 + (f1(b) - f1(a)) / 12.0 -
         (f3(b) - f3(a)) / 720.0;
}

ZipfPicker::ZipfPicker(uint64_t n, double theta) : n_(n), theta_(theta) {
  IMSR_CHECK(n >= 1 && theta >= 0.0 && theta < 1.0)
      << "ZipfPicker needs n >= 1 and theta in [0, 1), got n=" << n
      << " theta=" << theta;
  if (theta_ == 0.0) return;
  zeta_n_ = Zeta(n, theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - Zeta(2, theta) / zeta_n_);
}

uint64_t ZipfPicker::Next(util::Rng* rng) const {
  if (theta_ == 0.0) return rng->NextBelow(n_);
  const double u = rng->NextDouble();
  const double uz = u * zeta_n_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  const uint64_t rank = static_cast<uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return std::min(rank, n_ - 1);
}

Client::Client(const Endpoint& endpoint, int connections) {
  for (int i = 0; i < connections; ++i) {
    std::string error;
    Connection connection;
    connection.fd = ConnectSocket(endpoint, &error);
    if (connection.fd < 0) {
      Fail(error, /*fatal=*/true);
      return;
    }
    ::fcntl(connection.fd, F_SETFL,
            ::fcntl(connection.fd, F_GETFL) | O_NONBLOCK);
    connections_.push_back(std::move(connection));
  }
}

Client::~Client() {
  for (const Connection& connection : connections_) ::close(connection.fd);
}

uint64_t Client::Send(int connection, data::UserId user, int top_n,
                      Clock::time_point due) {
  IMSR_CHECK_GT(top_n, 0);
  RequestFrame request;
  request.request_id = next_id_++;
  request.user = user;
  request.top_n = top_n;
  if (pending_.empty()) progress_ = Clock::now();
  pending_.emplace(request.request_id, Pending{connection, top_n, due});
  Connection& target = connections_[static_cast<size_t>(connection)];
  const std::vector<uint8_t> bytes = EncodeRequest(request);
  target.out.insert(target.out.end(), bytes.begin(), bytes.end());
  ++target.outstanding;
  ++stats_.sent;
  return request.request_id;
}

void Client::Poll(Clock::duration timeout,
                  const ResponseCallback& on_response) {
  std::vector<pollfd> fds;
  fds.reserve(connections_.size());
  for (Connection& connection : connections_) {
    Flush(&connection);
    const bool writing = connection.out_pos < connection.out.size();
    fds.push_back({connection.fd,
                   static_cast<short>(POLLIN | (writing ? POLLOUT : 0)), 0});
  }
  if (broken_) return;
  const auto wait = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::max(timeout, Clock::duration::zero()));
  timespec ts;
  ts.tv_sec = static_cast<time_t>(wait.count() / 1000000000);
  ts.tv_nsec = static_cast<long>(wait.count() % 1000000000);
  const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
  if (ready < 0 && errno != EINTR) {
    Fail("poll failed: " + ErrnoText(), /*fatal=*/true);
    return;
  }
  for (size_t c = 0; ready > 0 && c < fds.size() && !broken_; ++c) {
    if (fds[c].revents & (POLLIN | POLLHUP | POLLERR)) {
      Read(static_cast<int>(c), on_response);
    }
  }
  if (!broken_ && !pending_.empty() &&
      Clock::now() - progress_ > kStallTimeout) {
    Fail(std::to_string(pending_.size()) +
             " responses outstanding, none received for 30 s",
         /*fatal=*/true);
  }
}

void Client::Drain(const ResponseCallback& on_response) {
  while (!broken_ && !pending_.empty()) Poll(kPollSlice, on_response);
}

void Client::Fail(const std::string& why, bool fatal) {
  ++stats_.failures;
  if (stats_.first_failure.empty()) stats_.first_failure = why;
  if (fatal) broken_ = true;
}

void Client::Flush(Connection* connection) {
  while (!broken_ && connection->out_pos < connection->out.size()) {
    const ssize_t n = ::send(connection->fd,
                             connection->out.data() + connection->out_pos,
                             connection->out.size() - connection->out_pos,
                             MSG_NOSIGNAL);
    if (n > 0) {
      connection->out_pos += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else {
      Fail("send failed: " + ErrnoText(), /*fatal=*/true);
      return;
    }
  }
  connection->out.clear();
  connection->out_pos = 0;
}

void Client::Read(int c, const ResponseCallback& on_response) {
  Connection& connection = connections_[static_cast<size_t>(c)];
  bool closed = false;
  uint8_t buffer[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(connection.fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      connection.in.Append(buffer, static_cast<size_t>(n));
    } else if (n == 0) {
      closed = true;
      break;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    } else if (errno != EINTR) {
      Fail("recv failed: " + ErrnoText(), /*fatal=*/true);
      return;
    }
  }
  const Clock::time_point now = Clock::now();
  std::vector<uint8_t> payload;
  std::string error;
  while (!broken_) {
    const FrameAssembler::Result next = connection.in.Next(&payload, &error);
    if (next == FrameAssembler::Result::kNeedMore) break;
    if (next == FrameAssembler::Result::kError) {
      Fail("framing error: " + error, /*fatal=*/true);
      return;
    }
    ResponseFrame response;
    if (!TryDecodeResponse(payload, &response, &error)) {
      Fail("decode error: " + error, /*fatal=*/true);
      return;
    }
    Handle(c, response, now, on_response);
  }
  if (closed && !broken_) {
    Fail("server closed connection " + std::to_string(c) + " with " +
             std::to_string(connection.outstanding) + " in flight",
         /*fatal=*/true);
  }
}

void Client::Handle(int c, const ResponseFrame& response,
                    Clock::time_point now,
                    const ResponseCallback& on_response) {
  const auto it = pending_.find(response.request_id);
  if (it == pending_.end() || it->second.connection != c) {
    Fail("response on connection " + std::to_string(c) +
             " for unknown request_id " +
             std::to_string(response.request_id),
         /*fatal=*/true);
    return;
  }
  const Pending pending = it->second;
  pending_.erase(it);
  --connections_[static_cast<size_t>(c)].outstanding;
  progress_ = now;
  const auto invalid = [&](const std::string& why) {
    Fail("request " + std::to_string(response.request_id) + ": " + why,
         /*fatal=*/false);
  };
  switch (response.status) {
    case ResponseStatus::kOk:
      if (response.items.size() != static_cast<size_t>(pending.top_n)) {
        invalid("ok response with " + std::to_string(response.items.size()) +
                " items, want " + std::to_string(pending.top_n));
        return;
      }
      for (size_t i = 1; i < response.items.size(); ++i) {
        // Negated >= so a NaN score fails too.
        if (!(response.items[i - 1].second >= response.items[i].second)) {
          invalid("scores not in descending order");
          return;
        }
      }
      ++stats_.ok;
      break;
    case ResponseStatus::kError:
      ++stats_.errors;
      break;
    case ResponseStatus::kOverloaded:
    case ResponseStatus::kShuttingDown:
      ++stats_.overloaded;
      break;
  }
  on_response(c, response,
              std::chrono::duration<double, std::milli>(now - pending.due)
                  .count());
}

ClientStats RunLoad(const LoadSpec& spec,
                    const ResponseCallback& on_response) {
  IMSR_CHECK(spec.connections >= 1 && spec.depth >= 1 && spec.top_n >= 1)
      << "RunLoad needs connections, depth and top_n >= 1";
  const ZipfPicker users(spec.users, spec.zipf);
  Client client(spec.endpoint, spec.connections);
  const bool open_loop = spec.rate > 0.0;
  const double connection_rate = spec.rate / spec.connections;
  struct Stream {
    util::Rng rng;
    uint64_t quota = 0;
    uint64_t sent = 0;
    uint64_t answered = 0;
    Clock::time_point due;  // open loop: the next send's due time
  };
  std::vector<Stream> streams;
  const Clock::time_point start = Clock::now();
  const auto count = static_cast<uint64_t>(spec.connections);
  for (uint64_t c = 0; c < count; ++c) {
    const uint64_t quota = spec.requests / count + (c < spec.requests % count);
    const util::Rng rng(ConnectionSeed(spec.seed, static_cast<int>(c)));
    streams.push_back({rng, quota, 0, 0, start});
  }
  // Each connection's RNG draws the user, then (open loop) the gap to
  // the next due time.
  const auto send = [&](int c, Clock::time_point due) {
    Stream& stream = streams[static_cast<size_t>(c)];
    client.Send(c, static_cast<data::UserId>(users.Next(&stream.rng)),
                spec.top_n, due);
    ++stream.sent;
    if (open_loop) stream.due += PoissonGap(&stream.rng, connection_rate);
  };
  const ResponseCallback handle = [&](int c, const ResponseFrame& response,
                                      double latency_ms) {
    on_response(c, response, latency_ms);
    Stream& stream = streams[static_cast<size_t>(c)];
    ++stream.answered;
    if (open_loop || spec.burst_every == 0 ||
        stream.answered % spec.burst_every != 0) {
      return;
    }
    for (uint64_t b = 0; b < spec.burst_size && stream.sent < stream.quota;
         ++b) {
      send(c, Clock::now());
    }
  };
  while (!client.broken()) {
    const Clock::time_point now = Clock::now();
    Clock::time_point wake = now + kPollSlice;
    bool all_sent = true;
    for (int c = 0; c < spec.connections; ++c) {
      Stream& stream = streams[static_cast<size_t>(c)];
      if (open_loop) {
        // Catch-up sends go back to back: the schedule, not the server,
        // is the clock.
        while (stream.sent < stream.quota && stream.due <= now) {
          send(c, stream.due);
        }
        if (stream.sent < stream.quota) wake = std::min(wake, stream.due);
      } else {
        while (stream.sent < stream.quota &&
               client.outstanding(c) < static_cast<size_t>(spec.depth)) {
          send(c, now);
        }
      }
      all_sent = all_sent && stream.sent == stream.quota;
    }
    if (all_sent && client.outstanding() == 0) break;
    client.Poll(wake - now, handle);
  }
  return client.stats();
}

}  // namespace imsr::serve
