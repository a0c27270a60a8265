// imsr_loadgen — load harness for imsr_serve: replays a heavy-traffic
// request mix over C concurrent connections and reports throughput and
// latency quantiles from obs histograms. The traffic itself comes from
// serve::RunLoad (serve/client.h), the one wire client: all C
// connections run on one thread over non-blocking sockets.
//
// Traffic shape:
//   * user ids drawn Zipf(--zipf) over [0, --users) — hot-user skew, the
//     YCSB-style generator, so a few users dominate exactly like
//     production fan-in (0 = uniform); each connection draws from its
//     own RNG stream seeded from (--seed, connection), so a seed replays
//     every connection's user sequence;
//   * closed loop (default) with --depth outstanding requests per
//     connection, or open loop with --rate=N: Poisson arrivals at N
//     aggregate req/s, sends never gated on responses, latency measured
//     from the *scheduled* arrival time so a slow server inflates the
//     tail instead of silently thinning the load (no coordinated
//     omission);
//   * optional bursts (closed loop): every --burst_every responses a
//     connection fires --burst_size extra requests beyond its depth
//     window, probing the server's admission control.
//
// Every response is validated: the request_id must match an in-flight
// request, ok responses must carry exactly top_n items with scores in
// non-increasing order. Any violation (or a framing/CRC error) is a
// *failure* and makes the exit status non-zero — the CI load-smoke
// asserts zero failures across a mid-flight snapshot publish.
//
// Latencies are recorded into the obs metrics registry
// ("loadgen/latency_ms", dense geometric buckets) and the p50/p99/p99.9
// estimates come from obs::HistogramQuantile over its snapshot — the
// same estimator the server's own metrics exports use.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/session.h"
#include "serve/client.h"
#include "util/flags.h"

namespace {

using namespace imsr;  // NOLINT(build/namespaces)

// Dense geometric latency buckets: 10us .. 10s at ~10% resolution, so
// interpolated quantiles are accurate to a few percent.
std::vector<double> DenseLatencyBoundsMs() {
  std::vector<double> bounds;
  for (double edge = 0.01; edge <= 10000.0; edge *= 1.1) {
    bounds.push_back(edge);
  }
  return bounds;
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagSet flags("imsr_loadgen",
                      "closed- and open-loop load harness for imsr_serve");
  flags.AddString("socket", "", "server unix-domain socket path");
  flags.AddString("host", "127.0.0.1", "server host (tcp)");
  flags.AddInt("port", 0, "server tcp port (when --socket is empty)");
  // Numeric bounds are checked at parse time, before anything starts: a
  // negative count would wrap to a huge unsigned quota (or a Zipf table
  // that never finishes building), and --top_n=0 would make every answer
  // fail.
  flags.AddInt("connections", 4, "concurrent client connections",
               /*min=*/1);
  flags.AddInt("depth", 8,
               "outstanding requests per connection (closed loop)",
               /*min=*/1);
  flags.AddDouble("rate", 0.0,
                  "open-loop Poisson arrival rate in req/s across all "
                  "connections (0 = closed loop)",
                  /*min=*/0.0);
  flags.AddInt("requests", 10000, "total requests across all connections",
               /*min=*/1);
  flags.AddInt("users", 100000, "user id space [0, N)", /*min=*/1);
  flags.AddDouble("zipf", 0.99,
                  "Zipf skew theta in [0,1); 0 = uniform user draw");
  flags.AddInt("top_n", 10, "items requested per query", /*min=*/1);
  flags.AddInt("burst_every", 0,
               "every K responses fire a burst (0 = no bursts)", /*min=*/0);
  flags.AddInt("burst_size", 0, "extra requests per burst", /*min=*/0);
  flags.AddInt("seed", 1, "traffic RNG seed");
  flags.AddString("json_out", "", "write the results JSON here");
  obs::RegisterObsFlags(&flags);
  flags.ParseOrExit(argc - 1, argv + 1);
  // User ids travel as int32: a larger space would wrap to negative ids,
  // which the server rejects as malformed frames.
  const int64_t max_users = int64_t{INT32_MAX} + 1;
  if (flags.GetInt("users") > max_users) {
    std::fprintf(stderr, "error: --users must be <= %lld\n",
                 static_cast<long long>(max_users));
    return 2;
  }
  serve::LoadSpec spec;
  spec.endpoint.unix_path = flags.GetString("socket");
  spec.endpoint.host = flags.GetString("host");
  spec.endpoint.port = static_cast<int>(flags.GetInt("port"));
  spec.connections = static_cast<int>(flags.GetInt("connections"));
  spec.requests = static_cast<uint64_t>(flags.GetInt("requests"));
  spec.users = static_cast<uint64_t>(flags.GetInt("users"));
  spec.zipf = flags.GetDouble("zipf");
  spec.top_n = static_cast<int>(flags.GetInt("top_n"));
  spec.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  spec.depth = static_cast<int>(flags.GetInt("depth"));
  spec.burst_every = static_cast<uint64_t>(flags.GetInt("burst_every"));
  spec.burst_size = static_cast<uint64_t>(flags.GetInt("burst_size"));
  spec.rate = flags.GetDouble("rate");
  if (!(spec.zipf >= 0.0 && spec.zipf < 1.0)) {
    std::fprintf(stderr, "error: --zipf must be in [0, 1)\n");
    return 2;
  }
  if (spec.endpoint.unix_path.empty() && spec.endpoint.port == 0) {
    std::fprintf(stderr, "error: need --socket or --port\n");
    return 2;
  }
  obs::ObsSession obs_session(obs::ObsOptionsFromFlags(flags));

  // Direct registry use (not the macros) so latency recording works in
  // every build, including -DIMSR_OBS=OFF.
  obs::Histogram* latency = &obs::Registry().GetHistogram(
      "loadgen/latency_ms", DenseLatencyBoundsMs());
  const auto start = std::chrono::steady_clock::now();
  const serve::ClientStats total = serve::RunLoad(
      spec, [latency](int, const serve::ResponseFrame&, double latency_ms) {
        latency->Record(latency_ms);
      });
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  const bool open_loop = spec.rate > 0.0;

  // Quantiles from the obs histogram snapshot — the exporter's own
  // estimator (HistogramQuantile), not a second implementation.
  obs::HistogramSnapshot latency_snapshot;
  for (const obs::HistogramSnapshot& histogram :
       obs::Registry().Snapshot().histograms) {
    if (histogram.name == "loadgen/latency_ms") {
      latency_snapshot = histogram;
    }
  }
  const double p50 = obs::HistogramQuantile(latency_snapshot, 0.50);
  const double p99 = obs::HistogramQuantile(latency_snapshot, 0.99);
  const double p999 = obs::HistogramQuantile(latency_snapshot, 0.999);
  const double qps =
      elapsed > 0.0 ? static_cast<double>(total.sent) / elapsed : 0.0;
  const double mean_ms =
      latency_snapshot.count > 0
          ? latency_snapshot.sum / static_cast<double>(latency_snapshot.count)
          : 0.0;

  std::printf(
      "sent %llu requests over %d connections in %.2fs: %.0f req/s\n"
      "responses: %llu ok, %llu error, %llu overloaded, %llu FAILED\n"
      "latency ms: mean %.3f  p50 %.3f  p99 %.3f  p99.9 %.3f  max %.3f\n",
      static_cast<unsigned long long>(total.sent), spec.connections, elapsed,
      qps, static_cast<unsigned long long>(total.ok),
      static_cast<unsigned long long>(total.errors),
      static_cast<unsigned long long>(total.overloaded),
      static_cast<unsigned long long>(total.failures), mean_ms, p50, p99,
      p999, latency_snapshot.max);
  if (total.failures > 0) {
    std::fprintf(stderr, "first failure: %s\n",
                 total.first_failure.c_str());
  }

  const std::string json_out = flags.GetString("json_out");
  if (!json_out.empty()) {
    std::ostringstream json;
    char buffer[64];
    json << "{\n";
    json << "  \"mode\": \"" << (open_loop ? "open" : "closed")
         << "\",\n";
    std::snprintf(buffer, sizeof(buffer), "%.1f", spec.rate);
    json << "  \"rate\": " << buffer << ",\n";
    json << "  \"connections\": " << spec.connections << ",\n";
    json << "  \"depth\": " << spec.depth << ",\n";
    json << "  \"users\": " << spec.users << ",\n";
    std::snprintf(buffer, sizeof(buffer), "%.3f", spec.zipf);
    json << "  \"zipf\": " << buffer << ",\n";
    json << "  \"top_n\": " << spec.top_n << ",\n";
    json << "  \"sent\": " << total.sent << ",\n";
    json << "  \"ok\": " << total.ok << ",\n";
    json << "  \"errors\": " << total.errors << ",\n";
    json << "  \"overloaded\": " << total.overloaded << ",\n";
    json << "  \"failures\": " << total.failures << ",\n";
    std::snprintf(buffer, sizeof(buffer), "%.3f", elapsed);
    json << "  \"elapsed_s\": " << buffer << ",\n";
    std::snprintf(buffer, sizeof(buffer), "%.1f", qps);
    json << "  \"qps\": " << buffer << ",\n";
    std::snprintf(buffer, sizeof(buffer), "%.4f", mean_ms);
    json << "  \"mean_ms\": " << buffer << ",\n";
    std::snprintf(buffer, sizeof(buffer), "%.4f", p50);
    json << "  \"p50_ms\": " << buffer << ",\n";
    std::snprintf(buffer, sizeof(buffer), "%.4f", p99);
    json << "  \"p99_ms\": " << buffer << ",\n";
    std::snprintf(buffer, sizeof(buffer), "%.4f", p999);
    json << "  \"p999_ms\": " << buffer << ",\n";
    std::snprintf(buffer, sizeof(buffer), "%.4f", latency_snapshot.max);
    json << "  \"max_ms\": " << buffer << "\n";
    json << "}\n";
    std::ofstream out(json_out, std::ios::trunc);
    if (!out || !(out << json.str()) || !out.flush()) {
      std::fprintf(stderr, "error: cannot write %s\n", json_out.c_str());
      return 1;
    }
  }
  return total.failures == 0 ? 0 : 1;
}
