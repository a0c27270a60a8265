// The read-path report and probes every workload shares, and the two
// serving workloads: serve_hot_exact and serve_cold_ivf.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <atomic>
#include <thread>

#include "eval/ranker.h"
#include "harness.h"
#include "nn/tensor.h"
#include "serve/ivf_index.h"
#include "serve/protocol.h"
#include "serve/recommend.h"
#include "serve/snapshot.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace serve = imsr::serve;
namespace nn = imsr::nn;
using imsr::data::ItemId;
using imsr::data::UserId;

namespace {

using Items = std::vector<std::pair<ItemId, float>>;

bool SameBits(const Items& a, const Items& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first ||
        std::memcmp(&a[i].second, &b[i].second, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

serve::ServeConfig ServeConfigOf(const ServeSettings& settings) {
  serve::ServeConfig config;
  config.default_top_n = settings.top_n;
  config.retrieval = settings.retrieval;
  return config;
}

// Median wall time (seconds) of `fn` over `repeats` calls.
template <typename Fn>
double MedianSeconds(int repeats, Fn&& fn) {
  std::vector<double> times;
  for (int r = 0; r < repeats; ++r) {
    const Clock::time_point start = Clock::now();
    fn();
    times.push_back(SecondsBetween(start, Clock::now()));
  }
  return Median(times);
}

// Records when each request's response reached the sink. Slots are
// written once each, from whichever thread answers; they are read after
// ShardSet::Drain has joined the workers.
class RecordingSink : public serve::ResponseSink {
 public:
  explicit RecordingSink(size_t count) : done_s_(count, -1.0) {}
  void SendResponse(const serve::ResponseFrame& response) override {
    const size_t slot = static_cast<size_t>(response.request_id - 1);
    done_s_[slot] = SecondsBetween(origin, Clock::now());
    if (response.status != serve::ResponseStatus::kOk) {
      failed_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  Clock::time_point origin = Clock::now();
  const std::vector<double>& done_s() const { return done_s_; }
  uint64_t failed() const { return failed_.load(); }

 private:
  std::vector<double> done_s_;
  std::atomic<uint64_t> failed_{0};
};

// Socket-free replay of the open-loop schedule through a ShardSet with
// the live server's settings: sojourn is Submit until the sink is called.
std::vector<double> ShardSojournMs(const serve::SnapshotRegistry* registry,
                                   const ServeSettings& settings,
                                   const Schedule& schedule, double seconds,
                                   Result* result) {
  const serve::ServerConfig config = MakeServerConfig(settings, "");
  size_t count = 0;
  while (count < schedule.due_s.size() && schedule.due_s[count] < seconds) {
    ++count;
  }
  auto sink = std::make_shared<RecordingSink>(count);
  std::vector<double> submit_s(count, 0.0);
  {
    serve::ShardSet shards(registry, config.shards);
    shards.Start();
    sink->origin = Clock::now();
    for (size_t i = 0; i < count; ++i) {
      std::this_thread::sleep_until(
          sink->origin + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 schedule.due_s[i])));
      serve::RequestFrame request;
      request.request_id = i + 1;
      request.user = schedule.users[i];
      request.top_n = schedule.top_n;
      submit_s[i] = SecondsBetween(sink->origin, Clock::now());
      shards.Submit(request, sink);
    }
    shards.Drain();
  }
  result->Check(sink->failed() == 0, "ShardSet replay answered every request");
  std::vector<double> sojourn_ms;
  for (size_t i = 0; i < count; ++i) {
    sojourn_ms.push_back((sink->done_s()[i] - submit_s[i]) * 1e3);
  }
  return sojourn_ms;
}

// One shard's per-request work replayed on the calling thread, batch by
// batch: request encode and decode, cache lookup, RecommendBatch on the
// misses, cache fill, response encode and decode. Encoding is timed under
// protocol.encode, framing and decoding under protocol.decode. Returns the
// wall time and adds to `counts`; fills span totals when the tracer is
// enabled.
struct ReplayCounts {
  uint64_t requests = 0;
  uint64_t scored = 0;      // requests RecommendBatch answered
  uint64_t duplicates = 0;  // scored requests that repeated a batch-mate
};

double ReplayShardWork(const serve::ServingSnapshot& snapshot,
                       const Schedule& schedule, size_t count, int width,
                       const ServeSettings& settings, Tracer* tracer,
                       ReplayCounts* counts) {
  const serve::ServeConfig config = ServeConfigOf(settings);
  const size_t cache_budget = std::max<size_t>(
      1, settings.cache_bytes / static_cast<size_t>(settings.shards));
  serve::ResponseCache cache(cache_budget);
  serve::RecommendScratch scratch;
  std::vector<serve::RecommendRequest> misses;
  std::vector<serve::RecommendResponse> responses;
  std::vector<serve::ResponseFrame> frames;
  std::vector<size_t> miss_frame;
  std::vector<std::vector<uint8_t>> wire;
  serve::FrameAssembler assembler;
  std::vector<uint8_t> payload;
  std::string error;
  const Clock::time_point start = Clock::now();
  ScopedSpan root(tracer, "serve.replay");
  for (size_t begin = 0; begin < count; begin += static_cast<size_t>(width)) {
    const size_t end = std::min(count, begin + static_cast<size_t>(width));
    std::vector<serve::RequestFrame> requests(end - begin);
    wire.resize(requests.size());
    {
      ScopedSpan span(tracer, "protocol.encode");
      for (size_t i = begin; i < end; ++i) {
        serve::RequestFrame request;
        request.request_id = i + 1;
        request.user = schedule.users[i];
        request.top_n = schedule.top_n;
        wire[i - begin] = serve::EncodeRequest(request);
      }
    }
    {
      ScopedSpan span(tracer, "protocol.decode");
      for (size_t i = 0; i < requests.size(); ++i) {
        assembler.Append(wire[i].data(), wire[i].size());
        assembler.Next(&payload, &error);
        serve::TryDecodeRequest(payload, &requests[i], &error);
      }
    }
    frames.assign(requests.size(), serve::ResponseFrame{});
    misses.clear();
    miss_frame.clear();
    {
      ScopedSpan span(tracer, "cache");
      for (size_t i = 0; i < requests.size(); ++i) {
        frames[i].request_id = requests[i].request_id;
        frames[i].snapshot_version = snapshot.version();
        serve::RecommendRequest request{requests[i].user, requests[i].top_n};
        if (const Items* hit =
                cache.Get(serve::MakeResponseCacheKey(snapshot, request,
                                                      config))) {
          frames[i].status = serve::ResponseStatus::kOk;
          frames[i].items = *hit;
          continue;
        }
        miss_frame.push_back(i);
        misses.push_back(request);
      }
    }
    if (!misses.empty()) {
      ScopedSpan span(tracer, "recommend.batch");
      responses.resize(misses.size());
      serve::RecommendBatch(snapshot, misses.data(), misses.size(), config,
                            &scratch, responses.data());
    }
    counts->scored += misses.size();
    for (size_t i = 0; i < misses.size(); ++i) {
      for (size_t j = 0; j < i; ++j) {
        if (misses[j].user == misses[i].user &&
            misses[j].top_n == misses[i].top_n) {
          ++counts->duplicates;
          break;
        }
      }
    }
    {
      ScopedSpan span(tracer, "cache");
      for (size_t r = 0; r < misses.size(); ++r) {
        serve::ResponseFrame& frame = frames[miss_frame[r]];
        frame.status = serve::ResponseStatus::kOk;
        cache.Put(serve::MakeResponseCacheKey(snapshot, misses[r], config),
                  responses[r].items,
                  serve::ResponseCacheEntryBytes(responses[r].items));
        frame.items = std::move(responses[r].items);
      }
    }
    {
      ScopedSpan span(tracer, "protocol.encode");
      for (size_t i = 0; i < frames.size(); ++i) {
        wire[i] = serve::EncodeResponse(frames[i]);
      }
    }
    {
      ScopedSpan span(tracer, "protocol.decode");
      for (const std::vector<uint8_t>& bytes : wire) {
        assembler.Append(bytes.data(), bytes.size());
        assembler.Next(&payload, &error);
        serve::ResponseFrame decoded;
        serve::TryDecodeResponse(payload, &decoded, &error);
      }
    }
    counts->requests += requests.size();
  }
  return SecondsBetween(start, Clock::now());
}

// Completed requests per second of a closed loop, median over windows of
// about `window_s`, so a stall of the host moves one window rather than
// the run.
double MedianWindowRate(const ClientStats& stats, double window_s) {
  const size_t windows =
      std::max<size_t>(1, static_cast<size_t>(stats.seconds / window_s));
  const double width = stats.seconds / static_cast<double>(windows);
  std::vector<double> rates(windows, 0.0);
  for (size_t i = 0; i < stats.latency_ms.size(); ++i) {
    const double done_s = stats.due_s[i] + stats.latency_ms[i] / 1e3;
    rates[std::min(windows - 1, static_cast<size_t>(done_s / width))] +=
        1.0 / width;
  }
  return Median(rates);
}

}  // namespace

serve::ShardSetStats ShardStatsDelta(const serve::ShardSetStats& before,
                                     const serve::ShardSetStats& after) {
  serve::ShardSetStats delta = after;
  delta.submitted -= before.submitted;
  delta.rejected -= before.rejected;
  delta.answered -= before.answered;
  delta.batches -= before.batches;
  delta.cache_hits -= before.cache_hits;
  delta.cache_misses -= before.cache_misses;
  delta.cache_evictions -= before.cache_evictions;
  return delta;
}

ReaderReport DriveServer(LiveServer* server,
                         const serve::SnapshotRegistry* registry,
                         const ServeSettings& settings,
                         const Schedule& schedule, const UserPicker& picker,
                         double warmup_s, double saturate_s, uint64_t seed,
                         Result* result) {
  // Saturating warm-up: lazy set-up (first-touch pages, scratch buffers,
  // idle vCPUs) finishes and the response cache fills before the measured
  // phases.
  const ClientStats warmup =
      RunClosedLoop(server->socket_path(), settings.connections,
                    settings.depth, warmup_s, picker, settings.top_n, seed);
  result->Check(warmup.failed() == 0, "warm-up: " + warmup.first_invalid);
  result->attempted += warmup.sent;
  result->failed += warmup.failed();
  ReaderReport report;
  const serve::ShardSetStats before = server->shard_stats();
  report.open = RunOpenLoop(server->socket_path(), settings.connections,
                            schedule, registry, 17, 256);
  report.shard_open = ShardStatsDelta(before, server->shard_stats());
  report.saturate =
      RunClosedLoop(server->socket_path(), settings.connections,
                    settings.depth, saturate_s, picker, settings.top_n,
                    seed + 1);
  report.server = server->stats();
  return report;
}

void ReportReader(const ReaderReport& report, const ServeSettings& settings,
                  const Options& options, Result* result) {
  const ClientStats& open = report.open;
  const ClientStats& saturate = report.saturate;
  result->Check(open.invalid == 0 && open.errors == 0,
                "open loop: " + open.first_invalid);
  result->Check(saturate.invalid == 0 && saturate.errors == 0,
                "saturating loop: " + saturate.first_invalid);
  result->Check(report.server.protocol_errors == 0,
                "server saw no protocol errors");

  // Open-loop latency, failed requests counted as missing any limit.
  std::vector<double> latency = open.latency_ms;
  latency.insert(latency.end(), open.failed(), 1e9);
  result->Set("serve_p50_ms", Median(latency));
  // The tail is reported per layer: on a 4-vCPU guest, vCPU wake-up
  // stalls move the open loop's p90 by 25-65% and its p99 by 30-220%
  // between runs, more than any bound an end-to-end metric may have. p99
  // is taken within consecutive windows of at least 1000 requests each
  // (ten beyond the percentile), median over windows, so one stall moves
  // one window rather than the run.
  result->Set("serve.p90_ms", Quantile(latency, 0.9));
  const size_t windows = std::max<size_t>(1, latency.size() / 1000);
  std::vector<std::vector<double>> by_window(windows);
  for (size_t i = 0; i < open.latency_ms.size(); ++i) {
    const size_t w = std::min(
        windows - 1, static_cast<size_t>(open.due_s[i] / open.seconds *
                                         static_cast<double>(windows)));
    by_window[w].push_back(open.latency_ms[i]);
  }
  by_window[0].insert(by_window[0].end(), open.failed(), 1e9);
  std::vector<double> window_p99;
  for (const std::vector<double>& window : by_window) {
    window_p99.push_back(Quantile(window, 0.99));
  }
  result->Set("serve.p99_ms", Median(window_p99));
  result->notes["p99_windows"] = std::to_string(windows);
  // Capacity is reported per layer: on this 4-vCPU guest the saturating
  // rate moved by 26-39% between runs, past any end-to-end bound.
  result->Set("serve.max_rps", MedianWindowRate(saturate, 0.25));
  result->notes["open_loop_samples"] = std::to_string(latency.size());
  result->notes["open_loop_rate"] = std::to_string(static_cast<int64_t>(
      std::lround(static_cast<double>(open.sent) / open.seconds)));
  result->notes["saturate_samples"] = std::to_string(saturate.ok);
  result->notes["backlog_grew"] = open.backlog_grew ? "true" : "false";
  if (!options.smoke()) {
    // p99 needs at least ten samples beyond it.
    result->Check(latency.size() >= 1000,
                  "open loop has >= 1000 samples for p99");
  }
  result->attempted += open.sent + saturate.sent;
  result->failed += open.failed() + saturate.failed();

  // Open-loop honesty: a generator that fell behind its own schedule
  // invalidates the run instead of reporting an easier load. A host stall
  // makes a few sends late; a generator that cannot keep up makes the
  // typical send late.
  const double late_p50 = Quantile(open.late_ms, 0.5);
  const double late_p99 = Quantile(open.late_ms, 0.99);
  result->Set("loadgen.late_ms_p99", late_p99);
  result->Check(late_p50 <= 2.0 && late_p99 <= 100.0,
                "load generator kept its schedule (late p50 " +
                    std::to_string(late_p50) + " ms, p99 " +
                    std::to_string(late_p99) + " ms)");
  result->Set("loadgen.sent", static_cast<double>(open.sent));
  result->Set("loadgen.ok", static_cast<double>(open.ok));
  result->Set("loadgen.failed", static_cast<double>(open.failed()));
  result->Set("loadgen.overloaded", static_cast<double>(open.overloaded));

  // Served-to-evaluator seam: replay kept responses in process on the
  // snapshot that answered them; they must match bit for bit.
  const serve::ServeConfig config = ServeConfigOf(settings);
  serve::RecommendScratch scratch;
  size_t mismatched = 0;
  for (const ServedSample& sample : open.samples) {
    serve::RecommendResponse response;
    serve::RecommendOne(*sample.snapshot, {sample.user, sample.top_n},
                        config, &scratch, &response);
    if (!response.ok || !SameBits(response.items, sample.items)) ++mismatched;
  }
  result->Check(!open.samples.empty(), "kept served responses to replay");
  result->Check(mismatched == 0,
                std::to_string(mismatched) + " of " +
                    std::to_string(open.samples.size()) +
                    " served responses differ from RecommendOne");
  result->notes["replayed_responses"] = std::to_string(open.samples.size());

  const serve::ShardSetStats& shards = report.shard_open;
  const double lookups =
      static_cast<double>(shards.cache_hits + shards.cache_misses);
  result->Set("cache.lookups", lookups);
  result->Set("cache.hit_ratio",
              lookups > 0 ? static_cast<double>(shards.cache_hits) / lookups
                          : 0.0);
  result->Set("cache.evictions", static_cast<double>(shards.cache_evictions));
  result->Set("cache.bytes", static_cast<double>(shards.cache_bytes));
  result->Set("shard.batch_mean",
              shards.batches > 0 ? static_cast<double>(shards.answered) /
                                       static_cast<double>(shards.batches)
                                 : 0.0);
  result->Set("shard.rejected", static_cast<double>(shards.rejected));
  result->Set("server.frames", static_cast<double>(report.server.frames));
  result->Set("server.protocol_errors",
              static_cast<double>(report.server.protocol_errors));
}

void ProbeReadPath(const serve::SnapshotRegistry* registry,
                   const imsr::core::InterestStore& store,
                   const Schedule& schedule, const ServeSettings& settings,
                   double batch_width, double client_p50_ms,
                   const Options& options, Result* result) {
  const std::shared_ptr<const serve::ServingSnapshot> snapshot =
      registry->Current();
  const serve::ServingSnapshot& snap = *snapshot;
  const serve::ServeConfig config = ServeConfigOf(settings);
  const int width = std::max(1, static_cast<int>(std::lround(batch_width)));

  // Shard layer: sojourn in a socket-free replay of the same schedule.
  const double replay_s = options.smoke() ? 0.5 : 2.0;
  const std::vector<double> sojourn =
      ShardSojournMs(registry, settings, schedule, replay_s, result);

  // Shard work replayed in process, untraced and traced in turn, twice
  // each: the traced passes' self times, and the difference in summed
  // wall time as overhead.
  const size_t count = std::min(schedule.users.size(),
                                options.smoke() ? size_t{200} : size_t{2000});
  ReplayCounts counts;  // of the traced passes
  ReplayCounts untraced_counts;
  Tracer tracer;
  tracer.Enable(true);
  double untraced_s = 0.0;
  double traced_s = 0.0;
  for (int round = 0; round < 2; ++round) {
    untraced_s += ReplayShardWork(snap, schedule, count, width, settings,
                                  nullptr, &untraced_counts);
    traced_s += ReplayShardWork(snap, schedule, count, width, settings,
                                &tracer, &counts);
  }
  const std::map<std::string, double> self = tracer.SelfSeconds();
  const std::map<std::string, double> total = tracer.TotalSeconds();
  const auto at = [](const std::map<std::string, double>& m,
                     const std::string& key) {
    const auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
  };
  const double requests = static_cast<double>(std::max<uint64_t>(
      counts.requests, 1));
  result->Set("protocol.encode_us",
              at(total, "protocol.encode") / requests * 1e6);
  result->Set("protocol.decode_us",
              at(total, "protocol.decode") / requests * 1e6);
  result->Set("recommend.batch_us_per_req",
              counts.scored > 0 ? at(total, "recommend.batch") /
                                      static_cast<double>(counts.scored) * 1e6
                                : 0.0);
  result->Set("recommend.dedup_ratio",
              counts.scored > 0 ? static_cast<double>(counts.duplicates) /
                                      static_cast<double>(counts.scored)
                                : 0.0);
  result->Set("self.serve.replay_s", at(self, "serve.replay"));
  result->Set("self.protocol_s",
              at(self, "protocol.decode") + at(self, "protocol.encode"));
  result->Set("self.cache_s", at(self, "cache"));
  result->Set("self.recommend_s", at(self, "recommend.batch"));
  result->Set("trace.untraced_s", untraced_s);
  result->Set("trace.traced_s", traced_s);
  result->Set("trace.overhead_s", traced_s - untraced_s);

  // Batch service per request bounds what of the sojourn was service;
  // the rest waited in the shard queue.
  const double service_ms =
      result->Get("recommend.batch_us_per_req") * width / 1e3;
  std::vector<double> waited;
  for (double ms : sojourn) waited.push_back(std::max(0.0, ms - service_ms));
  result->Set("shard.sojourn_ms_p50", Median(sojourn));
  result->Set("shard.sojourn_ms_p99", Quantile(sojourn, 0.99));
  result->Set("shard.queue_wait_ms_p99", Quantile(waited, 0.99));
  result->Set("transport.ms_p50", client_p50_ms - Median(sojourn));

  // Per-request scoring on the same snapshot.
  const size_t probes = std::min<size_t>(schedule.users.size(), 200);
  serve::RecommendScratch scratch;
  serve::RecommendResponse response;
  std::vector<double> one_s;
  for (size_t i = 0; i < probes; ++i) {
    one_s.push_back(MedianSeconds(1, [&] {
      serve::RecommendOne(snap, {schedule.users[i], schedule.top_n}, config,
                          &scratch, &response);
    }));
  }
  result->Set("recommend.one_us", Median(one_s) * 1e6);

  // IVF: a fresh index over the snapshot's table (serve_cold_ivf serves
  // from an index built the same way), searched for the probe users and
  // compared with exact retrieval.
  serve::IvfIndex* built = nullptr;
  std::unique_ptr<serve::IvfIndex> index;
  const double build_s = MedianSeconds(1, [&] {
    index = std::make_unique<serve::IvfIndex>(
        snap.item_embeddings(), store.ExportPacked(), serve::IvfBuildConfig{});
    built = index.get();
  });
  result->Set("ivf.build_ms", build_s * 1e3);
  serve::IvfIndex::Scratch ivf_scratch;
  serve::IvfSearchTotals totals;
  std::vector<double> search_s;
  double recall = 0.0;
  serve::ServeConfig exact = config;
  exact.retrieval = serve::RetrievalMode::kExact;
  for (size_t i = 0; i < probes; ++i) {
    Items top;
    serve::IvfSearchStats stats;
    search_s.push_back(MedianSeconds(1, [&] {
      built->SearchTopN(snap.Interests(schedule.users[i]),
                        snap.item_embeddings(), config.rule, schedule.top_n,
                        0, &ivf_scratch, &top, &stats);
    }));
    totals.Add(stats);
    serve::RecommendOne(snap, {schedule.users[i], schedule.top_n}, exact,
                        &scratch, &response);
    size_t found = 0;
    for (const auto& [item, score] : response.items) {
      for (const auto& candidate : top) found += candidate.first == item;
    }
    recall += static_cast<double>(found) /
              static_cast<double>(std::max<size_t>(1, response.items.size()));
  }
  const double searches = static_cast<double>(std::max<int64_t>(
      totals.searches, 1));
  result->Set("ivf.search_us", Median(search_s) * 1e6);
  result->Set("ivf.probes_per_query", static_cast<double>(totals.probes) /
                                          searches);
  result->Set("ivf.shortlist_per_query",
              static_cast<double>(totals.shortlist) / searches);
  result->Set("ivf.rerank_per_query",
              static_cast<double>(totals.reranked) / searches);
  result->Set("ivf.recall20",
              probes > 0 ? recall / static_cast<double>(probes) : 0.0);

  // nn kernels on the snapshot's shapes. The panel sweep scores `width`
  // users' interests against the whole k-major table, block by block, as
  // RecommendBatch does.
  std::vector<float> packed;
  for (int u = 0; u < width && static_cast<size_t>(u) < schedule.users.size();
       ++u) {
    const nn::ConstMatrixView rows = snap.Interests(schedule.users[u]);
    packed.insert(packed.end(), rows.data, rows.data + rows.rows * rows.cols);
  }
  const int64_t dim = snap.dim();
  const int64_t total_k = static_cast<int64_t>(packed.size()) / dim;
  const int64_t items = snap.num_items();
  const nn::ConstMatrixView table = nn::ViewOf(snap.item_embeddings_kmajor());
  const nn::ConstMatrixView operand = {packed.data(), total_k, dim};
  std::vector<float> tile(static_cast<size_t>(nn::kKMajorPanelRows * total_k));
  const int reps = options.smoke() ? 3 : 15;
  const double panel_s = MedianSeconds(reps, [&] {
    for (int64_t b0 = 0; b0 < items; b0 += nn::kKMajorPanelRows) {
      const int64_t b1 = std::min(items, b0 + nn::kKMajorPanelRows);
      nn::MatMulTransBPanelRangeInto(table, operand, b0, b1, tile.data());
    }
  });
  result->Set("nn.panel_matmul.us", panel_s * 1e6);
  result->Set("nn.panel_matmul.gflops",
              2.0 * static_cast<double>(items * total_k * dim) / panel_s /
                  1e9);
  result->Set("nn.panel_matmul.bytes_per_call",
              4.0 * static_cast<double>(items * dim + total_k * dim +
                                        items * total_k));
  const nn::ConstMatrixView one = snap.Interests(schedule.users[0]);
  imsr::util::Rng rng(options.seed);
  std::vector<int64_t> rows(80);
  for (int64_t& row : rows) {
    row = static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(items)));
  }
  nn::Tensor gathered;
  nn::Tensor logits;
  const double gather_s = MedianSeconds(reps * 20, [&] {
    nn::MatMulTransBGatherInto(snap.item_embeddings(), one, rows.data(),
                               static_cast<int64_t>(rows.size()), &gathered,
                               &logits);
  });
  result->Set("nn.gather_matmul.us", gather_s * 1e6);
  imsr::eval::RankScratch rank;
  const double score_s = MedianSeconds(reps, [&] {
    imsr::eval::ScoreAllItemsInto(one, snap.item_embeddings(), config.rule,
                                  &rank);
  });
  result->Set("nn.score_all.us", score_s * 1e6);
}

void ProbeSnapshotBuild(const imsr::models::MsrModel& model,
                        const imsr::core::InterestStore& store, int repeats,
                        Result* result) {
  serve::SnapshotRegistry scratch;
  std::vector<double> build_s, shared_s, publish_s;
  int64_t bytes = 0;
  for (int r = 0; r < repeats; ++r) {
    Clock::time_point start = Clock::now();
    std::shared_ptr<serve::ServingSnapshot> full =
        serve::BuildSnapshot(model, store, r);
    build_s.push_back(SecondsBetween(start, Clock::now()));
    bytes = full->bytes();
    start = Clock::now();
    scratch.Publish(std::move(full));
    publish_s.push_back(SecondsBetween(start, Clock::now()));
    start = Clock::now();
    std::shared_ptr<serve::ServingSnapshot> shared =
        serve::BuildSnapshotShared(model, store, r, scratch.Current());
    shared_s.push_back(SecondsBetween(start, Clock::now()));
    result->Check(shared != nullptr,
                  "BuildSnapshotShared shares unchanged content");
  }
  result->Set("snapshot.build_ms", Median(build_s) * 1e3);
  result->Set("snapshot.build_shared_ms", Median(shared_s) * 1e3);
  result->Set("snapshot.bytes", static_cast<double>(bytes));
  result->Set("registry.publish_us", Median(publish_s) * 1e6);
}

namespace {

// Clustered corpus and matching interests: item rows near sqrt(items)
// centers, every user 2..4 interests near centers, as a trained store.
void MakeClusteredState(int64_t num_items, int64_t num_users, int64_t dim,
                        uint64_t seed, imsr::models::MsrModel* model,
                        imsr::core::InterestStore* store) {
  imsr::util::Rng rng(seed);
  const int64_t clusters = std::max<int64_t>(
      16, static_cast<int64_t>(std::sqrt(static_cast<double>(num_items))));
  const nn::Tensor centers = nn::Tensor::Randn({clusters, dim}, rng);
  nn::Tensor& table = model->embeddings().parameter().mutable_value();
  for (int64_t i = 0; i < num_items; ++i) {
    const float* center =
        centers.data() +
        static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(clusters))) *
            dim;
    float* row = table.data() + i * dim;
    for (int64_t d = 0; d < dim; ++d) {
      row[d] = center[d] + 0.15f * static_cast<float>(rng.NextGaussian());
    }
  }
  for (int64_t user = 0; user < num_users; ++user) {
    const int64_t k = 2 + user % 3;
    store->Initialize(static_cast<UserId>(user), k, dim, 0, rng);
    nn::Tensor interests = nn::Tensor::Uninitialized({k, dim});
    for (int64_t j = 0; j < k; ++j) {
      const float* center =
          centers.data() +
          static_cast<int64_t>(
              rng.NextBelow(static_cast<uint64_t>(clusters))) *
              dim;
      float* row = interests.data() + j * dim;
      for (int64_t d = 0; d < dim; ++d) {
        row[d] = center[d] + 0.1f * static_cast<float>(rng.NextGaussian());
      }
    }
    store->SetInterests(static_cast<UserId>(user), std::move(interests));
  }
}

struct ServeWorkload {
  int64_t items = 0;
  int64_t users = 0;
  double zipf = 0.0;  // 0 = uniform users
  double rate = 0.0;
  serve::RetrievalMode retrieval = serve::RetrievalMode::kExact;
  int setups = 1;
  size_t cache_bytes = ServeSettings().cache_bytes;
  double warmup_s = 0.0;  // saturating warm-up at full size
};

struct ServeState {
  std::unique_ptr<imsr::models::MsrModel> model;
  imsr::core::InterestStore store;
  serve::SnapshotRegistry registry;
};

void RunServe(const ServeWorkload& workload, const Options& options,
              Result* result) {
  constexpr int64_t kDim = 32;
  imsr::util::SetGlobalThreadCount(options.threads);
  ServeSettings settings;
  settings.retrieval = workload.retrieval;
  settings.cache_bytes = workload.cache_bytes;

  // Set-up: corpus generation, snapshot (and IVF index) build, server
  // ready. Repeated so setup_s is a median; the last one stays up.
  std::vector<double> setup_s;
  std::unique_ptr<ServeState> state;
  std::unique_ptr<LiveServer> server;
  for (int s = 0; s < workload.setups; ++s) {
    server.reset();
    state.reset();
    const Clock::time_point start = Clock::now();
    state = std::make_unique<ServeState>();
    imsr::models::ModelConfig model_config;
    model_config.embedding_dim = kDim;
    model_config.attention_dim = kDim;
    state->model = std::make_unique<imsr::models::MsrModel>(
        model_config, workload.items, options.seed);
    MakeClusteredState(workload.items, workload.users, kDim, options.seed,
                       state->model.get(), &state->store);
    if (workload.retrieval == serve::RetrievalMode::kIVF) {
      state->registry.Publish(serve::BuildSnapshot(
          *state->model, state->store, 0, serve::IvfBuildConfig{}));
    } else {
      state->registry.Publish(
          serve::BuildSnapshot(*state->model, state->store, 0));
    }
    server = std::make_unique<LiveServer>(
        &state->registry,
        MakeServerConfig(settings, SocketPath(options.socket_dir)));
    setup_s.push_back(SecondsBetween(start, Clock::now()));
    if (!server->ok()) {
      result->Check(false, "server start: " + server->error());
      return;
    }
  }
  result->Set("setup_s", Median(setup_s));

  // Writer: content-identical republish on a fixed cadence. The shared
  // build keeps the data epoch, so the response cache stays warm.
  std::atomic<bool> stop{false};
  std::vector<double> publish_ms;
  std::vector<double> shared_ms;
  std::vector<double> publish_us;
  bool shared_ok = true;
  std::thread republisher([&] {
    int span = 0;
    while (!stop.load()) {
      for (int waited = 0; waited < 250 && !stop.load(); waited += 10) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      if (stop.load()) break;
      const Clock::time_point start = Clock::now();
      std::shared_ptr<serve::ServingSnapshot> next =
          serve::BuildSnapshotShared(*state->model, state->store, ++span,
                                     state->registry.Current());
      const Clock::time_point built = Clock::now();
      if (next == nullptr) {
        shared_ok = false;
        break;
      }
      state->registry.Publish(std::move(next));
      const Clock::time_point done = Clock::now();
      publish_ms.push_back(SecondsBetween(start, done) * 1e3);
      shared_ms.push_back(SecondsBetween(start, built) * 1e3);
      publish_us.push_back(SecondsBetween(built, done) * 1e6);
    }
  });

  const double open_s = options.seconds * 0.6;
  const double saturate_s = options.seconds - open_s;
  const UserPicker picker(static_cast<uint64_t>(workload.users),
                          workload.zipf);
  const Schedule schedule = MakePoissonSchedule(
      workload.rate, open_s, picker, settings.top_n, options.seed * 7 + 1);
  const ReaderReport report = DriveServer(
      server.get(), &state->registry, settings, schedule, picker,
      options.smoke() ? 0.5 : workload.warmup_s, saturate_s,
      options.seed * 7 + 2, result);
  stop.store(true);
  republisher.join();
  server.reset();

  result->Check(shared_ok, "content-identical republish shared its content");
  result->Check(!publish_ms.empty(), "republished during the run");
  result->Set("publish_p50_ms", Median(publish_ms));
  result->attempted += publish_ms.size();
  ReportReader(report, settings, options, result);
  // The open loop ran beside this workload's writer, the republisher.
  result->Set("reader.beside_writer_p50_ms", result->Get("serve_p50_ms"));
  result->Set("reader.beside_writer_p99_ms", result->Get("serve.p99_ms"));
  if (options.trace) {
    ProbeReadPath(&state->registry, state->store, schedule, settings,
                  result->Get("shard.batch_mean"), result->Get("serve_p50_ms"),
                  options, result);
    ProbeSnapshotBuild(*state->model, state->store, 2, result);
    // The live republishes are the shared builds this workload runs.
    result->Set("snapshot.build_shared_ms", Median(shared_ms));
    result->Set("registry.publish_us", Median(publish_us));
  }
}

}  // namespace

void RunServeHotExact(const Options& options, Result* result) {
  ServeWorkload workload;
  workload.items = options.smoke() ? 20000 : 100000;
  workload.users = options.smoke() ? 40000 : 200000;
  workload.zipf = 0.99;
  workload.rate = options.hot_rate;
  workload.retrieval = serve::RetrievalMode::kExact;
  workload.setups = 3;
  // About a hundred responses: a quarter of the open loop's requests hit.
  // The median is then a miss's latency, which follows the scoring work.
  // With half the requests hitting or more, it was a hit's sub-millisecond
  // latency, or fell between a hit's and a miss's, and moved 2-3x between
  // runs with the host's thread wake-ups and the exact hit ratio.
  workload.cache_bytes = 32u << 10;
  workload.warmup_s = 2.0;
  RunServe(workload, options, result);
}

void RunServeColdIvf(const Options& options, Result* result) {
  ServeWorkload workload;
  workload.items = options.smoke() ? 30000 : 300000;
  workload.users = options.smoke() ? 100000 : 1000000;
  workload.zipf = 0.0;
  workload.rate = options.cold_rate;
  workload.retrieval = serve::RetrievalMode::kIVF;
  workload.setups = 2;
  workload.warmup_s = 2.0;
  RunServe(workload, options, result);
}

}  // namespace perfbench
