// The two training workloads: stream_live (prequential test-then-learn
// with live micro-span publishes) and span_train (the paper's per-span
// incremental training loop, Table V). Both serve the registry they
// publish to through the same harness as the serving workloads, with a
// low-rate open-loop reader running alongside the training.
#include <algorithm>
#include <cstring>
#include <thread>

#include "core/imsr_trainer.h"
#include "core/interests_expansion.h"
#include "data/sampler.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "harness.h"
#include "serve/snapshot.h"
#include "stream/event_source.h"
#include "stream/prequential.h"
#include "stream/service.h"
#include "stream/stream_trainer.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace core = imsr::core;
namespace data = imsr::data;
namespace serve = imsr::serve;
namespace stream = imsr::stream;

namespace {

constexpr int64_t kDim = 32;
// The training data and the model's initialisation are the Taobao
// preset's and this fixed seed, the same on every --seed: interest
// expansion decides how many interests users grow, and with it the
// scoring cost, so a seed-drawn log would move every training and serving
// time by 20-40% between seeds. --seed draws the readers' schedules.
constexpr uint64_t kTrainSeed = 7;
// Taobao preset scales: 1.5 is 900 users and 3000 items, 4 is 2400 users
// and 8000 items.
constexpr double kStreamScale = 1.5;
constexpr double kSpanScale = 4.0;
// Smoke runs use 150 users and 500 items.
constexpr double kSmallScale = 0.25;
// The test-then-learn pass runs a fixed number of events, so every run
// trains on the same data and publishes the same snapshots whatever the
// host's speed: 24000 events are 120 publishes at one per 200 events.
constexpr uint64_t kStreamEvents = 24000;
constexpr uint64_t kSmokeStreamEvents = 2000;

double ScaleFor(const Options& options, double full) {
  return options.smoke() ? kSmallScale : full;
}

// Generated log, pretrained model and store: the set-up both training
// workloads share. Deterministic in the seed.
struct TrainedBase {
  data::SyntheticDataset synthetic;
  std::unique_ptr<imsr::models::MsrModel> model;
  core::InterestStore store;
  std::vector<data::Interaction> post_pretrain;  // the stream's events
  double setup_s = 0.0;
};

core::TrainConfig TrainConfig() {
  core::TrainConfig train;
  train.pretrain_epochs = 1;
  train.epochs = 3;
  train.seed = kTrainSeed;
  return train;
}

std::unique_ptr<TrainedBase> BuildBase(double scale) {
  const Clock::time_point start = Clock::now();
  auto base = std::make_unique<TrainedBase>();
  data::SyntheticConfig config =
      data::SyntheticConfig::Taobao(scale);
  config.num_incremental_spans = 6;
  base->synthetic = data::GenerateSynthetic(config);
  const data::Dataset& dataset = *base->synthetic.dataset;
  imsr::models::ModelConfig model_config;
  model_config.embedding_dim = kDim;
  model_config.attention_dim = kDim;
  base->model = std::make_unique<imsr::models::MsrModel>(
      model_config, dataset.num_items(), kTrainSeed);
  core::ImsrTrainer pretrainer(base->model.get(), &base->store,
                               TrainConfig());
  pretrainer.Pretrain(dataset);
  const std::vector<data::Interaction> flat =
      data::FlattenDatasetToLog(dataset);
  const int64_t boundary =
      stream::PretrainBoundaryTimestamp(flat, config.alpha);
  for (const data::Interaction& record : flat) {
    if (record.timestamp >= boundary && dataset.user_kept(record.user)) {
      base->post_pretrain.push_back(record);
    }
  }
  base->setup_s = SecondsBetween(start, Clock::now());
  return base;
}

// Reads a registry at a fixed open-loop rate from a one-shard server, on
// its own client thread, while the constructing thread trains. Writes
// beside reads: each publish changes the served content and invalidates
// the small cache.
class BackgroundReader {
 public:
  BackgroundReader(const serve::SnapshotRegistry* registry,
                   const Options& options, double rate, double seconds,
                   uint64_t seed)
      : registry_(registry),
        schedule_(MakePoissonSchedule(rate, seconds,
                                      UserPicker(registry->Current()->Users()),
                                      settings().top_n, seed)),
        server_(registry,
                MakeServerConfig(settings(), SocketPath(options.socket_dir))) {
    if (!server_.ok()) return;
    before_ = server_.shard_stats();
    thread_ = std::thread([this] {
      stats_ = RunOpenLoop(server_.socket_path(), settings().connections,
                           schedule_, registry_, 17, 256);
    });
  }
  ~BackgroundReader() {
    if (thread_.joinable()) thread_.join();
  }
  BackgroundReader(const BackgroundReader&) = delete;
  BackgroundReader& operator=(const BackgroundReader&) = delete;

  // The cache holds a few hundred responses: a publish invalidates it
  // anyway.
  static ServeSettings settings() {
    ServeSettings s;
    s.shards = 1;
    s.cache_bytes = 64u << 10;
    return s;
  }
  bool ok() const { return server_.ok(); }
  const std::string& error() const { return server_.error(); }

  // Waits for the open loop; returns its stats and the server's shard
  // counters over it.
  ClientStats Join(serve::ShardSetStats* shards) {
    if (thread_.joinable()) thread_.join();
    *shards = ShardStatsDelta(before_, server_.shard_stats());
    return stats_;
  }

 private:
  const serve::SnapshotRegistry* registry_;
  Schedule schedule_;
  LiveServer server_;
  serve::ShardSetStats before_;
  ClientStats stats_;
  std::thread thread_;
};

// Serves the trained registry with no training running, from a two-shard
// server as in the serving workloads but with no response cache (every
// request scores the trained snapshot), and fills the serve end-to-end
// metrics. The reader that ran beside the training is reported per layer,
// and its cache counters and kept responses join the report. Returns the
// open-loop schedule for the read-path probes.
ServeSettings TrainedServeSettings() {
  ServeSettings settings;
  settings.cache_bytes = 0;
  return settings;
}

Schedule ServeTrained(const serve::SnapshotRegistry* registry,
                      const Options& options, double rate,
                      const ClientStats& beside,
                      const serve::ShardSetStats& beside_shards,
                      uint64_t seed, Result* result) {
  const ServeSettings settings = TrainedServeSettings();
  const UserPicker picker(registry->Current()->Users());
  const Schedule schedule = MakePoissonSchedule(
      rate, options.seconds * 0.25, picker, settings.top_n, seed);
  LiveServer server(registry,
                    MakeServerConfig(settings, SocketPath(options.socket_dir)));
  if (!server.ok()) {
    result->Check(false, "server start: " + server.error());
    return schedule;
  }
  ReaderReport report = DriveServer(
      &server, registry, settings, schedule, picker,
      options.smoke() ? 0.3 : 1.0, options.seconds * 0.15, seed + 1, result);
  report.shard_open = beside_shards;
  report.open.samples.insert(report.open.samples.end(),
                             beside.samples.begin(), beside.samples.end());
  ReportReader(report, settings, options, result);

  result->Check(beside.failed() == 0,
                "reader beside training: " + beside.first_invalid);
  result->Check(Quantile(beside.late_ms, 0.5) <= 2.0 &&
                    Quantile(beside.late_ms, 0.99) <= 100.0,
                "load generator beside training kept its schedule");
  result->attempted += beside.sent;
  result->failed += beside.failed();
  result->Set("reader.beside_writer_p50_ms", Median(beside.latency_ms));
  result->Set("reader.beside_writer_p99_ms",
              Quantile(beside.latency_ms, 0.99));
  return schedule;
}

stream::StreamTrainerConfig StreamConfig() {
  stream::StreamTrainerConfig config;
  config.publish_every = 200;
  config.expand_every = 5;
  config.micro_epochs = 1;
  config.initial_span = 0;
  config.train = TrainConfig();
  return config;
}

stream::PrequentialConfig PrequentialConfigFor() {
  stream::PrequentialConfig config;
  config.top_n = 20;
  config.window = 500;
  config.retrieval = serve::RetrievalMode::kExact;
  return config;
}

// What one pass of the test-then-learn loop measured.
struct StreamPass {
  uint64_t events = 0;
  bool timed_out = false;
  double loop_s = 0.0;  // busy time: waits for arriving events excluded
  std::vector<double> score_us, consume_us, train_publish_ms, lag_ms;
  double staleness_sum = 0.0;
  double window_hr = 0.0;
  int64_t scored = 0;
  core::ExpansionOutcome expansion;
};

// Score each event against the served snapshot, then learn from it —
// StreamService::Step's order — for `events` events, then flush like
// StreamService::Run. Events arrive at `event_rate` per second in blocks
// of one micro-span (publish_every events); the loop waits for a block
// that is not due yet, so the publishes spread over the pass's fixed
// length, events / event_rate, whatever the host's speed. A host too slow
// to keep up runs the blocks back to back. A pass that runs past
// `timeout_s` stops early and is marked timed out.
StreamPass RunStreamPass(TrainedBase* base, serve::SnapshotRegistry* registry,
                         stream::StreamTrainer* trainer, uint64_t events,
                         double event_rate, double timeout_s, Tracer* tracer) {
  StreamPass pass;
  stream::PrequentialEvaluator evaluator(PrequentialConfigFor());
  stream::ReplayEventSource source(base->post_pretrain);
  std::vector<Clock::time_point> handed;  // events not yet servable
  const uint64_t block = StreamConfig().publish_every;
  const Clock::time_point start = Clock::now();
  stream::StreamEvent event;
  bool more = true;
  while (more && pass.events < events) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(pass.events / event_rate)));
    if (SecondsBetween(start, Clock::now()) > timeout_s) {
      pass.timed_out = true;
      break;
    }
    const Clock::time_point block_start = Clock::now();
    ScopedSpan root(tracer, "stream.loop");
    for (uint64_t i = 0; i < block && pass.events < events; ++i) {
      if (!source.Next(&event)) {
        more = false;
        break;
      }
      const Clock::time_point t0 = Clock::now();
      const uint64_t trained_through = trainer->trained_through_sequence();
      {
        ScopedSpan span(tracer, "stream.score");
        const std::shared_ptr<const serve::ServingSnapshot> snapshot =
            registry->Current();
        evaluator.ScoreEvent(*snapshot, event, trained_through);
      }
      const Clock::time_point t1 = Clock::now();
      pass.staleness_sum +=
          static_cast<double>(event.sequence - 1 - trained_through);
      handed.push_back(t1);
      bool published = false;
      {
        ScopedSpan span(tracer, "stream.consume");
        published = trainer->Consume(event);
        if (published) span.Rename("stream.train_publish");
      }
      const Clock::time_point t2 = Clock::now();
      pass.score_us.push_back(SecondsBetween(t0, t1) * 1e6);
      if (published) {
        pass.train_publish_ms.push_back(SecondsBetween(t1, t2) * 1e3);
        for (const Clock::time_point& t : handed) {
          pass.lag_ms.push_back(SecondsBetween(t, t2) * 1e3);
        }
        handed.clear();
      } else {
        pass.consume_us.push_back(SecondsBetween(t1, t2) * 1e6);
      }
      ++pass.events;
    }
    pass.loop_s += SecondsBetween(block_start, Clock::now());
  }
  const Clock::time_point flush_start = Clock::now();
  if (trainer->Flush()) {
    const Clock::time_point done = Clock::now();
    pass.train_publish_ms.push_back(SecondsBetween(flush_start, done) * 1e3);
    for (const Clock::time_point& t : handed) {
      pass.lag_ms.push_back(SecondsBetween(t, done) * 1e3);
    }
  }
  pass.window_hr = evaluator.Window().hit_ratio;
  pass.scored = evaluator.scored();
  pass.expansion = trainer->expansion_totals();
  return pass;
}

void ReportStreamLayers(const StreamPass& pass, Result* result) {
  result->Set("stream.events_per_s",
              static_cast<double>(pass.events) / pass.loop_s);
  result->Set("stream.publish_ms_p90", Quantile(pass.train_publish_ms, 0.9));
  result->Set("stream.servable_lag_ms_p50", Median(pass.lag_ms));
  result->Set("stream.servable_lag_ms_p99", Quantile(pass.lag_ms, 0.99));
  result->Set("stream.window_hr20", pass.window_hr);
  result->Set("stream.score_us", Median(pass.score_us));
  result->Set("stream.consume_us", Median(pass.consume_us));
  result->Set("stream.train_publish_ms", Median(pass.train_publish_ms));
  result->Set("stream.staleness_events_mean",
              pass.staleness_sum / static_cast<double>(pass.events));
}

const std::vector<std::string> kStreamLayers = {
    "stream.loop", "stream.score", "stream.consume", "stream.train_publish"};
const std::vector<std::string> kSpanLayers = {
    "span.loop",     "core.teacher",   "trainer.prepare",
    "core.expansion", "trainer.epoch", "core.refresh",
    "snapshot.build", "registry.publish", "eval"};

void SetSelfTimes(const Tracer& tracer, const std::vector<std::string>& names,
                  Result* result) {
  const std::map<std::string, double> self = tracer.SelfSeconds();
  for (const std::string& name : names) {
    const auto it = self.find(name);
    result->Set("self." + name + "_s", it == self.end() ? 0.0 : it->second);
  }
}

double KeepRatio(const core::ExpansionOutcome& outcome) {
  const int total = outcome.interests_added + outcome.interests_trimmed;
  return total > 0 ? static_cast<double>(outcome.interests_added) / total
                   : 0.0;
}

}  // namespace

void RunStreamLive(const Options& options, Result* result) {
  imsr::util::SetGlobalThreadCount(options.threads);
  const uint64_t events =
      options.smoke() ? kSmokeStreamEvents : kStreamEvents;
  // The reader beside training covers the pass's paced length.
  const double reader_s = static_cast<double>(events) / options.event_rate;
  const double timeout_s = options.seconds * 5;

  // Two identical set-ups: one for the measured pass, one for the
  // reference (or, traced, for the traced pass).
  std::unique_ptr<TrainedBase> base =
      BuildBase(ScaleFor(options, kStreamScale));
  std::unique_ptr<TrainedBase> twin =
      BuildBase(ScaleFor(options, kStreamScale));
  result->Set("setup_s", Median({base->setup_s, twin->setup_s}));

  serve::SnapshotRegistry registry;
  stream::StreamTrainer trainer(base->model.get(), &base->store, &registry,
                                StreamConfig());
  trainer.PublishInitial();
  StreamPass pass;
  ClientStats beside;
  serve::ShardSetStats beside_shards;
  {
    BackgroundReader reader(&registry, options, options.beside_rate,
                            reader_s, options.seed * 7 + 3);
    if (!reader.ok()) {
      result->Check(false, "server start: " + reader.error());
      return;
    }
    pass = RunStreamPass(base.get(), &registry, &trainer, events,
                         options.event_rate, timeout_s, nullptr);
    beside = reader.Join(&beside_shards);
  }
  const Schedule schedule =
      ServeTrained(&registry, options, options.stream_rate, beside,
                   beside_shards, options.seed * 7 + 5, result);

  result->attempted += events;
  result->failed += events - pass.events;
  result->Check(pass.events == events,
                "stream pass ran all " + std::to_string(events) +
                    " events (log holds " +
                    std::to_string(base->post_pretrain.size()) + ")" +
                    (pass.timed_out ? ", timed out" : ""));
  result->Check(trainer.publish_stats().publishes ==
                    pass.train_publish_ms.size(),
                "PublishStats counts every timed micro-span publish");
  // stream.publish_ms_p90 has ten publishes beyond it from 100 on.
  result->notes["stream_publishes"] =
      std::to_string(pass.train_publish_ms.size());
  result->Set("publish_p50_ms", Median(pass.train_publish_ms));
  ReportStreamLayers(pass, result);
  result->Set("core.pit_keep_ratio", KeepRatio(pass.expansion));
  result->notes["stream_events"] = std::to_string(pass.events);
  result->notes["window_hr20"] = std::to_string(pass.window_hr);

  serve::SnapshotRegistry twin_registry;
  stream::StreamTrainer twin_trainer(twin->model.get(), &twin->store,
                                     &twin_registry, StreamConfig());
  if (!options.trace) {
    // Reference: the library's synchronous StreamService over the same
    // events must reach the same sliding-window HR@20, bit for bit.
    stream::PrequentialEvaluator evaluator(PrequentialConfigFor());
    stream::StreamServiceConfig service_config;
    service_config.threaded = false;
    service_config.max_events = pass.events;
    stream::StreamService service(&twin_trainer, &evaluator, &twin_registry,
                                  service_config);
    stream::ReplayEventSource source(twin->post_pretrain);
    const stream::StreamResult reference = service.Run(&source);
    result->Check(std::memcmp(&reference.final_window.hit_ratio,
                              &pass.window_hr, sizeof(double)) == 0 &&
                      reference.scored == pass.scored,
                  "window HR@20 equals the StreamService::Run reference");
    return;
  }

  // Traced pass over the same events on the twin, with its own reader
  // at the same rate, so traced and untraced wall times compare.
  Tracer tracer;
  tracer.Enable(true);
  twin_trainer.PublishInitial();
  StreamPass traced;
  {
    BackgroundReader reader(&twin_registry, options, options.beside_rate,
                            reader_s, options.seed * 7 + 3);
    result->Check(reader.ok(), "server start: " + reader.error());
    traced = RunStreamPass(twin.get(), &twin_registry, &twin_trainer,
                           pass.events, options.event_rate, timeout_s,
                           &tracer);
    serve::ShardSetStats unused;
    reader.Join(&unused);
  }
  result->Check(traced.window_hr == pass.window_hr,
                "traced pass reproduces the window HR@20");
  // The read path's probes set their own trace totals; the workload's
  // are the training loop's, set after them.
  ProbeReadPath(&registry, base->store, schedule, TrainedServeSettings(),
                result->Get("shard.batch_mean"), result->Get("serve_p50_ms"),
                options, result);
  ProbeSnapshotBuild(*base->model, base->store, 3, result);
  result->Set("trace.untraced_s", pass.loop_s);
  result->Set("trace.traced_s", traced.loop_s);
  result->Set("trace.overhead_s", traced.loop_s - pass.loop_s);
  SetSelfTimes(tracer, kStreamLayers, result);
}

namespace {

// What one pass over spans 1..5 measured.
struct SpanPass {
  std::vector<double> train_s;    // TrainSpan (or its pieces)
  std::vector<double> servable_s; // span start until its snapshot is current
  std::vector<double> hr;  // test HR@20 after each span
  int64_t eval_users = 0;
  double eval_s = 0.0;
  double loop_s = 0.0;     // summed over the spans
  core::ExpansionOutcome expansion;
};

// Trains one set-up span by span, publishing and evaluating after each.
// It calls ImsrTrainer::TrainSpan, or, `piecewise`, TrainSpan's public
// pieces in TrainSpan's order with a span around each. The pieces'
// expansion draws from the benchmark's own RNG, so their model differs
// slightly from TrainSpan's; two piecewise runners on identical set-ups
// train the same model, traced or not.
class SpanRunner {
 public:
  SpanRunner(TrainedBase* base, bool piecewise, Tracer* tracer)
      : base_(base),
        piecewise_(piecewise),
        tracer_(tracer),
        trainer_(base->model.get(), &base->store, TrainConfig()),
        rng_(kTrainSeed * 31 + 5) {
    eval_config_.top_n = 20;
    eval_config_.threads = 1;
    eval_config_.retrieval = serve::RetrievalMode::kExact;
  }

  // Trains `span`, publishes its snapshot to `registry`, then evaluates it
  // on span + 1's test split.
  void Step(int span, serve::SnapshotRegistry* registry) {
    const data::Dataset& dataset = *base_->synthetic.dataset;
    const core::TrainConfig& config = trainer_.config();
    ScopedSpan root(tracer_, "span.loop");
    const Clock::time_point t0 = Clock::now();
    if (!piecewise_) {
      trainer_.TrainSpan(dataset, span);
    } else {
      core::TeacherSnapshot teacher;
      {
        ScopedSpan s(tracer_, "core.teacher");
        teacher = trainer_.SnapshotTeacher(dataset, span);
      }
      std::vector<data::TrainingSample> samples;
      {
        ScopedSpan s(tracer_, "trainer.prepare");
        trainer_.EnsureUserState(dataset, span);
        samples = data::BuildSpanSamples(dataset, span, config.max_history);
      }
      for (int epoch = 0; epoch < config.epochs; ++epoch) {
        if (epoch == 0) {
          ScopedSpan s(tracer_, "core.expansion");
          const core::ExpansionOutcome outcome = core::RunInterestsExpansion(
              base_->model.get(), &base_->store, dataset, span,
              config.expansion, rng_, &trainer_.optimizer());
          pass_.expansion.interests_added += outcome.interests_added;
          pass_.expansion.interests_trimmed += outcome.interests_trimmed;
        }
        ScopedSpan s(tracer_, "trainer.epoch");
        trainer_.TrainEpoch(samples, &teacher);
      }
      ScopedSpan s(tracer_, "core.refresh");
      trainer_.RefreshInterests(dataset, span);
    }
    const Clock::time_point t1 = Clock::now();
    std::shared_ptr<serve::ServingSnapshot> snapshot;
    {
      ScopedSpan s(tracer_, "snapshot.build");
      snapshot = serve::BuildSnapshot(*base_->model, base_->store, span);
    }
    const std::shared_ptr<const serve::ServingSnapshot> held = snapshot;
    {
      ScopedSpan s(tracer_, "registry.publish");
      registry->Publish(std::move(snapshot));
    }
    const Clock::time_point t2 = Clock::now();
    pass_.train_s.push_back(SecondsBetween(t0, t1));
    pass_.servable_s.push_back(SecondsBetween(t0, t2));
    {
      ScopedSpan s(tracer_, "eval");
      const imsr::eval::EvalResult eval =
          imsr::eval::EvaluateSpan(*held, dataset, span + 1, eval_config_);
      pass_.hr.push_back(eval.metrics.hit_ratio);
      pass_.eval_users += eval.metrics.users;
      pass_.eval_s += eval.total_seconds;
    }
    pass_.loop_s += SecondsBetween(t0, Clock::now());
  }

  const SpanPass& Finish() {
    if (!piecewise_) pass_.expansion = trainer_.expansion_totals();
    return pass_;
  }

 private:
  TrainedBase* base_;
  bool piecewise_;
  Tracer* tracer_;
  core::ImsrTrainer trainer_;
  imsr::util::Rng rng_;
  imsr::eval::EvalConfig eval_config_;
  SpanPass pass_;
};

SpanPass RunSpanPass(TrainedBase* base, serve::SnapshotRegistry* registry,
                     int last_span, bool piecewise) {
  SpanRunner runner(base, piecewise, nullptr);
  for (int span = 1; span <= last_span; ++span) runner.Step(span, registry);
  return runner.Finish();
}

void ReportSpanPass(const SpanPass& pass, Result* result) {
  result->Set("span.train_s", Median(pass.train_s));
  result->Set("span.hr20", Mean(pass.hr));
  result->Set("eval.users_per_s",
              static_cast<double>(pass.eval_users) / pass.eval_s);
}

// Layer costs of a traced span pass over spans 1..`spans`.
void ReportSpanLayers(const Tracer& tracer, const data::Dataset& dataset,
                      int spans, Result* result) {
  SetSelfTimes(tracer, kSpanLayers, result);
  const std::map<std::string, double> total = tracer.TotalSeconds();
  const auto at = [&](const std::string& name) {
    const auto it = total.find(name);
    return it == total.end() ? 0.0 : it->second;
  };
  const core::TrainConfig config = TrainConfig();
  size_t samples = 0;
  for (int span = 1; span <= spans; ++span) {
    samples +=
        data::BuildSpanSamples(dataset, span, config.max_history).size();
  }
  result->Set("trainer.epoch_ms",
              at("trainer.epoch") / (spans * config.epochs) * 1e3);
  result->Set("trainer.samples_per_s",
              static_cast<double>(samples) * config.epochs /
                  at("trainer.epoch"));
  result->Set("core.teacher_ms", at("core.teacher") / spans * 1e3);
  result->Set("core.expansion_ms", at("core.expansion") / spans * 1e3);
  result->Set("core.refresh_ms", at("core.refresh") / spans * 1e3);
}

}  // namespace

void RunSpanTrain(const Options& options, Result* result) {
  imsr::util::SetGlobalThreadCount(options.threads);
  constexpr int kLastSpan = 5;
  // The reader beside training covers about as long as spans 1..5 train;
  // traced, both passes train within its window.
  const double reader_s = options.seconds * (options.trace ? 1.8 : 0.9);

  std::unique_ptr<TrainedBase> base =
      BuildBase(ScaleFor(options, kSpanScale));
  std::unique_ptr<TrainedBase> twin =
      BuildBase(ScaleFor(options, kSpanScale));
  result->Set("setup_s", Median({base->setup_s, twin->setup_s}));

  serve::SnapshotRegistry registry;
  registry.Publish(serve::BuildSnapshot(*base->model, base->store, 0));
  SpanPass pass;
  SpanPass traced;
  Tracer tracer;
  tracer.Enable(true);
  ClientStats beside;
  serve::ShardSetStats beside_shards;
  {
    BackgroundReader reader(&registry, options, options.beside_rate, reader_s,
                            options.seed * 7 + 4);
    if (!reader.ok()) {
      result->Check(false, "server start: " + reader.error());
      return;
    }
    if (!options.trace) {
      pass = RunSpanPass(base.get(), &registry, kLastSpan, false);
    } else {
      // Traced runs train piecewise on both set-ups, one untraced and one
      // traced, span by span in turn, each going first on every other
      // span. Both do the same work, so the difference in their wall
      // times is the tracing overhead, and the host's drift and the
      // process's warm-up fall on both alike. The models are identical,
      // so both publish to the one served registry.
      SpanRunner untraced_runner(base.get(), true, nullptr);
      SpanRunner traced_runner(twin.get(), true, &tracer);
      for (int span = 1; span <= kLastSpan; ++span) {
        SpanRunner* first = span % 2 == 1 ? &untraced_runner : &traced_runner;
        SpanRunner* second =
            first == &untraced_runner ? &traced_runner : &untraced_runner;
        first->Step(span, &registry);
        second->Step(span, &registry);
      }
      pass = untraced_runner.Finish();
      traced = traced_runner.Finish();
    }
    beside = reader.Join(&beside_shards);
  }
  const Schedule schedule =
      ServeTrained(&registry, options, options.span_rate, beside,
                   beside_shards, options.seed * 7 + 6, result);

  const double hr = Mean(pass.hr);
  result->attempted += kLastSpan;
  result->Check(hr > 0.0 && hr <= 1.0, "span HR@20 in (0, 1]");
  if (!options.trace) {
    // The second, identical set-up repeats the first span: training is
    // deterministic in the seed, so the HR must match bit for bit.
    serve::SnapshotRegistry twin_registry;
    twin_registry.Publish(
        serve::BuildSnapshot(*twin->model, twin->store, 0));
    const SpanPass again =
        RunSpanPass(twin.get(), &twin_registry, 1, false);
    result->Check(std::memcmp(&again.hr[0], &pass.hr[0], sizeof(double)) == 0,
                  "span 1 HR@20 repeats bit for bit on an identical set-up");
  } else {
    result->Check(traced.hr.size() == pass.hr.size() &&
                      std::memcmp(traced.hr.data(), pass.hr.data(),
                                  pass.hr.size() * sizeof(double)) == 0,
                  "traced pass reproduces every span's HR@20");
  }
  std::vector<double> servable_ms;
  for (double s : pass.servable_s) servable_ms.push_back(s * 1e3);
  result->Set("publish_p50_ms", Median(servable_ms));
  ReportSpanPass(pass, result);
  result->Set("core.pit_keep_ratio", KeepRatio(pass.expansion));
  result->notes["span_hr20"] = std::to_string(hr);
  if (!options.trace) return;

  ProbeReadPath(&registry, base->store, schedule, TrainedServeSettings(),
                result->Get("shard.batch_mean"), result->Get("serve_p50_ms"),
                options, result);
  ProbeSnapshotBuild(*base->model, base->store, 3, result);
  result->Set("trace.untraced_s", pass.loop_s);
  result->Set("trace.traced_s", traced.loop_s);
  result->Set("trace.overhead_s", traced.loop_s - pass.loop_s);
  ReportSpanLayers(tracer, *twin->synthetic.dataset, kLastSpan, result);
}

}  // namespace perfbench
