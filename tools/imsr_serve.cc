// imsr_serve — long-lived sharded recommendation server speaking the
// serve/protocol framing over a Unix-domain or TCP socket.
//
// Boot modes (exactly one):
//   --log=log.csv [--checkpoint=ckpt.bin]
//       dataset boot: load the log, restore the checkpoint (or pretrain
//       in-process when none is given), publish the snapshot, serve.
//       --live=true additionally replays the post-pretrain events of the
//       log through an in-process StreamTrainer on a background thread,
//       so micro-span publishes (with IVF index builds under
//       --retrieval=ivf) land while requests are in flight.
//   --items=N --users=N
//       synthetic boot: a clustered corpus at exactly that scale (an
//       IVF-friendly regime), no files needed —
//       the shape the load harness drives. --publish_ms=T republishes a
//       freshly built snapshot every T milliseconds from a background
//       thread, exercising the publish-while-serving path.
//
// Transport: --socket=/path (unix) or --port=N (tcp on 127.0.0.1;
// 0 binds an ephemeral port). The bound endpoint is printed as
// "listening on ..." once serving, so harnesses can scrape it.
//
// SIGINT/SIGTERM shut down gracefully: accept stops, admitted requests
// drain to their connections, final metrics flush, exit 0.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "core/checkpoint.h"
#include "core/imsr_trainer.h"
#include "core/train_flags.h"
#include "data/log_io.h"
#include "models/msr_model.h"
#include "obs/obs.h"
#include "obs/session.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "stream/event_source.h"
#include "stream/prequential.h"
#include "stream/service.h"
#include "stream/stream_trainer.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/shutdown.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace {

using namespace imsr;  // NOLINT(build/namespaces)

// Clustered corpus + matching interests (the regime IVF is built for):
// item rows land near sqrt(num_items) centers and every user gets 2..4
// interests near centers, like a trained store.
void MakeClusteredState(int64_t num_items, int64_t num_users, int64_t dim,
                        uint64_t seed, models::MsrModel* model,
                        core::InterestStore* store) {
  util::Rng rng(seed);
  const int64_t num_clusters = std::max<int64_t>(
      16, static_cast<int64_t>(std::sqrt(static_cast<double>(num_items))));
  const nn::Tensor centers = nn::Tensor::Randn({num_clusters, dim}, rng);
  nn::Tensor& table = model->embeddings().parameter().mutable_value();
  for (int64_t i = 0; i < num_items; ++i) {
    const int64_t c = static_cast<int64_t>(
        rng.NextBelow(static_cast<uint64_t>(num_clusters)));
    const float* center = centers.data() + c * dim;
    float* row = table.data() + i * dim;
    for (int64_t k = 0; k < dim; ++k) {
      row[k] = center[k] + 0.15f * static_cast<float>(rng.NextGaussian());
    }
  }
  for (int64_t user = 0; user < num_users; ++user) {
    const int64_t k = 2 + user % 3;
    store->Initialize(static_cast<data::UserId>(user), k, dim, 0, rng);
    nn::Tensor interests = nn::Tensor::Uninitialized({k, dim});
    for (int64_t j = 0; j < k; ++j) {
      const int64_t c = static_cast<int64_t>(
          rng.NextBelow(static_cast<uint64_t>(num_clusters)));
      const float* center = centers.data() + c * dim;
      float* row = interests.data() + j * dim;
      for (int64_t d = 0; d < dim; ++d) {
        row[d] = center[d] + 0.1f * static_cast<float>(rng.NextGaussian());
      }
    }
    store->SetInterests(static_cast<data::UserId>(user),
                        std::move(interests));
  }
}

void PublishSnapshot(const models::MsrModel& model,
                     const core::InterestStore& store, int span,
                     bool with_index, serve::SnapshotRegistry* registry) {
  // Timed republish of an unchanged model: share the current snapshot's
  // frozen content instead of re-exporting it — the version still bumps,
  // the data epoch carries forward, and the publisher thread stops
  // stealing a corpus-sized export from the serving core every cycle.
  // Any model/store change falls through to the full build.
  std::shared_ptr<serve::ServingSnapshot> shared =
      serve::BuildSnapshotShared(model, store, span, registry->Current());
  if (shared != nullptr) {
    registry->Publish(std::move(shared));
  } else if (with_index) {
    registry->Publish(
        serve::BuildSnapshot(model, store, span, serve::IvfBuildConfig{}));
  } else {
    registry->Publish(serve::BuildSnapshot(model, store, span));
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagSet flags("imsr_serve",
                      "sharded concurrent recommendation server");
  flags.AddString("socket", "", "unix-domain socket path to listen on");
  flags.AddInt("port", 0,
               "tcp port on 127.0.0.1 when --socket is empty (0 = "
               "ephemeral)");
  // Numeric bounds are checked at parse time, so a bad value fails in
  // milliseconds instead of after a corpus build (or, for a negative
  // --cache_mb, silently wrapping to a huge budget).
  flags.AddInt("shards", 4, "worker shards (hash-routed by user id)",
               /*min=*/1);
  flags.AddInt("queue_cap", 256,
               "per-shard queue bound; full queues reject with overload",
               /*min=*/1);
  flags.AddInt("batch_max", 32,
               "max requests a shard scores per queue drain (1 = the "
               "unbatched pop-score-respond loop)",
               /*min=*/1);
  flags.AddInt("cache_mb", 64,
               "total response-cache budget in MiB, split across shards "
               "(0 disables the cache)",
               /*min=*/0);
  flags.AddInt("top_n", 10, "default items per request", /*min=*/1);
  flags.AddString("rule", "attentive", "scoring rule (attentive | max)");
  flags.AddString("retrieval", "exact", "retrieval mode (exact | ivf)");
  flags.AddInt("nprobe", 0,
               "IVF lists probed per interest (omit = index default)",
               /*min=*/1);
  // Dataset boot.
  flags.AddString("log", "", "CSV interaction log (dataset boot)");
  flags.AddString("checkpoint", "",
                  "checkpoint to restore (omit = pretrain in-process)");
  flags.AddInt("spans", 6, "spans for the dataset split", /*min=*/1);
  flags.AddDouble("alpha", 0.5, "pre-training fraction of the log");
  flags.AddInt("min_interactions", 12,
               "drop users with fewer total interactions");
  flags.AddString("model", "dr", "interest extractor (mind | dr | sa)");
  core::RegisterTrainFlags(&flags, /*with_training=*/false);
  flags.AddInt("pretrain_epochs", 1,
               "epochs for the in-process pretrain fallback");
  flags.AddInt("k0", core::TrainConfig{}.initial_interests,
               "initial interests per user (pretrain fallback)", /*min=*/1);
  flags.AddInt("seed", 7, "RNG seed");
  flags.AddBool("live", false,
                "replay the log's post-pretrain events through an "
                "in-process StreamTrainer while serving");
  flags.AddInt("publish_every", 200,
               "events per micro-span publish under --live", /*min=*/1);
  // Synthetic boot.
  flags.AddInt("items", 0, "synthetic corpus items (synthetic boot)");
  flags.AddInt("users", 0, "synthetic users (synthetic boot)");
  flags.AddInt("publish_ms", 0,
               "republish a fresh snapshot every T ms (synthetic boot)");
  util::RegisterThreadFlag(&flags);
  obs::RegisterObsFlags(&flags);
  flags.ParseOrExit(argc - 1, argv + 1);
  util::ApplyThreadFlag(flags);
  obs::ObsSession obs_session(obs::ObsOptionsFromFlags(flags));

  eval::ScoreRule rule;
  serve::RetrievalMode retrieval;
  std::string error;
  if (!eval::ScoreRuleFromName(flags.GetString("rule"), &rule, &error) ||
      !serve::RetrievalModeFromName(flags.GetString("retrieval"),
                                    &retrieval, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  const bool with_index = retrieval == serve::RetrievalMode::kIVF;
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed"));

  // --- boot: build model + store, publish the first snapshot ----------
  serve::SnapshotRegistry registry;
  models::ModelConfig model_config;
  if (!models::ExtractorKindFromName(flags.GetString("model"),
                                     &model_config.kind, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  core::ReadTrainFlags(flags, &model_config, /*train=*/nullptr);

  std::unique_ptr<models::MsrModel> model;
  core::InterestStore store;
  int span = 0;
  // Live-trainer state (dataset boot only).
  std::vector<data::Interaction> replay;
  std::unique_ptr<data::Dataset> dataset;

  const util::Stopwatch boot_watch;
  if (flags.GetInt("items") > 0) {
    const int64_t items = flags.GetInt("items");
    const int64_t users = flags.GetInt("users") > 0
                              ? flags.GetInt("users")
                              : items;
    model = std::make_unique<models::MsrModel>(model_config, items, seed);
    MakeClusteredState(items, users, flags.GetInt("dim"), seed,
                       model.get(), &store);
    std::printf("synthetic corpus: %lld items, %lld users, dim %lld\n",
                static_cast<long long>(items),
                static_cast<long long>(users),
                static_cast<long long>(flags.GetInt("dim")));
  } else if (!flags.GetString("log").empty()) {
    // Dataset requires the pre-training fraction inside (0, 1).
    const double alpha = flags.GetDouble("alpha");
    if (!(alpha > 0.0 && alpha < 1.0)) {
      std::fprintf(stderr, "error: --alpha must be in (0, 1), got %g\n",
                   alpha);
      return 2;
    }
    const std::string log_path = flags.GetString("log");
    data::InteractionLog log;
    if (!data::ReadInteractionsCsv(log_path, &log, &error)) {
      std::fprintf(stderr, "error reading %s: %s\n", log_path.c_str(),
                   error.c_str());
      return 1;
    }
    data::CompactIds(&log);
    std::vector<data::Interaction> interactions = log.interactions;
    dataset = std::make_unique<data::Dataset>(
        log.num_users, log.num_items, std::move(log.interactions),
        static_cast<int>(flags.GetInt("spans")), alpha,
        static_cast<int>(flags.GetInt("min_interactions")));
    model = std::make_unique<models::MsrModel>(
        model_config, dataset->num_items(), seed);
    core::TrainConfig train;
    train.seed = seed;
    train.pretrain_epochs =
        static_cast<int>(flags.GetInt("pretrain_epochs"));
    train.initial_interests = static_cast<int>(flags.GetInt("k0"));
    core::CheckpointMetadata metadata;
    const std::string checkpoint = flags.GetString("checkpoint");
    if (!checkpoint.empty()) {
      if (!LoadCheckpoint(checkpoint, model.get(), &store, &metadata,
                          &error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 1;
      }
    } else {
      core::ImsrTrainer pretrainer(model.get(), &store, train);
      pretrainer.Pretrain(*dataset);
      metadata.trained_through_span = 0;
    }
    span = metadata.trained_through_span;
    if (flags.GetBool("live")) {
      replay =
          stream::PostPretrainEvents(std::move(interactions), *dataset, alpha);
    }
    std::printf("dataset boot: %d items, %lld users with interests\n",
                dataset->num_items(),
                static_cast<long long>(store.num_users()));
  } else {
    std::fprintf(stderr,
                 "error: pick a boot mode: --log=<csv> or --items=N\n");
    return 2;
  }
  PublishSnapshot(*model, store, span, with_index, &registry);
  std::printf("snapshot v1 published in %.2fs (%s retrieval)\n",
              boot_watch.ElapsedSeconds(),
              serve::RetrievalModeName(retrieval));

  // --- transport ------------------------------------------------------
  util::InstallShutdownHandlers();
  serve::ServerConfig server_config;
  server_config.unix_path = flags.GetString("socket");
  server_config.tcp_port = static_cast<int>(flags.GetInt("port"));
  server_config.shards.num_shards = static_cast<int>(flags.GetInt("shards"));
  server_config.shards.queue_cap =
      static_cast<size_t>(flags.GetInt("queue_cap"));
  server_config.shards.batch_max =
      static_cast<int>(flags.GetInt("batch_max"));
  server_config.shards.cache_bytes =
      static_cast<size_t>(flags.GetInt("cache_mb")) * (1u << 20);
  server_config.shards.serve.default_top_n =
      static_cast<int>(flags.GetInt("top_n"));
  server_config.shards.serve.rule = rule;
  server_config.shards.serve.retrieval = retrieval;
  server_config.shards.serve.nprobe =
      static_cast<int>(flags.GetInt("nprobe"));
  server_config.stop = util::ShutdownFlag();

  serve::Server server(&registry, server_config);
  if (!server.Start(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  if (!server_config.unix_path.empty()) {
    std::printf("listening on unix:%s (%d shards)\n",
                server_config.unix_path.c_str(),
                server_config.shards.num_shards);
  } else {
    std::printf("listening on tcp:127.0.0.1:%d (%d shards)\n",
                server.port(), server_config.shards.num_shards);
  }
  std::fflush(stdout);

  // --- optional live publishes while serving --------------------------
  std::atomic<bool> stop_background{false};
  std::thread background;
  const auto background_stop = [&stop_background] {
    return stop_background.load(std::memory_order_relaxed) ||
           util::ShutdownRequested();
  };
  if (!replay.empty()) {
    // In-process StreamTrainer: micro-span publishes (IVF builds under
    // ivf) land in the shared registry while shards serve from it. The
    // service polls the global shutdown flag, so SIGINT stops training
    // and serving together.
    background = std::thread([&] {
      stream::StreamTrainerConfig trainer_config;
      trainer_config.publish_every = flags.GetInt("publish_every");
      trainer_config.initial_span = span;
      trainer_config.train.seed = seed;
      trainer_config.build_index = with_index;
      stream::StreamTrainer trainer(model.get(), &store, &registry,
                                    trainer_config);
      stream::PrequentialEvaluator evaluator(stream::PrequentialConfig{});
      stream::StreamServiceConfig service_config;
      service_config.threaded = false;
      service_config.stop = util::ShutdownFlag();
      stream::StreamService service(&trainer, &evaluator, &registry,
                                    service_config);
      stream::ReplayEventSource source(std::move(replay));
      const stream::StreamResult result = service.Run(&source);
      std::printf("live trainer done: %llu events, %llu publishes\n",
                  static_cast<unsigned long long>(result.events),
                  static_cast<unsigned long long>(result.publishes));
      std::fflush(stdout);
    });
  } else if (flags.GetInt("publish_ms") > 0) {
    const int64_t interval_ms = flags.GetInt("publish_ms");
    background = std::thread([&, interval_ms] {
      while (!background_stop()) {
        // Sleep in small slices so shutdown is prompt.
        for (int64_t waited = 0;
             waited < interval_ms && !background_stop(); waited += 20) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        if (background_stop()) break;
        PublishSnapshot(*model, store, ++span, with_index, &registry);
        IMSR_COUNTER_ADD("serve/background_publishes", 1);
      }
    });
  }

  server.Run();  // until SIGINT/SIGTERM
  stop_background.store(true, std::memory_order_relaxed);
  if (background.joinable()) background.join();

  const serve::ServerStats stats = server.stats();
  const serve::ShardSetStats shard_stats = server.shard_stats();
  std::printf(
      "served %llu frames (%llu answered, %llu overload-rejected) over "
      "%llu connections; %llu protocol errors; final snapshot v%llu\n",
      static_cast<unsigned long long>(stats.frames),
      static_cast<unsigned long long>(shard_stats.answered),
      static_cast<unsigned long long>(shard_stats.rejected),
      static_cast<unsigned long long>(stats.accepted),
      static_cast<unsigned long long>(stats.protocol_errors),
      static_cast<unsigned long long>(registry.versions_published()));
  // Batch/cache accounting from the shard atomics, so the smoke harness
  // can assert on it in every build (obs included or compiled out).
  const double mean_batch =
      shard_stats.batches > 0
          ? static_cast<double>(shard_stats.answered) /
                static_cast<double>(shard_stats.batches)
          : 0.0;
  std::printf(
      "batching: %llu batches (mean %.2f/drain); cache: %llu hits, "
      "%llu misses, %llu evictions, %llu bytes resident\n",
      static_cast<unsigned long long>(shard_stats.batches), mean_batch,
      static_cast<unsigned long long>(shard_stats.cache_hits),
      static_cast<unsigned long long>(shard_stats.cache_misses),
      static_cast<unsigned long long>(shard_stats.cache_evictions),
      static_cast<unsigned long long>(shard_stats.cache_bytes));
  return 0;
}
