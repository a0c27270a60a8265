// imsr_cli — command-line driver for the IMSR pipeline on CSV interaction
// logs. Subcommands:
//
//   generate   --preset=taobao --scale=0.3 --out=log.csv
//              synthesise an interaction log (see data/synthetic.h)
//   stats      --log=log.csv [--spans=6] [--alpha=0.5]
//              Table-II-style statistics of a log
//   pretrain   --log=log.csv --checkpoint=ckpt.bin [--model=dr] [--dim=32]
//              train on the pre-training span, write a checkpoint.
//              --batch_size=B sets the optimizer minibatch
//   train-span --log=log.csv --checkpoint=ckpt.bin --span=1
//              one incremental IMSR update (EIR+NID+PIT), checkpoint back
//
// Checkpoint-writing commands accept --keep_checkpoints=N to rotate the
// previous checkpoint to ckpt.bin.1 … ckpt.bin.N before saving, so span-t
// state survives even a failed span-t+1 save (saves are additionally
// atomic: tmp file + fsync + rename).
//   evaluate   --log=log.csv --checkpoint=ckpt.bin --test_span=2
//              HR@N / NDCG@N of the stored interests on a span's test
//              items, scored over a published ServingSnapshot (identical
//              to the live-model path bitwise)
//   recommend  --log=log.csv --checkpoint=ckpt.bin --user=5 [--top_n=10]
//              top-N items for one user from the stored interests
//   recommend  --log=log.csv --checkpoint=ckpt.bin
//              --recommend_requests=req.txt --recommend_out=top.csv
//              batch serving: publishes the checkpoint state as a
//              ServingSnapshot and answers every request in req.txt (one
//              "user[,top_n]" per line, '#' comments allowed) through the
//              serve::Recommend fan-out; per-user errors land in the
//              output as error rows, a malformed request line is a usage
//              error. --rule=attentive|max and --threads=N apply.
//   stream     --log=log.csv [--checkpoint=ckpt.bin] [--mode=imsr|ft]
//              online loop: replays the post-pretrain events of the log
//              through prequential (test-then-learn) evaluation — each
//              event is scored against the live ServingSnapshot before a
//              micro-span trainer learns from it and republishes every
//              --publish_every events. --window=N sizes the sliding
//              recall window, --queue_cap=N bounds the ingest queue
//              (full queue blocks the producer), --expand_every=K runs
//              NID/PIT every K publishes, --max_events=N truncates the
//              stream, --curve_out=csv / --summary_out=json export the
//              recall curve and run summary. Without --checkpoint the
//              pre-training span is trained in-process first.
//
// The model configuration (--model, --dim) must match across commands
// that share a checkpoint; optimiser state is rebuilt per invocation (the
// paper's per-span fine-tuning restarts Adam each span as well).
//
// Retrieval (evaluate / recommend / stream): --retrieval=exact|ivf picks
// brute-force or IVF approximate retrieval; under ivf an index is built
// into every published snapshot and --nprobe=N sets the lists probed per
// interest (default: the index's own default).
//
// Observability (any subcommand): --metrics_out=metrics.json (or .csv)
// exports the metrics registry at exit, --trace_out=trace.json exports a
// chrome://tracing-loadable trace, --metrics_interval=SECONDS rewrites
// the metrics file periodically during long runs. When any of these is
// set a summary table of all recorded metrics is printed at exit.
#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/checkpoint.h"
#include "core/imsr_trainer.h"
#include "core/train_flags.h"
#include "data/log_io.h"
#include "data/stats.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "eval/ranker.h"
#include "obs/obs.h"
#include "obs/session.h"
#include "serve/recommend.h"
#include "serve/registry.h"
#include "serve/snapshot.h"
#include "stream/event_source.h"
#include "stream/prequential.h"
#include "stream/service.h"
#include "stream/stream_trainer.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/shutdown.h"
#include "util/thread_pool.h"

namespace {

using namespace imsr;  // NOLINT(build/namespaces)

int Usage() {
  std::fprintf(
      stderr,
      "usage: imsr_cli <generate|stats|pretrain|train-span|evaluate|"
      "recommend|stream> [--flags]\n"
      "run 'imsr_cli <subcommand> --help' for that subcommand's flags.\n");
  return 2;
}

// --- per-subcommand flag registries -----------------------------------
// Every subcommand builds a util::FlagSet from these helpers, so
// `imsr_cli <cmd> --help` renders the exact flag table that command
// accepts, and the Cmd* bodies read each flag through its registered
// default. Flags whose default depends on other state (--span,
// --test_span, generate's --seed, --curve_every) are read through Has().

// Flags every subcommand accepts: threading + observability exports.
void RegisterCommonFlags(util::FlagSet* set) {
  util::RegisterThreadFlag(set);
  obs::RegisterObsFlags(set);
}

void RegisterDatasetFlags(util::FlagSet* set) {
  set->AddString("log", "", "CSV interaction log (required)");
  set->AddInt("spans", 6, "incremental spans to split the log into",
              /*min=*/1);
  set->AddDouble("alpha", 0.5, "pre-training fraction of the log");
  set->AddInt("min_interactions", 12,
              "drop users with fewer total interactions");
}

// --model plus the shared --dim, and with `training` the shared
// training knobs and the CLI's own.
void RegisterModelFlags(util::FlagSet* set, bool training) {
  set->AddString("model", "dr",
                 "interest extractor (mind | dr | sa)");
  core::RegisterTrainFlags(set, training);
  if (!training) return;
  set->AddInt("batch_size", core::TrainConfig{}.batch_size,
              "optimizer minibatch size", /*min=*/1);
  set->AddBool("early_stopping", false, "stop a span on loss plateau");
  set->AddInt("seed", 7, "RNG seed for init and sampling");
}

void RegisterCheckpointFlags(util::FlagSet* set, bool writes) {
  set->AddString("checkpoint", "", "checkpoint file (required)");
  if (writes) {
    set->AddInt("keep_checkpoints", 0,
                "rotate N previous checkpoints before saving");
  }
}

// --top_n, --rule and the retrieval pair of the scoring commands.
void RegisterScoringFlags(util::FlagSet* set, int64_t top_n,
                          const std::string& top_n_help) {
  set->AddInt("top_n", top_n, top_n_help, /*min=*/1);
  set->AddString("rule", "attentive", "scoring rule (attentive | max)");
  set->AddString("retrieval", "exact", "retrieval mode (exact | ivf)");
  set->AddInt("nprobe", 0,
              "IVF lists probed per interest (omit = index default)",
              /*min=*/1);
}

// Builds the registry for `command`; false for unknown subcommands.
bool BuildFlagSet(const std::string& command, util::FlagSet* out) {
  if (command == "generate") {
    util::FlagSet set("imsr_cli generate",
                      "synthesise a CSV interaction log");
    set.AddString("preset", "taobao",
                  "dataset preset (electronics | clothing | books | taobao)");
    set.AddDouble("scale", 0.3, "fraction of the preset's full size");
    set.AddInt("seed", 0, "generator seed (omit to keep the preset's)");
    set.AddString("out", "", "output CSV path (required)");
    RegisterCommonFlags(&set);
    *out = std::move(set);
    return true;
  }
  if (command == "stats") {
    util::FlagSet set("imsr_cli stats",
                      "Table-II-style statistics of a log");
    RegisterDatasetFlags(&set);
    RegisterCommonFlags(&set);
    *out = std::move(set);
    return true;
  }
  if (command == "pretrain" || command == "train-span") {
    util::FlagSet set(
        "imsr_cli " + command,
        command == "pretrain"
            ? "train on the pre-training span, write a checkpoint"
            : "one incremental IMSR update (EIR+NID+PIT)");
    RegisterDatasetFlags(&set);
    RegisterModelFlags(&set, /*training=*/true);
    RegisterCheckpointFlags(&set, /*writes=*/true);
    if (command == "train-span") {
      set.AddInt("span", 0,
                 "span to train (omit = next after the checkpoint)");
    }
    RegisterCommonFlags(&set);
    *out = std::move(set);
    return true;
  }
  if (command == "evaluate") {
    util::FlagSet set("imsr_cli evaluate",
                      "HR@N / NDCG@N over a published snapshot");
    RegisterDatasetFlags(&set);
    RegisterModelFlags(&set, /*training=*/false);
    RegisterCheckpointFlags(&set, /*writes=*/false);
    set.AddInt("test_span", 0,
               "span to test (omit = next after the checkpoint)");
    RegisterScoringFlags(&set, 20, "ranking cutoff N");
    RegisterCommonFlags(&set);
    *out = std::move(set);
    return true;
  }
  if (command == "recommend") {
    util::FlagSet set("imsr_cli recommend",
                      "top-N items for one user or a request file");
    RegisterDatasetFlags(&set);
    RegisterModelFlags(&set, /*training=*/false);
    RegisterCheckpointFlags(&set, /*writes=*/false);
    set.AddInt("user", -1, "user id to recommend for");
    set.AddString("recommend_requests", "",
                  "request file ('user[,top_n]' per line) for batch mode");
    set.AddString("recommend_out", "",
                  "output CSV for batch mode (required with requests)");
    RegisterScoringFlags(&set, 10, "items to return per request");
    RegisterCommonFlags(&set);
    *out = std::move(set);
    return true;
  }
  if (command == "stream") {
    util::FlagSet set("imsr_cli stream",
                      "online prequential loop with live publishes");
    RegisterDatasetFlags(&set);
    RegisterModelFlags(&set, /*training=*/true);
    RegisterCheckpointFlags(&set, /*writes=*/false);
    set.AddString("mode", "imsr",
                  "training mode (imsr | ft fine-tuning baseline)");
    set.AddInt("publish_every", 200, "events between snapshot publishes",
               /*min=*/1);
    set.AddInt("expand_every", 5, "publishes between NID/PIT expansions");
    set.AddInt("micro_epochs", 1, "epochs per micro-span", /*min=*/1);
    set.AddInt("window", 500, "sliding recall window size", /*min=*/1);
    set.AddInt("curve_every", 0,
               "curve sample cadence (omit = publish_every / 2)");
    set.AddInt("queue_cap", 1024, "ingest queue bound (full blocks)",
               /*min=*/1);
    set.AddInt("max_events", 0, "truncate the stream (0 = all)");
    set.AddBool("threaded", true,
                "run producer and trainer on separate threads");
    set.AddString("curve_out", "", "write the recall curve CSV here");
    set.AddString("summary_out", "", "write the run summary JSON here");
    RegisterScoringFlags(&set, 20, "prequential ranking cutoff N");
    RegisterCommonFlags(&set);
    *out = std::move(set);
    return true;
  }
  return false;
}

// Fills `model` from --model and --dim and, when `train` is non-null,
// `train` from the training flags. A bad --model value prints the valid
// names and returns false (usage error) instead of aborting.
bool ConfigFromFlags(const util::FlagSet& flags, models::ModelConfig* model,
                     core::TrainConfig* train) {
  std::string error;
  if (!models::ExtractorKindFromName(flags.GetString("model"), &model->kind,
                                     &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return false;
  }
  core::ReadTrainFlags(flags, model, train);
  if (train != nullptr) {
    train->batch_size = static_cast<int>(flags.GetInt("batch_size"));
    train->early_stopping = flags.GetBool("early_stopping");
    train->seed = static_cast<uint64_t>(flags.GetInt("seed"));
  }
  return true;
}

// Reads --rule (attentive | max); a typo prints the valid names and
// returns false.
bool ScoreRuleFromFlags(const util::FlagSet& flags, eval::ScoreRule* rule) {
  std::string error;
  if (!eval::ScoreRuleFromName(flags.GetString("rule"), rule, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return false;
  }
  return true;
}

// Reads --retrieval (exact | ivf) and --nprobe (its bound is checked at
// parse time); an unknown --retrieval spelling is a usage error.
bool RetrievalFromFlags(const util::FlagSet& flags,
                        serve::RetrievalMode* mode, int* nprobe) {
  std::string error;
  if (!serve::RetrievalModeFromName(flags.GetString("retrieval"), mode,
                                    &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return false;
  }
  *nprobe = static_cast<int>(flags.GetInt("nprobe"));
  return true;
}

// Loads the CSV log and builds the span-structured dataset; with
// `interactions` also hands back a copy of the compacted log. Returns 0,
// or the command's exit status on failure: 2 for a usage error (no
// --log, or an --alpha outside (0, 1), rejected before the log is read),
// 1 for an unreadable log.
int LoadDataset(const util::FlagSet& flags,
                std::unique_ptr<data::Dataset>* dataset,
                std::vector<data::Interaction>* interactions = nullptr) {
  const double alpha = flags.GetDouble("alpha");
  if (!(alpha > 0.0 && alpha < 1.0)) {
    std::fprintf(stderr, "error: --alpha must be in (0, 1), got %g\n",
                 alpha);
    return 2;
  }
  const std::string path = flags.GetString("log");
  if (path.empty()) {
    std::fprintf(stderr, "error: --log=<csv> is required\n");
    return 2;
  }
  data::InteractionLog log;
  std::string error;
  if (!data::ReadInteractionsCsv(path, &log, &error)) {
    std::fprintf(stderr, "error reading %s: %s\n", path.c_str(),
                 error.c_str());
    return 1;
  }
  data::CompactIds(&log);
  if (interactions != nullptr) *interactions = log.interactions;
  *dataset = std::make_unique<data::Dataset>(
      log.num_users, log.num_items, std::move(log.interactions),
      static_cast<int>(flags.GetInt("spans")), alpha,
      static_cast<int>(flags.GetInt("min_interactions")));
  return 0;
}

int CmdGenerate(const util::FlagSet& flags) {
  data::SyntheticConfig config;
  std::string error;
  if (!data::SyntheticConfig::PresetFromName(flags.GetString("preset"),
                                             flags.GetDouble("scale"),
                                             &config, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  if (flags.Has("seed")) {
    config.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  }
  const std::string out = flags.GetString("out");
  if (out.empty()) {
    std::fprintf(stderr, "error: --out=<csv> is required\n");
    return 2;
  }
  // Re-generate the raw log (the generator emits a Dataset; the shared
  // flattener rebuilds flat interactions from the span structure, laid
  // out so re-splitting with the default alpha=0.5 and the same span
  // count reproduces the structure).
  const data::SyntheticDataset synthetic = GenerateSynthetic(config);
  const std::vector<data::Interaction> interactions =
      FlattenDatasetToLog(*synthetic.dataset);
  if (!WriteInteractionsCsv(out, interactions)) {
    std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %zu interactions (%d users, %d items) to %s\n",
              interactions.size(), config.num_users, config.num_items,
              out.c_str());
  return 0;
}

int CmdStats(const util::FlagSet& flags) {
  std::unique_ptr<data::Dataset> dataset;
  if (const int status = LoadDataset(flags, &dataset)) return status;
  const data::DatasetStats stats = ComputeStats(*dataset);
  util::Table table({"metric", "value"});
  table.AddRow({"users (kept)", std::to_string(stats.num_users)});
  table.AddRow({"items seen", std::to_string(stats.num_items_seen)});
  table.AddRow({"mean sequence length",
                util::FormatDouble(stats.mean_sequence_length, 1)});
  for (size_t span = 0; span < stats.span_interactions.size(); ++span) {
    table.AddRow({span == 0 ? "pre-training interactions"
                            : "span " + std::to_string(span) +
                                  " interactions",
                  std::to_string(stats.span_interactions[span])});
  }
  std::printf("%s", table.ToPrettyString().c_str());
  return 0;
}

int CmdPretrain(const util::FlagSet& flags) {
  std::unique_ptr<data::Dataset> dataset;
  if (const int status = LoadDataset(flags, &dataset)) return status;
  const std::string checkpoint = flags.GetString("checkpoint");
  if (checkpoint.empty()) {
    std::fprintf(stderr, "error: --checkpoint=<file> is required\n");
    return 2;
  }
  core::TrainConfig train;
  models::ModelConfig model_config;
  if (!ConfigFromFlags(flags, &model_config, &train)) return 2;
  models::MsrModel model(model_config, dataset->num_items(), train.seed);
  core::InterestStore store;
  core::ImsrTrainer trainer(&model, &store, train);
  trainer.Pretrain(*dataset);
  core::CheckpointMetadata metadata;
  metadata.trained_through_span = 0;
  metadata.note = "imsr_cli pretrain";
  core::RotateCheckpoints(
      checkpoint, static_cast<int>(flags.GetInt("keep_checkpoints")));
  std::string error;
  if (!SaveCheckpoint(checkpoint, model, store, metadata, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::printf("pretrained on span 0 (%lld users with interests); wrote %s\n",
              static_cast<long long>(store.num_users()),
              checkpoint.c_str());
  return 0;
}

int CmdTrainSpan(const util::FlagSet& flags) {
  std::unique_ptr<data::Dataset> dataset;
  if (const int status = LoadDataset(flags, &dataset)) return status;
  const std::string checkpoint = flags.GetString("checkpoint");
  if (checkpoint.empty()) {
    std::fprintf(stderr, "error: --checkpoint=<file> is required\n");
    return 2;
  }
  core::TrainConfig train;
  models::ModelConfig model_config;
  if (!ConfigFromFlags(flags, &model_config, &train)) return 2;
  models::MsrModel model(model_config, dataset->num_items(), train.seed);
  core::InterestStore store;
  core::CheckpointMetadata metadata;
  std::string error;
  if (!LoadCheckpoint(checkpoint, &model, &store, &metadata, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  const int span = flags.Has("span")
                       ? static_cast<int>(flags.GetInt("span"))
                       : metadata.trained_through_span + 1;
  if (span < 1 || span > dataset->num_incremental_spans()) {
    std::fprintf(stderr, "error: --span must be in [1, %d]\n",
                 dataset->num_incremental_spans());
    return 2;
  }
  core::ImsrTrainer trainer(&model, &store, train);
  trainer.TrainSpan(*dataset, span);
  metadata.trained_through_span = span;
  metadata.note = "imsr_cli train-span";
  core::RotateCheckpoints(
      checkpoint, static_cast<int>(flags.GetInt("keep_checkpoints")));
  if (!SaveCheckpoint(checkpoint, model, store, metadata, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::printf(
      "trained span %d (IMSR: +%d interests for %d users, %d trimmed); "
      "avg K %.2f; wrote %s\n",
      span, trainer.expansion_totals().interests_added,
      trainer.expansion_totals().users_expanded,
      trainer.expansion_totals().interests_trimmed,
      store.AverageInterests(), checkpoint.c_str());
  return 0;
}

// Publishes the loaded model as the snapshot a server would read, with
// an IVF index when `retrieval` asks for one, and returns it.
std::shared_ptr<const serve::ServingSnapshot> PublishedSnapshot(
    const models::MsrModel& model, const core::InterestStore& store,
    int trained_through_span, serve::RetrievalMode retrieval) {
  serve::SnapshotRegistry registry;
  registry.Publish(retrieval == serve::RetrievalMode::kIVF
                       ? serve::BuildSnapshot(model, store,
                                              trained_through_span,
                                              serve::IvfBuildConfig{})
                       : serve::BuildSnapshot(model, store,
                                              trained_through_span));
  return registry.Current();
}

int CmdEvaluate(const util::FlagSet& flags) {
  std::unique_ptr<data::Dataset> dataset;
  if (const int status = LoadDataset(flags, &dataset)) return status;
  const std::string checkpoint = flags.GetString("checkpoint");
  if (checkpoint.empty()) {
    std::fprintf(stderr, "error: --checkpoint=<file> is required\n");
    return 2;
  }
  models::ModelConfig model_config;
  if (!ConfigFromFlags(flags, &model_config, /*train=*/nullptr)) return 2;
  models::MsrModel model(model_config, dataset->num_items(), 1);
  core::InterestStore store;
  core::CheckpointMetadata metadata;
  std::string error;
  if (!LoadCheckpoint(checkpoint, &model, &store, &metadata, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  eval::EvalConfig config;
  config.top_n = static_cast<int>(flags.GetInt("top_n"));
  if (!ScoreRuleFromFlags(flags, &config.rule)) return 2;
  // <= 0 defers to the process-wide pool size (--threads).
  config.threads = static_cast<int>(flags.GetInt("threads"));
  if (!RetrievalFromFlags(flags, &config.retrieval, &config.nprobe)) {
    return 2;
  }
  const int test_span = flags.Has("test_span")
                            ? static_cast<int>(flags.GetInt("test_span"))
                            : metadata.trained_through_span + 1;
  if (test_span < 0 || test_span >= dataset->num_spans()) {
    std::fprintf(stderr, "error: --test_span must be in [0, %d]\n",
                 dataset->num_spans() - 1);
    return 2;
  }
  // Score over a published snapshot — the exact state the serving path
  // reads, bitwise identical to the live-model path. Under --retrieval=ivf
  // the snapshot carries an index and ranks run serving-accurate.
  const eval::EvalResult result = EvaluateSpan(
      *PublishedSnapshot(model, store, metadata.trained_through_span,
                         config.retrieval),
      *dataset, test_span, config);
  std::printf("span %d: HR@%d %.4f  NDCG@%d %.4f  (%lld users, %.1f ms "
              "total)\n",
              test_span, config.top_n, result.metrics.hit_ratio,
              config.top_n, result.metrics.ndcg,
              static_cast<long long>(result.metrics.users),
              result.total_seconds * 1e3);
  if (result.ivf.searches > 0) {
    const double searches = static_cast<double>(result.ivf.searches);
    std::printf("ivf: %lld searches, mean probes %.1f, mean shortlist "
                "%.1f, mean reranked %.1f\n",
                static_cast<long long>(result.ivf.searches),
                static_cast<double>(result.ivf.probes) / searches,
                static_cast<double>(result.ivf.shortlist) / searches,
                static_cast<double>(result.ivf.reranked) / searches);
  }
  return 0;
}

// Parses one "user[,top_n]" request line (surrounding spaces allowed).
// Returns false on any malformed token.
bool ParseRequestLine(const std::string& line,
                      serve::RecommendRequest* request) {
  std::string trimmed = line;
  while (!trimmed.empty() && std::isspace(
             static_cast<unsigned char>(trimmed.back()))) {
    trimmed.pop_back();
  }
  size_t begin = 0;
  while (begin < trimmed.size() && std::isspace(
             static_cast<unsigned char>(trimmed[begin]))) {
    ++begin;
  }
  trimmed = trimmed.substr(begin);
  const size_t comma = trimmed.find(',');
  const std::string user_token = trimmed.substr(0, comma);
  auto parse_int = [](const std::string& token, int64_t* out) {
    const char* first = token.data();
    const char* last = token.data() + token.size();
    auto [ptr, ec] = std::from_chars(first, last, *out);
    return ec == std::errc() && ptr == last && !token.empty();
  };
  int64_t user = 0;
  if (!parse_int(user_token, &user) || user < 0) return false;
  request->user = static_cast<data::UserId>(user);
  request->top_n = 0;
  if (comma != std::string::npos) {
    int64_t top_n = 0;
    if (!parse_int(trimmed.substr(comma + 1), &top_n) || top_n <= 0) {
      return false;
    }
    request->top_n = static_cast<int>(top_n);
  }
  return true;
}

// Batch-serving mode of `recommend`: requests file -> top-N CSV, answered
// from a published ServingSnapshot via the serve::Recommend fan-out.
int RecommendBatch(const util::FlagSet& flags, const models::MsrModel& model,
                   const core::InterestStore& store,
                   int trained_through_span) {
  const std::string requests_path = flags.GetString("recommend_requests");
  const std::string out_path = flags.GetString("recommend_out");
  if (out_path.empty()) {
    std::fprintf(stderr,
                 "error: --recommend_requests needs --recommend_out=<csv>\n");
    return 2;
  }
  std::ifstream in(requests_path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read %s\n", requests_path.c_str());
    return 1;
  }
  std::vector<serve::RecommendRequest> requests;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    // Blank lines and '#' comments are allowed.
    size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    serve::RecommendRequest request;
    if (!ParseRequestLine(line, &request)) {
      std::fprintf(stderr,
                   "error: %s:%d: malformed request '%s' (expected "
                   "'user[,top_n]')\n",
                   requests_path.c_str(), line_number, line.c_str());
      return 2;
    }
    requests.push_back(request);
  }

  serve::ServeConfig config;
  config.default_top_n = static_cast<int>(flags.GetInt("top_n"));
  eval::ScoreRule rule;
  if (!ScoreRuleFromFlags(flags, &rule)) return 2;
  config.rule = rule;
  if (!RetrievalFromFlags(flags, &config.retrieval, &config.nprobe)) {
    return 2;
  }

  const std::shared_ptr<const serve::ServingSnapshot> snapshot =
      PublishedSnapshot(model, store, trained_through_span,
                        config.retrieval);
  const std::vector<serve::RecommendResponse> responses =
      Recommend(*snapshot, requests, config);

  std::ostringstream out;
  out << "user,rank,item,score\n";
  size_t ok = 0;
  for (const serve::RecommendResponse& response : responses) {
    if (!response.ok) {
      out << response.user << ",error,," << response.error << "\n";
      continue;
    }
    ++ok;
    for (size_t i = 0; i < response.items.size(); ++i) {
      char score[32];
      std::snprintf(score, sizeof(score), "%.6f",
                    static_cast<double>(response.items[i].second));
      out << response.user << "," << (i + 1) << ","
          << response.items[i].first << "," << score << "\n";
    }
  }
  std::ofstream out_file(out_path, std::ios::trunc);
  if (!out_file || !(out_file << out.str()) || !out_file.flush()) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("served %zu requests (%zu ok, %zu failed) from snapshot v%llu "
              "(span %d, %lld users); wrote %s\n",
              responses.size(), ok, responses.size() - ok,
              static_cast<unsigned long long>(snapshot->version()),
              snapshot->trained_through_span(),
              static_cast<long long>(snapshot->num_users()),
              out_path.c_str());
  return 0;
}

// Online serving loop: replays the post-pretrain portion of --log as a
// live stream through the prequential (test-then-learn) protocol. Every
// event is scored against the currently *published* ServingSnapshot
// before the micro-span trainer learns from it; every --publish_every
// events a fresh snapshot is trained and published. --mode=ft selects
// the plain fine-tuning baseline (no retention loss, no expansion, no
// interest persistence) for freshness-vs-retention comparisons.
int CmdStream(const util::FlagSet& flags) {
  std::unique_ptr<data::Dataset> dataset;
  std::vector<data::Interaction> interactions;
  if (const int status = LoadDataset(flags, &dataset, &interactions)) {
    return status;
  }

  core::TrainConfig train;
  models::ModelConfig model_config;
  if (!ConfigFromFlags(flags, &model_config, &train)) return 2;
  const std::string mode = flags.GetString("mode");
  if (mode == "ft") {
    train.eir.kind = core::RetentionKind::kNone;
    train.enable_expansion = false;
    train.persist_interests = false;
  } else if (mode != "imsr") {
    std::fprintf(stderr, "error: --mode must be 'imsr' or 'ft'\n");
    return 2;
  }

  // Base state: a checkpoint when given, otherwise an in-process
  // pretrain on span 0 of the log.
  models::MsrModel model(model_config, dataset->num_items(), train.seed);
  core::InterestStore store;
  core::CheckpointMetadata metadata;
  const std::string checkpoint = flags.GetString("checkpoint");
  if (!checkpoint.empty()) {
    std::string error;
    if (!LoadCheckpoint(checkpoint, &model, &store, &metadata, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
  } else {
    core::ImsrTrainer pretrainer(&model, &store, train);
    pretrainer.Pretrain(*dataset);
    metadata.trained_through_span = 0;
  }

  stream::ReplayEventSource source(
      stream::PostPretrainEvents(std::move(interactions), *dataset,
                                 flags.GetDouble("alpha")));

  serve::RetrievalMode retrieval;
  int nprobe = 0;
  if (!RetrievalFromFlags(flags, &retrieval, &nprobe)) return 2;

  stream::StreamTrainerConfig trainer_config;
  trainer_config.publish_every = flags.GetInt("publish_every");
  trainer_config.expand_every =
      static_cast<int>(flags.GetInt("expand_every"));
  trainer_config.micro_epochs =
      static_cast<int>(flags.GetInt("micro_epochs"));
  trainer_config.initial_span =
      static_cast<int>(metadata.trained_through_span);
  trainer_config.train = train;
  // Under IVF every publish (initial included) builds a fresh index into
  // the snapshot; the build cost lands inside the publish latency stats.
  trainer_config.build_index = retrieval == serve::RetrievalMode::kIVF;

  stream::PrequentialConfig eval_config;
  eval_config.top_n = static_cast<int>(flags.GetInt("top_n"));
  eval_config.window = flags.GetInt("window");
  eval_config.retrieval = retrieval;
  eval_config.nprobe = nprobe;
  eval_config.curve_every =
      flags.Has("curve_every")
          ? flags.GetInt("curve_every")
          : std::max<int64_t>(trainer_config.publish_every / 2, 1);
  if (!ScoreRuleFromFlags(flags, &eval_config.rule)) return 2;

  stream::StreamServiceConfig service_config;
  service_config.queue_cap =
      static_cast<size_t>(flags.GetInt("queue_cap"));
  service_config.max_events =
      static_cast<uint64_t>(flags.GetInt("max_events"));
  service_config.threaded = flags.GetBool("threaded");
  // Ctrl-C / SIGTERM drains the queue, flushes the trainer and still
  // writes --curve_out / --summary_out before exiting 0.
  util::InstallShutdownHandlers();
  service_config.stop = util::ShutdownFlag();

  serve::SnapshotRegistry registry;
  stream::StreamTrainer trainer(&model, &store, &registry, trainer_config);
  stream::PrequentialEvaluator evaluator(eval_config);
  stream::StreamService service(&trainer, &evaluator, &registry,
                                service_config);
  const stream::StreamResult result = service.Run(&source);

  const std::string curve_out = flags.GetString("curve_out");
  if (!curve_out.empty()) {
    std::ostringstream curve;
    curve << "last_sequence,scored,window_recall,window_ndcg,"
             "window_count,snapshot_version,staleness_events\n";
    for (const stream::CurvePoint& point : evaluator.curve()) {
      char recall[32], ndcg[32];
      std::snprintf(recall, sizeof(recall), "%.6f", point.window_recall);
      std::snprintf(ndcg, sizeof(ndcg), "%.6f", point.window_ndcg);
      curve << point.last_sequence << "," << point.scored << "," << recall
            << "," << ndcg << "," << point.window_count << ","
            << point.snapshot_version << "," << point.staleness_events
            << "\n";
    }
    std::ofstream out(curve_out, std::ios::trunc);
    if (!out || !(out << curve.str()) || !out.flush()) {
      std::fprintf(stderr, "error: cannot write %s\n", curve_out.c_str());
      return 1;
    }
  }

  const std::string summary_out = flags.GetString("summary_out");
  if (!summary_out.empty()) {
    std::ostringstream summary;
    char buffer[64];
    summary << "{\n";
    summary << "  \"mode\": \"" << mode << "\",\n";
    summary << "  \"retrieval\": \"" << serve::RetrievalModeName(retrieval)
            << "\",\n";
    summary << "  \"nprobe\": " << nprobe << ",\n";
    summary << "  \"index_builds\": " << result.index_builds << ",\n";
    summary << "  \"ivf_searches\": " << result.ivf.searches << ",\n";
    summary << "  \"ivf_probes\": " << result.ivf.probes << ",\n";
    summary << "  \"ivf_shortlist\": " << result.ivf.shortlist << ",\n";
    summary << "  \"ivf_reranked\": " << result.ivf.reranked << ",\n";
    summary << "  \"publish_every\": " << trainer_config.publish_every
            << ",\n";
    summary << "  \"window\": " << eval_config.window << ",\n";
    summary << "  \"events\": " << result.events << ",\n";
    summary << "  \"scored\": " << result.scored << ",\n";
    summary << "  \"skipped\": " << result.skipped << ",\n";
    summary << "  \"publishes\": " << result.publishes << ",\n";
    std::snprintf(buffer, sizeof(buffer), "%.3f", result.seconds);
    summary << "  \"seconds\": " << buffer << ",\n";
    std::snprintf(buffer, sizeof(buffer), "%.1f", result.events_per_sec);
    summary << "  \"events_per_sec\": " << buffer << ",\n";
    std::snprintf(buffer, sizeof(buffer), "%.3f", result.publish_mean_ms);
    summary << "  \"publish_mean_ms\": " << buffer << ",\n";
    std::snprintf(buffer, sizeof(buffer), "%.3f", result.publish_max_ms);
    summary << "  \"publish_max_ms\": " << buffer << ",\n";
    std::snprintf(buffer, sizeof(buffer), "%.6f",
                  result.final_window.hit_ratio);
    summary << "  \"final_window_recall\": " << buffer << ",\n";
    std::snprintf(buffer, sizeof(buffer), "%.6f",
                  result.final_window.ndcg);
    summary << "  \"final_window_ndcg\": " << buffer << ",\n";
    summary << "  \"final_window_count\": "
            << result.final_window.count << ",\n";
    summary << "  \"final_version\": " << result.final_version << ",\n";
    summary << "  \"queue_max_depth\": " << result.queue_max_depth
            << ",\n";
    summary << "  \"blocked_pushes\": " << result.blocked_pushes << "\n";
    summary << "}\n";
    std::ofstream out(summary_out, std::ios::trunc);
    if (!out || !(out << summary.str()) || !out.flush()) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   summary_out.c_str());
      return 1;
    }
  }

  std::printf(
      "streamed %llu events (%lld scored, %lld skipped) in %.2fs "
      "(%.0f ev/s); %llu publishes (mean %.1f ms, max %.1f ms); final "
      "window HR@%d %.4f NDCG@%d %.4f over %lld events; snapshot v%llu\n",
      static_cast<unsigned long long>(result.events),
      static_cast<long long>(result.scored),
      static_cast<long long>(result.skipped), result.seconds,
      result.events_per_sec,
      static_cast<unsigned long long>(result.publishes),
      result.publish_mean_ms, result.publish_max_ms, eval_config.top_n,
      result.final_window.hit_ratio, eval_config.top_n,
      result.final_window.ndcg,
      static_cast<long long>(result.final_window.count),
      static_cast<unsigned long long>(result.final_version));
  return 0;
}

int CmdRecommend(const util::FlagSet& flags) {
  std::unique_ptr<data::Dataset> dataset;
  if (const int status = LoadDataset(flags, &dataset)) return status;
  const std::string checkpoint = flags.GetString("checkpoint");
  if (checkpoint.empty()) {
    std::fprintf(stderr, "error: --checkpoint=<file> is required\n");
    return 2;
  }
  models::ModelConfig model_config;
  if (!ConfigFromFlags(flags, &model_config, /*train=*/nullptr)) return 2;
  models::MsrModel model(model_config, dataset->num_items(), 1);
  core::InterestStore store;
  core::CheckpointMetadata metadata;
  std::string error;
  if (!LoadCheckpoint(checkpoint, &model, &store, &metadata, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  if (flags.Has("recommend_requests")) {
    return RecommendBatch(flags, model, store,
                          metadata.trained_through_span);
  }
  const auto user =
      static_cast<data::UserId>(flags.GetInt("user"));
  if (user < 0 || !store.Has(user)) {
    std::fprintf(stderr,
                 "error: --user=<id> must name a user with interests\n");
    return 2;
  }
  serve::ServeConfig config;
  config.default_top_n = static_cast<int>(flags.GetInt("top_n"));
  if (!ScoreRuleFromFlags(flags, &config.rule) ||
      !RetrievalFromFlags(flags, &config.retrieval, &config.nprobe)) {
    return 2;
  }
  // Same answer path production would take: a published snapshot and
  // serve::Recommend, exact or through the snapshot's index.
  const serve::RecommendResponse response =
      Recommend(*PublishedSnapshot(model, store,
                                   metadata.trained_through_span,
                                   config.retrieval),
                {serve::RecommendRequest{user, 0}}, config)
          .front();
  if (!response.ok) {
    std::fprintf(stderr, "error: %s\n", response.error.c_str());
    return 2;
  }
  const std::vector<std::pair<data::ItemId, float>>& top = response.items;
  std::printf("user %d (K=%lld interests):\n", user,
              static_cast<long long>(store.NumInterests(user)));
  for (size_t i = 0; i < top.size(); ++i) {
    std::printf("  %2zu. item %-8d score %.4f\n", i + 1, top[i].first,
                top[i].second);
  }
  return 0;
}

}  // namespace

int Dispatch(const std::string& command, const util::FlagSet& flags) {
  if (command == "generate") return CmdGenerate(flags);
  if (command == "stats") return CmdStats(flags);
  if (command == "pretrain") return CmdPretrain(flags);
  if (command == "train-span") return CmdTrainSpan(flags);
  if (command == "evaluate") return CmdEvaluate(flags);
  if (command == "recommend") return CmdRecommend(flags);
  if (command == "stream") return CmdStream(flags);
  return Usage();
}

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "--help" || command == "-h" || command == "help") {
    Usage();
    return 0;
  }
  util::FlagSet flags("imsr_cli", "");
  if (!BuildFlagSet(command, &flags)) return Usage();
  flags.ParseOrExit(argc - 2, argv + 2);
  util::ApplyThreadFlag(flags);  // --threads=N sizes the process-wide pool
  // The session enables tracing / periodic metric flushing while the
  // command runs; its destructor (after the command's spans close) writes
  // the final exports and prints the summary table.
  obs::ObsSession obs_session(obs::ObsOptionsFromFlags(flags));
  int status = 0;
  {
    IMSR_TRACE_SPAN("cli/command");
    status = Dispatch(command, flags);
  }
  return status;
}
