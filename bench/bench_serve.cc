// Serving-path benchmark for the src/serve/ subsystem (DESIGN.md §9):
//
//   1. Publish cost vs model size — BuildSnapshot (deep copy of the
//      embedding table + packed interest export) and Registry::Publish
//      (version stamp + atomic swap) at several corpus/user scales. The
//      copy is the price of an always-lock-free read path; the swap
//      itself should be effectively free.
//   2. Recommend throughput vs --threads — batch top-N over the full
//      corpus, one RankScratch per worker chunk.
//
//   3. Exact vs IVF retrieval — on a clustered corpus (the regime the
//      index is built for), index build cost, Recommend throughput in
//      both modes, recall@top_n of IVF against the exact oracle, and the
//      per-query probe/shortlist/re-rank accounting.
//
// Flags: --scale=1.0 multiplies the size grid; --repeats=3 averages the
// publish timings; --requests=2048 sets the throughput batch size;
// --threads=1,2,4,0 picks the fan-out widths (0 = process pool size);
// --rule=attentive|max, --top_n=20, --dim=32, --seed=7.
// IVF section: --ivf_sizes=10000,100000 item counts (empty disables),
// --ivf_requests=512 timed batch, --ivf_recall_queries=200 oracle sample,
// --nprobe=0 (default probe width).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <utility>

#include "bench/bench_common.h"
#include "core/interest_store.h"
#include "eval/ranker.h"
#include "models/msr_model.h"
#include "serve/ivf_index.h"
#include "serve/recommend.h"
#include "serve/registry.h"
#include "serve/snapshot.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace {

using namespace imsr;  // NOLINT(build/namespaces)

struct SizePoint {
  const char* label;
  int64_t num_items;
  int64_t num_users;
};

// Every user gets 2..5 interest rows, like a trained store after a few
// expansion rounds.
core::InterestStore MakeStore(int64_t num_users, int64_t dim,
                              uint64_t seed) {
  core::InterestStore store;
  util::Rng rng(seed);
  for (int64_t user = 0; user < num_users; ++user) {
    store.Initialize(static_cast<data::UserId>(user), 2 + user % 4, dim,
                     0, rng);
  }
  return store;
}

std::vector<int> ParseThreadList(const std::string& value) {
  std::vector<int> threads;
  std::stringstream stream(value);
  std::string token;
  while (std::getline(stream, token, ',')) {
    if (!token.empty()) threads.push_back(std::stoi(token));
  }
  if (threads.empty()) threads = {1, 2, 4, 0};
  return threads;
}

std::vector<int64_t> ParseSizeList(const std::string& value) {
  std::vector<int64_t> sizes;
  std::stringstream stream(value);
  std::string token;
  while (std::getline(stream, token, ',')) {
    if (!token.empty()) sizes.push_back(std::stoll(token));
  }
  return sizes;
}

// Clustered corpus + matching interests — the regime IVF targets. The
// model's embedding table is overwritten with center+noise rows and every
// user's interests are placed near cluster centers, like a trained store.
void MakeClusteredServing(int64_t num_items, int64_t num_users, int64_t dim,
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

// Timed serve::Recommend passes (one warm-up, best of three measured —
// best-of because scheduler noise only ever slows a pass down); returns
// requests/sec.
double MeasureQps(const serve::ServingSnapshot& snapshot,
                  const std::vector<serve::RecommendRequest>& requests,
                  const serve::ServeConfig& config) {
  serve::Recommend(snapshot, requests, config);
  double best_seconds = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    util::Stopwatch timer;
    serve::Recommend(snapshot, requests, config);
    const double seconds = timer.ElapsedSeconds();
    if (pass == 0 || seconds < best_seconds) best_seconds = seconds;
  }
  return static_cast<double>(requests.size()) / best_seconds;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const double scale = flags.GetDouble("scale", 1.0);
  const int repeats = static_cast<int>(flags.GetInt("repeats", 3));
  const int64_t dim = flags.GetInt("dim", 32);
  const int top_n = static_cast<int>(flags.GetInt("top_n", 20));
  const int64_t batch = flags.GetInt("requests", 2048);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  const std::vector<int> thread_list =
      ParseThreadList(flags.GetString("threads", "1,2,4,0"));
  eval::ScoreRule rule = eval::ScoreRule::kAttentive;
  std::string rule_error;
  if (!eval::ScoreRuleFromName(flags.GetString("rule", "attentive"),
                               &rule, &rule_error)) {
    std::fprintf(stderr, "error: %s\n", rule_error.c_str());
    return 2;
  }

  bench::PrintHeader(
      "Serving path — publish cost and Recommend throughput",
      "DESIGN.md §9 (ServingSnapshot / SnapshotRegistry / Recommend)");

  // --- 1. Publish cost vs model size -------------------------------
  const std::vector<SizePoint> sizes = {
      {"small", 2'000, 500},
      {"medium", 20'000, 5'000},
      {"large", 100'000, 20'000},
  };
  util::Table publish_table({"size", "items", "users", "snapshot MB",
                             "build ms", "swap+retire us"});
  for (const SizePoint& size : sizes) {
    const int64_t num_items =
        std::max<int64_t>(1, static_cast<int64_t>(size.num_items * scale));
    const int64_t num_users =
        std::max<int64_t>(1, static_cast<int64_t>(size.num_users * scale));
    models::ModelConfig model_config;
    model_config.embedding_dim = dim;
    const models::MsrModel model(model_config, num_items, seed);
    const core::InterestStore store = MakeStore(num_users, dim, seed);

    serve::SnapshotRegistry registry;
    double build_ms = 0.0;
    double swap_us = 0.0;
    int64_t bytes = 0;
    for (int repeat = 0; repeat < repeats; ++repeat) {
      util::Stopwatch build_timer;
      std::shared_ptr<serve::ServingSnapshot> snapshot =
          serve::BuildSnapshot(model, store, repeat);
      build_ms += build_timer.ElapsedMillis();
      bytes = snapshot->bytes();
      util::Stopwatch swap_timer;
      registry.Publish(std::move(snapshot));
      swap_us += swap_timer.ElapsedSeconds() * 1e6;
    }
    publish_table.AddRow(
        {size.label, std::to_string(num_items), std::to_string(num_users),
         util::FormatDouble(static_cast<double>(bytes) / (1024.0 * 1024.0),
                            2),
         util::FormatDouble(build_ms / repeats, 3),
         util::FormatDouble(swap_us / repeats, 1)});
  }
  bench::PrintTable(publish_table);
  std::printf(
      "Publish cost is the deep copy (build), linear in items*d +\n"
      "interest rows. The swap itself is one atomic exchange; the\n"
      "swap+retire column also includes freeing the previous snapshot\n"
      "(no reader held it here), which is what scales with size.\n\n");

  // --- 2. Recommend throughput vs threads --------------------------
  const int64_t num_items =
      std::max<int64_t>(1, static_cast<int64_t>(100'000 * scale));
  const int64_t num_users =
      std::max<int64_t>(1, static_cast<int64_t>(20'000 * scale));
  models::ModelConfig model_config;
  model_config.embedding_dim = dim;
  const models::MsrModel model(model_config, num_items, seed);
  const core::InterestStore store = MakeStore(num_users, dim, seed);
  serve::SnapshotRegistry registry;
  registry.Publish(serve::BuildSnapshot(model, store, 0));
  const std::shared_ptr<const serve::ServingSnapshot> snapshot =
      registry.Current();

  std::vector<serve::RecommendRequest> requests;
  requests.reserve(static_cast<size_t>(batch));
  for (int64_t i = 0; i < batch; ++i) {
    requests.push_back(
        {static_cast<data::UserId>(i % num_users), top_n});
  }

  std::printf("Recommend: %lld items, %lld users, d=%lld, batch of %lld "
              "(top %d, rule %s)\n",
              static_cast<long long>(num_items),
              static_cast<long long>(num_users),
              static_cast<long long>(dim), static_cast<long long>(batch),
              top_n, eval::ScoreRuleName(rule));
  util::Table serve_table(
      {"threads", "batch ms", "users/sec", "speedup"});
  double base_seconds = 0.0;
  for (int threads : thread_list) {
    serve::ServeConfig config;
    config.default_top_n = top_n;
    config.rule = rule;
    config.threads = threads;
    // Warm-up pass populates per-worker scratch, then timed pass.
    serve::Recommend(*snapshot, requests, config);
    util::Stopwatch timer;
    const std::vector<serve::RecommendResponse> responses =
        serve::Recommend(*snapshot, requests, config);
    const double seconds = timer.ElapsedSeconds();
    if (base_seconds == 0.0) base_seconds = seconds;
    int64_t ok = 0;
    for (const serve::RecommendResponse& response : responses) {
      if (response.ok) ++ok;
    }
    if (ok != batch) {
      std::fprintf(stderr, "error: %lld/%lld requests failed\n",
                   static_cast<long long>(batch - ok),
                   static_cast<long long>(batch));
      return 1;
    }
    serve_table.AddRow(
        {threads == 0 ? "pool" : std::to_string(threads),
         util::FormatDouble(seconds * 1e3, 2),
         util::FormatDouble(static_cast<double>(batch) / seconds, 0),
         util::FormatDouble(base_seconds / seconds, 2)});
  }
  bench::PrintTable(serve_table);
  std::printf(
      "Requests are independent; throughput should scale near-linearly\n"
      "until the memory bandwidth of the (num_items x d) score sweep\n"
      "saturates.\n\n");

  // --- 3. Exact vs IVF retrieval -----------------------------------
  const std::vector<int64_t> ivf_sizes =
      ParseSizeList(flags.GetString("ivf_sizes", "10000,100000"));
  const int64_t ivf_requests = flags.GetInt("ivf_requests", 512);
  const int64_t recall_queries = flags.GetInt("ivf_recall_queries", 200);
  const int nprobe = static_cast<int>(flags.GetInt("nprobe", 0));
  if (ivf_sizes.empty()) return 0;

  std::printf("Exact vs IVF Recommend on a clustered corpus (d=%lld, "
              "top %d, rule %s, batch of %lld, pool threads)\n",
              static_cast<long long>(dim), top_n,
              eval::ScoreRuleName(rule),
              static_cast<long long>(ivf_requests));
  util::Table ivf_table({"items", "centroids", "nprobe", "index ms",
                         "exact qps", "ivf qps", "speedup", "recall@N",
                         "probes/q", "shortlist/q", "reranked/q"});
  for (size_t s = 0; s < ivf_sizes.size(); ++s) {
    const int64_t items = std::max<int64_t>(1, ivf_sizes[s]);
    const int64_t users =
        std::min<int64_t>(20'000, std::max<int64_t>(64, items / 5));
    models::ModelConfig ivf_model_config;
    ivf_model_config.embedding_dim = dim;
    models::MsrModel ivf_model(ivf_model_config, items, seed);
    core::InterestStore ivf_store;
    MakeClusteredServing(items, users, dim, seed + s, &ivf_model,
                         &ivf_store);

    // Index build cost = indexed publish minus the plain snapshot copy.
    util::Stopwatch plain_timer;
    std::shared_ptr<serve::ServingSnapshot> plain =
        serve::BuildSnapshot(ivf_model, ivf_store, 0);
    const double snapshot_ms = plain_timer.ElapsedMillis();
    plain.reset();
    serve::SnapshotRegistry ivf_registry;
    util::Stopwatch indexed_timer;
    ivf_registry.Publish(serve::BuildSnapshot(ivf_model, ivf_store, 0,
                                              serve::IvfBuildConfig{}));
    const double indexed_ms = indexed_timer.ElapsedMillis();
    const std::shared_ptr<const serve::ServingSnapshot> indexed =
        ivf_registry.Current();
    const serve::IvfIndex& index = *indexed->index();
    const int effective_nprobe =
        nprobe > 0 ? nprobe : index.default_nprobe();

    std::vector<serve::RecommendRequest> ivf_batch;
    ivf_batch.reserve(static_cast<size_t>(ivf_requests));
    for (int64_t i = 0; i < ivf_requests; ++i) {
      ivf_batch.push_back({static_cast<data::UserId>(i % users), top_n});
    }
    serve::ServeConfig exact_config;
    exact_config.default_top_n = top_n;
    exact_config.rule = rule;
    exact_config.threads = 0;
    exact_config.retrieval = serve::RetrievalMode::kExact;
    const double exact_qps = MeasureQps(*indexed, ivf_batch, exact_config);
    serve::ServeConfig ivf_config = exact_config;
    ivf_config.retrieval = serve::RetrievalMode::kIVF;
    ivf_config.nprobe = nprobe;
    const double ivf_qps = MeasureQps(*indexed, ivf_batch, ivf_config);

    // Recall + probe accounting against the brute-force oracle on a
    // query sample (serial; the timed passes above stay undisturbed).
    serve::IvfIndex::Scratch scratch;
    eval::RankScratch oracle_scratch;
    std::vector<std::pair<data::ItemId, float>> approx;
    serve::IvfSearchTotals totals;
    double recall_sum = 0.0;
    const int64_t sample = std::min<int64_t>(recall_queries, users);
    for (int64_t q = 0; q < sample; ++q) {
      const auto user = static_cast<data::UserId>(q);
      serve::IvfSearchStats stats;
      index.SearchTopN(indexed->Interests(user),
                       indexed->item_embeddings(), rule, top_n, nprobe,
                       &scratch, &approx, &stats);
      totals.Add(stats);
      eval::ScoreAllItemsInto(indexed->Interests(user),
                              indexed->item_embeddings(), rule,
                              &oracle_scratch);
      const std::vector<std::pair<data::ItemId, float>> oracle =
          eval::TopNFromScores(oracle_scratch.scores, top_n);
      std::set<data::ItemId> oracle_items;
      for (const auto& entry : oracle) oracle_items.insert(entry.first);
      int hits = 0;
      for (const auto& entry : approx) {
        if (oracle_items.count(entry.first) > 0) ++hits;
      }
      recall_sum += oracle_items.empty()
                        ? 1.0
                        : static_cast<double>(hits) /
                              static_cast<double>(oracle_items.size());
    }
    const double denom = sample > 0 ? static_cast<double>(sample) : 1.0;
    const double recall = recall_sum / denom;
    const double searches =
        totals.searches > 0 ? static_cast<double>(totals.searches) : 1.0;

    ivf_table.AddRow(
        {std::to_string(items), std::to_string(index.num_centroids()),
         std::to_string(effective_nprobe),
         util::FormatDouble(indexed_ms - snapshot_ms, 2),
         util::FormatDouble(exact_qps, 0), util::FormatDouble(ivf_qps, 0),
         util::FormatDouble(ivf_qps / exact_qps, 2),
         util::FormatDouble(recall, 4),
         util::FormatDouble(static_cast<double>(totals.probes) / searches, 1),
         util::FormatDouble(static_cast<double>(totals.shortlist) / searches,
                            1),
         util::FormatDouble(static_cast<double>(totals.reranked) / searches,
                            1)});
  }
  bench::PrintTable(ivf_table);
  std::printf(
      "IVF probes nprobe lists per interest, scores candidates with int8\n"
      "dots and re-ranks the shortlist with the exact float kernels, so\n"
      "returned scores match brute force bit for bit; recall@N counts\n"
      "how often the exact top-N items survive the probe.\n");
  return 0;
}
