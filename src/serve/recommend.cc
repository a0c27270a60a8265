#include "serve/recommend.h"

#include <algorithm>

#include "obs/obs.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace imsr::serve {

namespace {

// Item rows scored per block of the exact-path sweep. The block's logits
// tile (block x total_k floats) must stay cache-resident between the
// matmul that fills it and the reduction that drains it — that locality
// is the whole point of blocking; a corpus-sized logits matrix thrashes
// every level once total_k grows past a few interests. Equal to the
// k-major panel size so every block reads exactly one contiguous panel
// of the snapshot's table (sequential traffic, one prefetch stream),
// and the tile stays within ~half of a typical L2 even at a full
// micro-batch's width (1024 rows x 96 interests x 4 B = 384 KiB worst
// case, ~12 KiB for a single user).
constexpr int64_t kScoreBlockRows = nn::kKMajorPanelRows;

// Largest RecommendBatch call Recommend() makes: the shard workers'
// default batch_max, so the fused tile (block x total_k) stays within
// the cache budget above.
constexpr int64_t kRecommendSubBatch = 32;

// The one exact-scoring body every serve path reduces to: a streaming
// top-N per user inside the blocked sweep over the k-major table.
// `interests` holds the users' rows packed into one operand; user u owns
// columns [col_offset[u], col_offset[u] + user_k[u]) of each block's
// logits tile, and top[u] must have been Reset to the user's capacity. Each block's tile is filled by
// the width-invariant kernel and drained into every user's accumulator
// while still cache-hot; OfferTopNFromLogits reduces only the rows whose
// upper bound can still reach the user's current N-th best. The kernel's
// bits do not depend on the operand width and the kept set does not
// depend on which rows were skipped, which is why RecommendBatch can fuse
// and prune and still memcmp-match a batch of one and the brute force.
void ExactTopNInto(const ServingSnapshot& snapshot,
                   nn::ConstMatrixView interests, const int64_t* col_offset,
                   const int64_t* user_k, size_t num_users,
                   eval::ScoreRule rule, nn::Tensor* tile,
                   eval::TopNAccumulator* top) {
  const int64_t num_items = snapshot.num_items();
  const int64_t total_k = interests.rows;
  const nn::ConstMatrixView table =
      nn::ViewOf(snapshot.item_embeddings_kmajor());
  tile->ResizeUninitialized({kScoreBlockRows, total_k});
  IMSR_OBS_ONLY(int64_t reduced = 0;)
  for (int64_t b0 = 0; b0 < num_items; b0 += kScoreBlockRows) {
    const int64_t b1 = std::min<int64_t>(num_items, b0 + kScoreBlockRows);
    nn::MatMulTransBPanelRangeInto(table, interests, b0, b1, tile->data());
    // One strided tile pass per user: the tile fits L2 at serving
    // widths, and most rows stop at the bound test.
    for (size_t u = 0; u < num_users; ++u) {
      [[maybe_unused]] const int64_t user_reduced = eval::OfferTopNFromLogits(
          tile->data() + col_offset[u], b1 - b0, user_k[u], total_k,
          static_cast<data::ItemId>(b0), rule, &top[u]);
      IMSR_OBS_ONLY(reduced += user_reduced;)
    }
  }
  IMSR_OBS_ONLY({
    const int64_t rows = num_items * static_cast<int64_t>(num_users);
    IMSR_COUNTER_ADD("serve/exact_rows_reduced", reduced);
    IMSR_COUNTER_ADD("serve/exact_rows_skipped", rows - reduced);
  })
}

}  // namespace

void RecommendOne(const ServingSnapshot& snapshot,
                  const RecommendRequest& request, const ServeConfig& config,
                  RecommendScratch* scratch, RecommendResponse* response,
                  IvfSearchStats* stats) {
  RecommendBatch(snapshot, &request, 1, config, scratch, response, stats);
}

void RecommendBatch(const ServingSnapshot& snapshot,
                    const RecommendRequest* requests, size_t count,
                    const ServeConfig& config, RecommendScratch* scratch,
                    RecommendResponse* responses, IvfSearchStats* stats) {
  IMSR_CHECK(scratch != nullptr);
  if (count == 0) return;
  IMSR_CHECK(requests != nullptr);
  IMSR_CHECK(responses != nullptr);
  if (stats != nullptr) std::fill(stats, stats + count, IvfSearchStats{});
  const IvfIndex* index =
      config.retrieval == RetrievalMode::kIVF ? snapshot.index() : nullptr;
  IMSR_OBS_ONLY({
    if (config.retrieval == RetrievalMode::kIVF && index == nullptr) {
      IMSR_COUNTER_ADD("serve/ivf_fallback_exact",
                       static_cast<int64_t>(count));
    }
  })
  // Per-request validation; failures land in the response (ok=false +
  // error). resolved[i] > 0 marks a scoreable request.
  std::vector<int>& resolved = scratch->batch_top_n;
  resolved.assign(count, -1);
  for (size_t i = 0; i < count; ++i) {
    RecommendResponse& response = responses[i];
    response.user = requests[i].user;
    response.ok = false;
    response.items.clear();
    const int top_n =
        requests[i].top_n > 0 ? requests[i].top_n : config.default_top_n;
    if (top_n <= 0) {
      response.error = "top_n must be positive";
      continue;
    }
    if (!snapshot.HasUser(requests[i].user)) {
      response.error =
          "no interests for user " + std::to_string(requests[i].user);
      continue;
    }
    resolved[i] = top_n;
  }
  // Duplicate detector: an earlier request with the same (user, top_n)
  // against the same snapshot/config produced the identical answer, so
  // the later one copies it. Linear scan — batches are batch_max-sized.
  auto duplicate_of = [&](size_t i) -> int64_t {
    for (size_t j = 0; j < i; ++j) {
      if (resolved[j] == resolved[i] && requests[j].user == requests[i].user) {
        return static_cast<int64_t>(j);
      }
    }
    return -1;
  };
  if (index != nullptr) {
    // IVF path: one shortlist pass per unique (user, top_n), all sharing
    // the shard's IvfIndex scratch.
    for (size_t i = 0; i < count; ++i) {
      if (resolved[i] <= 0) continue;
      const int64_t dup = duplicate_of(i);
      if (dup >= 0) {
        responses[i].items = responses[static_cast<size_t>(dup)].items;
        responses[i].ok = true;
        continue;
      }
      index->SearchTopN(snapshot.Interests(requests[i].user),
                        snapshot.item_embeddings(), config.rule, resolved[i],
                        config.nprobe, &scratch->ivf, &responses[i].items,
                        stats != nullptr ? &stats[i] : nullptr);
      responses[i].ok = true;
    }
    return;
  }
  // Exact path: concatenate each unique user's interest rows into one
  // packed operand and sweep the snapshot's k-major table once in item
  // blocks — the embedding table streams through cache once per batch
  // instead of once per user. Each unique user keeps one top-N
  // accumulator sized to the largest top_n any of its requests asked
  // for; under the strict RanksBefore order a smaller top_n's answer is
  // a prefix of it, so every response is bitwise identical to
  // RecommendOne's.
  std::vector<data::UserId>& users = scratch->batch_users;
  std::vector<int64_t>& user_slot = scratch->batch_user_slot;
  std::vector<int64_t>& capacity = scratch->batch_capacity;
  const int64_t num_items = snapshot.num_items();
  users.clear();
  capacity.clear();
  user_slot.assign(count, -1);
  for (size_t i = 0; i < count; ++i) {
    if (resolved[i] <= 0) continue;
    int64_t slot = -1;
    for (size_t u = 0; u < users.size(); ++u) {
      if (users[u] == requests[i].user) {
        slot = static_cast<int64_t>(u);
        break;
      }
    }
    if (slot < 0) {
      slot = static_cast<int64_t>(users.size());
      users.push_back(requests[i].user);
      capacity.push_back(0);
    }
    user_slot[i] = slot;
    int64_t& keep = capacity[static_cast<size_t>(slot)];
    keep = std::max<int64_t>(keep, std::min<int64_t>(resolved[i], num_items));
  }
  if (users.empty()) return;
  const int64_t dim = snapshot.dim();
  std::vector<int64_t>& col_offset = scratch->batch_col_offset;
  std::vector<int64_t>& user_k = scratch->batch_user_k;
  col_offset.clear();
  user_k.clear();
  int64_t total_k = 0;
  for (size_t u = 0; u < users.size(); ++u) {
    col_offset.push_back(total_k);
    user_k.push_back(snapshot.NumInterests(users[u]));
    total_k += user_k.back();
  }
  scratch->batch_interests.ResizeUninitialized({total_k, dim});
  for (size_t u = 0; u < users.size(); ++u) {
    const nn::ConstMatrixView rows = snapshot.Interests(users[u]);
    std::copy_n(rows.data, rows.rows * rows.cols,
                scratch->batch_interests.data() + col_offset[u] * dim);
  }
  std::vector<eval::TopNAccumulator>& top = scratch->batch_top;
  if (top.size() < users.size()) top.resize(users.size());
  for (size_t u = 0; u < users.size(); ++u) top[u].Reset(capacity[u]);
  ExactTopNInto(snapshot, {scratch->batch_interests.data(), total_k, dim},
                col_offset.data(), user_k.data(), users.size(), config.rule,
                &scratch->batch_logits, top.data());
  // Responses come out in request order, each a prefix of its user's
  // sorted list.
  for (size_t i = 0; i < count; ++i) {
    if (resolved[i] <= 0) continue;
    const std::vector<std::pair<data::ItemId, float>>& best =
        top[static_cast<size_t>(user_slot[i])].Finish();
    responses[i].items.assign(
        best.begin(),
        best.begin() + std::min<int64_t>(resolved[i],
                                         static_cast<int64_t>(best.size())));
    responses[i].ok = true;
  }
}

// Mixes the key fields through splitmix64-style avalanche rounds; the
// epoch is in the mix, so each content change redistributes the table.
size_t ResponseCacheKeyHash::operator()(const ResponseCacheKey& key) const {
  auto mix = [](uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  };
  uint64_t h = mix(key.epoch);
  h = mix(h ^ static_cast<uint64_t>(key.user));
  h = mix(h ^ (static_cast<uint64_t>(static_cast<uint32_t>(key.top_n)) |
               (static_cast<uint64_t>(key.rule) << 32) |
               (static_cast<uint64_t>(key.retrieval) << 40)));
  h = mix(h ^ static_cast<uint64_t>(static_cast<uint32_t>(key.nprobe)));
  return static_cast<size_t>(h);
}

ResponseCacheKey MakeResponseCacheKey(const ServingSnapshot& snapshot,
                                      const RecommendRequest& request,
                                      const ServeConfig& config) {
  ResponseCacheKey key;
  key.epoch = snapshot.data_epoch();
  key.user = request.user;
  key.top_n = request.top_n > 0 ? request.top_n : config.default_top_n;
  key.rule = static_cast<uint8_t>(config.rule);
  key.retrieval = static_cast<uint8_t>(config.retrieval);
  key.nprobe = config.nprobe;
  return key;
}

size_t ResponseCacheEntryBytes(
    const std::vector<std::pair<data::ItemId, float>>& items) {
  // Key + vector payload + an allowance for the LRU list node and index
  // slot. An estimate, not an accounting — the budget bounds memory to
  // within a small constant factor.
  return sizeof(ResponseCacheKey) +
         items.size() * sizeof(std::pair<data::ItemId, float>) + 96;
}

std::vector<RecommendResponse> Recommend(
    const ServingSnapshot& snapshot,
    const std::vector<RecommendRequest>& requests,
    const ServeConfig& config) {
  IMSR_TRACE_SPAN("serve/recommend_batch");
  IMSR_OBS_ONLY(util::Stopwatch timer;)
  std::vector<RecommendResponse> responses(requests.size());
  // Each chunk answers its slice through RecommendBatch in sub-batches,
  // so the fused logits tile stays cache-sized; RecommendBatch counts
  // IVF fallbacks itself. Responses land in disjoint slots, so the
  // fan-out needs no locking, and RecommendBatch's answers do not depend
  // on how requests are grouped, so the result is identical for any
  // thread count.
  util::ParallelChunks(
      static_cast<int64_t>(requests.size()), /*threads=*/0,
      [&](int64_t begin, int64_t end) {
        RecommendScratch scratch;
        for (int64_t i = begin; i < end; i += kRecommendSubBatch) {
          const int64_t n = std::min(kRecommendSubBatch, end - i);
          RecommendBatch(snapshot, requests.data() + i,
                         static_cast<size_t>(n), config, &scratch,
                         responses.data() + i);
        }
      });
  IMSR_COUNTER_ADD("serve/requests",
                   static_cast<int64_t>(requests.size()));
  IMSR_OBS_ONLY({
    if (config.retrieval == RetrievalMode::kIVF &&
        snapshot.index() != nullptr) {
      IMSR_COUNTER_ADD("serve/ivf_requests",
                       static_cast<int64_t>(requests.size()));
    }
  })
  IMSR_OBS_ONLY({
    const double seconds = timer.ElapsedSeconds();
    IMSR_HISTOGRAM_RECORD("serve/batch_latency_ms", seconds * 1e3);
    if (seconds > 0.0 && !requests.empty()) {
      IMSR_GAUGE_SET("serve/users_per_sec",
                     static_cast<double>(requests.size()) / seconds);
    }
  })
  return responses;
}

}  // namespace imsr::serve
