#include "serve/snapshot.h"

#include <cstring>
#include <utility>

#include "models/msr_model.h"
#include "obs/obs.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace imsr::serve {

ServingSnapshot::ServingSnapshot(nn::Tensor embeddings,
                                 core::PackedInterests interests,
                                 int trained_through_span)
    : content_(std::make_shared<Content>()),
      trained_through_span_(trained_through_span) {
  content_->embeddings = std::move(embeddings);
  content_->interests = std::move(interests);
  IMSR_CHECK_EQ(content_->embeddings.dim(), 2);
  core::PackedInterests& packed = content_->interests;
  IMSR_CHECK(packed.users.empty() || packed.dim == dim())
      << "packed interests dim " << packed.dim
      << " != embedding dim " << dim();
  data::UserId max_user = -1;
  for (size_t i = 0; i < packed.users.size(); ++i) {
    IMSR_CHECK_GE(packed.users[i], 0);
    IMSR_CHECK(i == 0 || packed.users[i - 1] < packed.users[i])
        << "packed users must be strictly ascending";
    max_user = packed.users[i];
  }
  content_->slot_of_user.assign(static_cast<size_t>(max_user + 1), -1);
  for (size_t i = 0; i < packed.users.size(); ++i) {
    content_->slot_of_user[static_cast<size_t>(packed.users[i])] =
        static_cast<int32_t>(i);
  }
  // The serve exact path scores through the panelized k-major layout
  // (see item_embeddings_kmajor()); build it once here so every
  // construction path — BuildSnapshot and the tests that assemble
  // snapshots by hand — gets it. One repack per publish, amortized over
  // every request the snapshot serves.
  nn::PanelizeKMajorInto(content_->embeddings, &content_->embeddings_kmajor);
}

ServingSnapshot::ServingSnapshot(
    const std::shared_ptr<const ServingSnapshot>& prev,
    int trained_through_span)
    : trained_through_span_(trained_through_span) {
  IMSR_CHECK(prev != nullptr);
  // Sharing the Content of a published (const) snapshot is sound because
  // published content is never mutated again: AttachIndex refuses shared
  // content, and nothing else writes through content_.
  content_ = prev->content_;
  store_revision_ = prev->store_revision_;
}

bool ServingSnapshot::SameScoringContent(const ServingSnapshot& other) const {
  // Shared-content republish: same tables by construction, no sweep.
  if (content_.get() == other.content_.get()) return true;
  if (num_items() != other.num_items() || dim() != other.dim()) return false;
  const core::PackedInterests& a = content_->interests;
  const core::PackedInterests& b = other.content_->interests;
  if (a.dim != b.dim || a.users != b.users || a.counts != b.counts ||
      a.row_begin != b.row_begin) {
    return false;
  }
  // Index equivalence: both absent, or both built with the same
  // centroid count and min_rerank (construction is deterministic in the
  // embeddings + seeds the float comparisons below cover, and the probe
  // width follows from the centroid count).
  const IvfIndex* ai = content_->index.get();
  const IvfIndex* bi = other.content_->index.get();
  if ((ai == nullptr) != (bi == nullptr)) return false;
  if (ai != nullptr && (ai->num_centroids() != bi->num_centroids() ||
                        ai->min_rerank() != bi->min_rerank())) {
    return false;
  }
  // Bitwise float compares (memcmp, not ==): NaN payloads and signed
  // zeros must count as differences because the cache contract is
  // "bitwise identical response", nothing weaker.
  if (std::memcmp(content_->embeddings.data(),
                  other.content_->embeddings.data(),
                  static_cast<size_t>(content_->embeddings.numel()) *
                      sizeof(float)) != 0) {
    return false;
  }
  return a.data.size() == b.data.size() &&
         std::memcmp(a.data.data(), b.data.data(),
                     a.data.size() * sizeof(float)) == 0;
}

void ServingSnapshot::AttachIndex(std::unique_ptr<const IvfIndex> index) {
  IMSR_CHECK_EQ(version_, 0u)
      << "AttachIndex after publish: a reader could already hold this "
         "snapshot";
  IMSR_CHECK_EQ(content_.use_count(), 1)
      << "AttachIndex on shared content: another snapshot already serves "
         "these tables";
  IMSR_CHECK(index != nullptr);
  IMSR_CHECK_EQ(index->num_items(), num_items());
  content_->index = std::move(index);
}

int64_t ServingSnapshot::bytes() const {
  // Counts the shared content in full: per-snapshot cost of a shared
  // republish is one allocation, but the resident state it keeps alive
  // is what capacity planning cares about.
  const Content& c = *content_;
  return static_cast<int64_t>(
             c.embeddings.numel() * sizeof(float) +
             c.embeddings_kmajor.numel() * sizeof(float) +
             c.interests.data.size() * sizeof(float) +
             c.interests.users.size() *
                 (sizeof(data::UserId) + sizeof(int64_t) +
                  sizeof(int32_t)) +
             c.slot_of_user.size() * sizeof(int32_t)) +
         (c.index == nullptr ? 0 : c.index->bytes());
}

int64_t ServingSnapshot::SlotOf(data::UserId user) const {
  if (user < 0 ||
      static_cast<size_t>(user) >= content_->slot_of_user.size()) {
    return -1;
  }
  return content_->slot_of_user[static_cast<size_t>(user)];
}

bool ServingSnapshot::HasUser(data::UserId user) const {
  return SlotOf(user) >= 0;
}

int64_t ServingSnapshot::NumInterests(data::UserId user) const {
  const int64_t slot = SlotOf(user);
  return slot < 0
             ? 0
             : content_->interests.counts[static_cast<size_t>(slot)];
}

nn::ConstMatrixView ServingSnapshot::Interests(data::UserId user) const {
  const int64_t slot = SlotOf(user);
  IMSR_CHECK_GE(slot, 0) << "no interests for user " << user;
  const size_t s = static_cast<size_t>(slot);
  const core::PackedInterests& packed = content_->interests;
  return {packed.data.data() + packed.row_begin[s] * packed.dim,
          packed.counts[s], packed.dim};
}

namespace {

std::shared_ptr<ServingSnapshot> BuildSnapshotImpl(
    const models::MsrModel& model, const core::InterestStore& store,
    int trained_through_span, const IvfBuildConfig* ivf) {
  IMSR_TRACE_SPAN("serve/build_snapshot");
  IMSR_OBS_ONLY(util::Stopwatch timer;)
  nn::Tensor embeddings = model.ExportItemEmbeddings();
  core::PackedInterests packed = store.ExportPacked();
  std::unique_ptr<const IvfIndex> index;
  if (ivf != nullptr) {
    index = std::make_unique<IvfIndex>(embeddings, packed, *ivf);
  }
  auto snapshot = std::make_shared<ServingSnapshot>(
      std::move(embeddings), std::move(packed), trained_through_span);
  if (index != nullptr) snapshot->AttachIndex(std::move(index));
  IMSR_HISTOGRAM_RECORD("serve/build_latency_ms", timer.ElapsedMillis());
  IMSR_GAUGE_SET("serve/snapshot_users",
                 static_cast<double>(snapshot->num_users()));
  IMSR_GAUGE_SET("serve/snapshot_bytes",
                 static_cast<double>(snapshot->bytes()));
  return snapshot;
}

}  // namespace

std::shared_ptr<ServingSnapshot> BuildSnapshot(
    const models::MsrModel& model, const core::InterestStore& store,
    int trained_through_span) {
  auto snapshot = BuildSnapshotImpl(model, store, trained_through_span,
                                    nullptr);
  snapshot->store_revision_ = store.revision();
  return snapshot;
}

std::shared_ptr<ServingSnapshot> BuildSnapshot(
    const models::MsrModel& model, const core::InterestStore& store,
    int trained_through_span, const IvfBuildConfig& ivf) {
  auto snapshot = BuildSnapshotImpl(model, store, trained_through_span,
                                    &ivf);
  snapshot->store_revision_ = store.revision();
  return snapshot;
}

std::shared_ptr<ServingSnapshot> BuildSnapshotShared(
    const models::MsrModel& model, const core::InterestStore& store,
    int trained_through_span, std::shared_ptr<const ServingSnapshot> prev) {
  if (prev == nullptr || prev->store_revision() == 0 ||
      prev->store_revision() != store.revision()) {
    return nullptr;
  }
  // The store is provably untouched; the model has no revision counter,
  // so compare its live (num_items x d) table against the frozen one in
  // place — no export, just one read of the table.
  const nn::Tensor& live = model.embeddings().parameter().value();
  const nn::Tensor& frozen = prev->item_embeddings();
  if (live.numel() != frozen.numel() || live.size(0) != frozen.size(0) ||
      std::memcmp(live.data(), frozen.data(),
                  static_cast<size_t>(frozen.numel()) * sizeof(float)) !=
          0) {
    return nullptr;
  }
  IMSR_COUNTER_ADD("serve/shared_republishes", 1);
  return std::make_shared<ServingSnapshot>(std::move(prev),
                                           trained_through_span);
}

}  // namespace imsr::serve
