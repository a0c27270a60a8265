// ServingSnapshot — the immutable read-side view of a trained span.
//
// The paper's deployment story (§IV, Algorithm 2) is train-then-serve:
// after pretraining and after each incremental span, the stored interests
// {H_u^t} and the item-embedding table answer top-N queries until the
// next span's model is ready. A snapshot freezes exactly that state —
// a deep copy of the embedding table plus every user's interest rows in
// flat packed storage — with no Var/autograd machinery, no mutable
// containers and no locks on the read path. Training keeps mutating
// MsrModel/InterestStore while readers score against the snapshot they
// hold; the SnapshotRegistry (registry.h) swaps in the next one
// atomically.
#ifndef IMSR_SERVE_SNAPSHOT_H_
#define IMSR_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/interest_store.h"
#include "data/interaction.h"
#include "nn/tensor.h"
#include "serve/ivf_index.h"

namespace imsr::models {
class MsrModel;
}  // namespace imsr::models

namespace imsr::serve {

class ServingSnapshot {
 public:
  // Freezes `embeddings` (num_items x d) and the packed interests. The
  // packed export must use the same `dim` as the embedding table (or be
  // empty). Snapshots are usually built via BuildSnapshot below and
  // published through a SnapshotRegistry, after which they are immutable.
  ServingSnapshot(nn::Tensor embeddings, core::PackedInterests interests,
                  int trained_through_span);

  // Content-sharing republish: the new snapshot shares every frozen
  // table with `prev` — embedding table, k-major repack, packed
  // interests, slot map, and the IVF index — and only carries its own
  // span and (at publish) version/epoch stamps. This is the timed-
  // republish fast path (BuildSnapshotShared below): when the model and
  // store are provably unchanged, a republish costs an allocation
  // instead of a corpus-sized re-export, and SameScoringContent against
  // `prev` is an O(1) pointer check, so the registry carries the data
  // epoch forward without the memcmp sweep.
  ServingSnapshot(const std::shared_ptr<const ServingSnapshot>& prev,
                  int trained_through_span);

  ServingSnapshot(const ServingSnapshot&) = delete;
  ServingSnapshot& operator=(const ServingSnapshot&) = delete;

  int64_t num_items() const { return content_->embeddings.size(0); }
  int64_t dim() const { return content_->embeddings.size(1); }
  int64_t num_users() const {
    return static_cast<int64_t>(content_->interests.users.size());
  }
  int trained_through_span() const { return trained_through_span_; }
  // Approximate resident size of the frozen state.
  int64_t bytes() const;

  // Monotonic publish id; 0 until a SnapshotRegistry stamps it.
  uint64_t version() const { return version_; }

  // Version at which this snapshot's scoring content last changed; 0
  // until publish. Publish compares the incoming snapshot's scoring
  // content (embedding table, packed interests, index knobs) against the
  // current one and carries the epoch forward when they are bitwise
  // equal, so a timed republish of an unchanged model does not bump it.
  // Responses keyed by data epoch (the serve response cache) therefore
  // survive content-identical publishes while any real retrain still
  // invalidates them — and a cached answer is always bitwise equal to
  // what the current snapshot would score, keeping the freshness
  // contract intact.
  uint64_t data_epoch() const { return data_epoch_; }

  // True when `other` would score every request bitwise identically:
  // equal embedding bytes, equal packed interests, and equal resolved
  // index knobs (index construction is deterministic in those inputs).
  bool SameScoringContent(const ServingSnapshot& other) const;

  // Revision of the InterestStore this snapshot was exported from
  // (core::InterestStore::revision()), stamped by BuildSnapshot; 0 when
  // the snapshot was assembled by hand. An equal nonzero revision means
  // the same store with no intervening mutation — the precondition
  // BuildSnapshotShared checks before sharing content.
  uint64_t store_revision() const { return store_revision_; }

  const nn::Tensor& item_embeddings() const { return content_->embeddings; }

  // The embedding table repacked into the panelized k-major layout
  // (nn::PanelizeKMajorInto) the serve exact path scores through
  // (nn::MatMulTransBPanelRangeInto), built once at construction. The
  // width-invariant kernel bits are what make micro-batched scoring
  // memcmp-equal to per-request scoring (DESIGN.md §15).
  const nn::Tensor& item_embeddings_kmajor() const {
    return content_->embeddings_kmajor;
  }

  // The snapshot's approximate-retrieval index, or nullptr when none was
  // built (exact-only snapshot). Built once at snapshot-build time and
  // immutable afterwards, like everything else here.
  const IvfIndex* index() const { return content_->index.get(); }
  // Attaches the index before publication (aborts on a published
  // snapshot — a reader could already hold it).
  void AttachIndex(std::unique_ptr<const IvfIndex> index);

  bool HasUser(data::UserId user) const;
  int64_t NumInterests(data::UserId user) const;
  // The user's (K x d) interest rows as a view into the packed storage;
  // aborts when absent (check HasUser first).
  nn::ConstMatrixView Interests(data::UserId user) const;
  // All users with interests, ascending.
  const std::vector<data::UserId>& Users() const {
    return content_->interests.users;
  }

 private:
  friend class SnapshotRegistry;  // stamps version_ at publish time
  // The builders stamp store_revision_.
  friend std::shared_ptr<ServingSnapshot> BuildSnapshot(
      const models::MsrModel&, const core::InterestStore&, int);
  friend std::shared_ptr<ServingSnapshot> BuildSnapshot(
      const models::MsrModel&, const core::InterestStore&, int,
      const IvfBuildConfig&);
  friend std::shared_ptr<ServingSnapshot> BuildSnapshotShared(
      const models::MsrModel&, const core::InterestStore&, int,
      std::shared_ptr<const ServingSnapshot>);

  // Every frozen table, bundled so a content-identical republish can
  // share it wholesale (one shared_ptr copy) instead of re-exporting:
  //   embeddings        frozen (num_items x d)
  //   embeddings_kmajor frozen panelized k-major repack
  //   interests         flat per-user rows, users ascending
  //   index             optional, attached pre-publish
  //   slot_of_user      dense user -> slot map (index into
  //                     interests.users); -1 when absent. User ids are
  //                     compacted upstream (data::CompactIds), so this
  //                     stays proportional to the user count.
  struct Content {
    nn::Tensor embeddings;
    nn::Tensor embeddings_kmajor;
    core::PackedInterests interests;
    std::unique_ptr<const IvfIndex> index;
    std::vector<int32_t> slot_of_user;
  };

  // Dense slot index of `user`, or -1 when absent.
  int64_t SlotOf(data::UserId user) const;

  // Sole owner until published or shared; AttachIndex refuses to mutate
  // shared content.
  std::shared_ptr<Content> content_;
  int trained_through_span_ = -1;
  uint64_t version_ = 0;
  uint64_t data_epoch_ = 0;       // stamped at publish, see data_epoch()
  uint64_t store_revision_ = 0;   // see store_revision()
};

// Exports the model's embedding table and the store's interests into a
// fresh snapshot (the publish points in Algorithm 2: after pretraining
// and after each span's Training procedure). Records the export cost in
// the serve/ metrics when obs is enabled.
std::shared_ptr<ServingSnapshot> BuildSnapshot(
    const models::MsrModel& model, const core::InterestStore& store,
    int trained_through_span);

// Same, but additionally builds an IvfIndex over the exported embeddings
// (seeded from the exported interests) and attaches it, so RetrievalMode
// kIVF readers get approximate retrieval from this snapshot.
std::shared_ptr<ServingSnapshot> BuildSnapshot(
    const models::MsrModel& model, const core::InterestStore& store,
    int trained_through_span, const IvfBuildConfig& ivf);

// Timed-republish fast path. When `store`'s revision is unchanged since
// `prev` was built (see InterestStore::revision()) and the model's
// exported embedding bytes are bitwise-equal to prev's, returns a
// snapshot sharing prev's frozen content — no corpus-sized re-export,
// no k-major repack, no index rebuild; the publish then carries the
// data epoch forward via an O(1) pointer compare, keeping every shard's
// response cache warm. Returns nullptr when anything changed (or prev
// is null / hand-assembled): the caller falls back to a full
// BuildSnapshot. The embedding check memcmps the model's live
// (num_items x d) table against prev's in place — no export — so a
// trainer mutating the model between publishes is caught even though
// the model has no revision counter. Like BuildSnapshot's export, it
// reads the live table, so the caller must not train concurrently.
std::shared_ptr<ServingSnapshot> BuildSnapshotShared(
    const models::MsrModel& model, const core::InterestStore& store,
    int trained_through_span, std::shared_ptr<const ServingSnapshot> prev);

}  // namespace imsr::serve

#endif  // IMSR_SERVE_SNAPSHOT_H_
