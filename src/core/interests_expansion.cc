#include "core/interests_expansion.h"

#include "obs/obs.h"
#include "util/check.h"

namespace imsr::core {
namespace {

// Users with fewer new-span items are skipped: puzzlement needs a few
// observations.
constexpr int kMinSpanItems = 3;

}  // namespace

void ExpandUserInterests(models::MsrModel* model,
                         InterestStore* store,
                         data::UserId user,
                         const std::vector<data::ItemId>& items,
                         int span,
                         const ExpansionConfig& config,
                         util::Rng& rng,
                         nn::Adam* optimizer,
                         ExpansionOutcome* outcome) {
  IMSR_CHECK(model != nullptr);
  IMSR_CHECK(store != nullptr);
  IMSR_CHECK(outcome != nullptr);
  IMSR_CHECK_GE(config.delta_k, 1);

  const int64_t dim = model->config().embedding_dim;
  if (static_cast<int>(items.size()) < kMinSpanItems) return;
  IMSR_CHECK(store->Has(user))
      << "expansion requires an initialised store entry for user " << user;
  ++outcome->users_considered;
  IMSR_COUNTER_ADD("nid/users_considered", 1);

  const int64_t k_prev = store->NumInterests(user);
  if (k_prev + config.delta_k > config.max_interests) return;

  // --- NID: detect whether this user's new interactions are puzzled ---
  const nn::Tensor item_embeddings =
      model->embeddings().LookupNoGrad(items);
  if (!DetectNewInterests(item_embeddings, store->Interests(user),
                          config.nid)) {
    return;
  }
  ++outcome->users_expanded;
  IMSR_COUNTER_ADD("nid/users_expanded", 1);

  // --- allocate delta-K fresh vectors (Alg. 1 lines 7-11) ---
  const nn::Tensor stored_existing = store->Interests(user);
  const nn::Tensor fresh =
      nn::Tensor::Randn({config.delta_k, dim}, rng);
  store->Append(user, fresh, span);
  model->extractor().EnsureUserCapacity(user, store->NumInterests(user),
                                        rng, optimizer);

  // --- re-extract with the expanded capacity (Alg. 1 line 12) ---
  const nn::Tensor extracted = model->ForwardInterestsNoGrad(
      items, store->Interests(user), user);

  // --- PIT: projection + trimming (Alg. 1 lines 13-16). The projection
  // basis is the *stored* existing interests (the semantics to be
  // preserved), and only the freshly learned rows are candidates; the
  // existing rows themselves are not overwritten here — the span's
  // training plus the evidence-gated refresh adjust them later.
  const nn::Tensor candidates = nn::ConcatRows(
      {stored_existing, extracted.RowSlice(k_prev, extracted.size(0))});
  const TrimResult trimmed =
      ProjectAndTrim(candidates, k_prev, config.pit);
  const int kept_new =
      static_cast<int>(trimmed.kept.size()) - static_cast<int>(k_prev);
  outcome->interests_added += kept_new;
  outcome->interests_trimmed += config.delta_k - kept_new;
  IMSR_COUNTER_ADD("pit/interests_allocated", config.delta_k);
  IMSR_COUNTER_ADD("pit/interests_added", kept_new);
  IMSR_COUNTER_ADD("pit/interests_trimmed", config.delta_k - kept_new);

  store->Keep(user, trimmed.kept);
  store->SetInterests(user, trimmed.interests);
  model->extractor().KeepUserInterests(user, trimmed.kept, optimizer);

  // --- final extraction with the trimmed set (Alg. 1 line 17),
  // updating the new rows only ---
  if (kept_new > 0) {
    const nn::Tensor re_extracted = model->ForwardInterestsNoGrad(
        items, store->Interests(user), user);
    nn::Tensor merged = store->Interests(user);
    for (int64_t row = k_prev; row < merged.size(0); ++row) {
      merged.SetRow(row, re_extracted.Row(row));
    }
    store->SetInterests(user, std::move(merged));
  }
}

ExpansionOutcome RunInterestsExpansion(models::MsrModel* model,
                                       InterestStore* store,
                                       const data::Dataset& dataset,
                                       int span,
                                       const ExpansionConfig& config,
                                       util::Rng& rng,
                                       nn::Adam* optimizer) {
  IMSR_TRACE_SPAN("expansion/run");
  ExpansionOutcome outcome;
  for (data::UserId user : dataset.active_users(span)) {
    const data::UserSpanData& span_data = dataset.user_span(user, span);
    ExpandUserInterests(model, store, user, span_data.all, span, config,
                        rng, optimizer, &outcome);
  }
  return outcome;
}

}  // namespace imsr::core
