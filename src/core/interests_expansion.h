// Interests expansion (Algorithm 1): detect puzzled users (NID), allocate
// delta-K fresh interest vectors, re-extract, project the new vectors onto
// the orthogonal complement of the existing interests and trim trivial
// ones (PIT).
#ifndef IMSR_CORE_INTERESTS_EXPANSION_H_
#define IMSR_CORE_INTERESTS_EXPANSION_H_

#include "core/interest_store.h"
#include "core/nid.h"
#include "core/pit.h"
#include "data/dataset.h"
#include "models/msr_model.h"
#include "nn/optim.h"

namespace imsr::core {

struct ExpansionConfig {
  NidConfig nid;
  PitConfig pit;
  int delta_k = 3;        // new interest vectors allocated per detection
  int max_interests = 16; // hard cap on K_u
};

struct ExpansionOutcome {
  int users_considered = 0;
  int users_expanded = 0;   // NID fired
  int interests_added = 0;  // new vectors surviving PIT
  int interests_trimmed = 0;
};

// Runs Algorithm 1 for one user given their new-span interactions
// `items` (the store must already hold an entry for the user; `span`
// only tags newly appended interests with their birth span). Mutates
// `outcome` counters in place. The span step
// (ImsrTrainer::TrainSpanStep) calls this per user, for batch spans and
// stream micro-spans alike.
void ExpandUserInterests(models::MsrModel* model,
                         InterestStore* store,
                         data::UserId user,
                         const std::vector<data::ItemId>& items,
                         int span,
                         const ExpansionConfig& config,
                         util::Rng& rng,
                         nn::Adam* optimizer,
                         ExpansionOutcome* outcome);

// Runs Algorithm 1 over every active user of `span` (perfbench's
// piecewise span runner times it on its own). The store must already
// contain an entry for each active user. `optimizer` (nullable) keeps
// per-user extractor parameters registered as they resize.
ExpansionOutcome RunInterestsExpansion(models::MsrModel* model,
                                       InterestStore* store,
                                       const data::Dataset& dataset,
                                       int span,
                                       const ExpansionConfig& config,
                                       util::Rng& rng,
                                       nn::Adam* optimizer);

}  // namespace imsr::core

#endif  // IMSR_CORE_INTERESTS_EXPANSION_H_
