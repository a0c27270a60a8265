// Interest-set analytics backing the paper's diagnostic figures:
// similarity-profile correlations (Fig. 3), inter-span drift (Fig. 7b)
// and the interest-age census of which interests serve which targets
// (Fig. 7c). bench_fig3_redundancy, bench_fig7_case_study and the
// interest_evolution example all compute their figures here.
#ifndef IMSR_EVAL_INTEREST_ANALYSIS_H_
#define IMSR_EVAL_INTEREST_ANALYSIS_H_

#include <vector>

#include "core/interest_store.h"
#include "data/dataset.h"
#include "nn/tensor.h"

namespace imsr::eval {

// Fig. 3's redundancy measure for one new interest: the highest Pearson
// correlation of its similarity profile (dot products with every item,
// the p_k vectors of §IV-D) against an existing interest's profile, and
// the first existing row reaching it.
struct MaxCorrelation {
  double correlation = -1.0;
  int64_t existing = 0;
};

// One entry per row in [first_new, K), against rows [0, first_new).
std::vector<MaxCorrelation> MaxCorrelationAgainstExisting(
    const nn::Tensor& interests, const nn::Tensor& item_embeddings,
    int64_t first_new);

// Per-row L2 norms (Fig. 3's existence measure).
std::vector<double> InterestNorms(const nn::Tensor& interests);

// Mean L2 distance between the first min(K_a, K_b) rows of two interest
// snapshots — Fig. 7b's inherited-interest drift.
double InheritedDrift(const nn::Tensor& before, const nn::Tensor& after);

// For each new row (>= first_new) of `interests`: distance to the nearest
// row below first_new — Fig. 7b's "new interests appear in new places".
std::vector<double> DistanceToNearestExisting(const nn::Tensor& interests,
                                              int64_t first_new);

// Fig. 7c: which interests serve the `test_span` test targets.
struct InterestAgeShares {
  // Entry s: fraction of counted users whose target's best-matching
  // stored interest (by dot product, first max) was created in span s;
  // births past max_span count as max_span.
  std::vector<double> shares;
  // Users counted: active in test_span, with stored interests and a
  // test item.
  int64_t users = 0;
};
InterestAgeShares InterestAgeServingShare(const nn::Tensor& item_embeddings,
                                          const core::InterestStore& store,
                                          const data::Dataset& dataset,
                                          int test_span, int max_span);

}  // namespace imsr::eval

#endif  // IMSR_EVAL_INTEREST_ANALYSIS_H_
