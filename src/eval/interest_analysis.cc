#include "eval/interest_analysis.h"

#include <algorithm>

#include "util/check.h"
#include "util/math_util.h"

namespace imsr::eval {

std::vector<MaxCorrelation> MaxCorrelationAgainstExisting(
    const nn::Tensor& interests, const nn::Tensor& item_embeddings,
    int64_t first_new) {
  IMSR_CHECK_EQ(interests.dim(), 2);
  IMSR_CHECK_EQ(item_embeddings.dim(), 2);
  IMSR_CHECK_EQ(interests.size(1), item_embeddings.size(1));
  IMSR_CHECK(first_new >= 1 && first_new <= interests.size(0));
  // profiles[k]: every item's score under interest k.
  std::vector<std::vector<double>> profiles(
      static_cast<size_t>(interests.size(0)));
  for (int64_t k = 0; k < interests.size(0); ++k) {
    const nn::Tensor scores = nn::MatVec(item_embeddings, interests.Row(k));
    profiles[static_cast<size_t>(k)].assign(
        scores.data(), scores.data() + scores.numel());
  }
  std::vector<MaxCorrelation> result;
  for (int64_t j = first_new; j < interests.size(0); ++j) {
    MaxCorrelation best;
    for (int64_t k = 0; k < first_new; ++k) {
      const double corr =
          util::PearsonCorrelation(profiles[static_cast<size_t>(j)],
                                   profiles[static_cast<size_t>(k)]);
      if (corr > best.correlation) best = {corr, k};
    }
    result.push_back(best);
  }
  return result;
}

std::vector<double> InterestNorms(const nn::Tensor& interests) {
  std::vector<double> norms;
  norms.reserve(static_cast<size_t>(interests.size(0)));
  for (int64_t k = 0; k < interests.size(0); ++k) {
    norms.push_back(nn::L2NormFlat(interests.Row(k)));
  }
  return norms;
}

double InheritedDrift(const nn::Tensor& before, const nn::Tensor& after) {
  IMSR_CHECK_EQ(before.size(1), after.size(1));
  const int64_t inherited = std::min(before.size(0), after.size(0));
  IMSR_CHECK_GT(inherited, 0);
  double total = 0.0;
  for (int64_t k = 0; k < inherited; ++k) {
    total += nn::L2NormFlat(nn::Sub(after.Row(k), before.Row(k)));
  }
  return total / static_cast<double>(inherited);
}

std::vector<double> DistanceToNearestExisting(const nn::Tensor& interests,
                                              int64_t first_new) {
  IMSR_CHECK(first_new >= 1 && first_new <= interests.size(0));
  std::vector<double> distances;
  for (int64_t j = first_new; j < interests.size(0); ++j) {
    double nearest = 1e300;
    for (int64_t k = 0; k < first_new; ++k) {
      nearest = std::min(
          nearest, static_cast<double>(nn::L2NormFlat(
                       nn::Sub(interests.Row(j), interests.Row(k)))));
    }
    distances.push_back(nearest);
  }
  return distances;
}

InterestAgeShares InterestAgeServingShare(const nn::Tensor& item_embeddings,
                                          const core::InterestStore& store,
                                          const data::Dataset& dataset,
                                          int test_span, int max_span) {
  IMSR_CHECK_GE(max_span, 0);
  std::vector<int64_t> served(static_cast<size_t>(max_span + 1), 0);
  InterestAgeShares result;
  for (data::UserId user : dataset.active_users(test_span)) {
    if (!store.Has(user)) continue;
    const data::UserSpanData& span_data =
        dataset.user_span(user, test_span);
    if (span_data.test < 0) continue;
    const nn::Tensor target = item_embeddings.Row(span_data.test);
    const nn::Tensor scores = nn::MatVec(store.Interests(user), target);
    int64_t best = 0;
    for (int64_t k = 1; k < scores.numel(); ++k) {
      if (scores.at(k) > scores.at(best)) best = k;
    }
    const int birth = store.BirthSpans(user)[static_cast<size_t>(best)];
    served[static_cast<size_t>(std::min(birth, max_span))] += 1;
    ++result.users;
  }
  result.shares.assign(served.size(), 0.0);
  if (result.users == 0) return result;
  for (size_t s = 0; s < served.size(); ++s) {
    result.shares[s] = static_cast<double>(served[s]) /
                       static_cast<double>(result.users);
  }
  return result;
}

}  // namespace imsr::eval
