// Failure-injection tests: contract violations must abort with a
// diagnostic (IMSR_CHECK), never corrupt state silently.
#include <gtest/gtest.h>

#include "core/interest_store.h"
#include "core/pit.h"
#include "data/sampler.h"
#include "nn/ops.h"
#include "nn/tensor.h"
#include "util/flags.h"
#include "util/serialization.h"

namespace imsr {
namespace {

using DeathTest = ::testing::Test;

TEST(DeathTest, TensorShapeViolations) {
  EXPECT_DEATH(nn::Tensor({0, 3}), "positive");
  EXPECT_DEATH(nn::Tensor({2}, {1.0f}), "IMSR_CHECK");
  nn::Tensor t({2, 2});
  EXPECT_DEATH(t.Reshape({3, 2}), "IMSR_CHECK");
  EXPECT_DEATH(t.RowSlice(1, 1), "RowSlice");
}

TEST(DeathTest, TensorOpMismatches) {
  const nn::Tensor a({2, 3});
  const nn::Tensor b({3, 4});
  EXPECT_DEATH(nn::Add(a, b), "IMSR_CHECK");
  EXPECT_DEATH(nn::MatMul(a, a), "IMSR_CHECK");
  EXPECT_DEATH(nn::GatherRows(a, {5}), "out of range");
}

TEST(DeathTest, AutogradContractViolations) {
  nn::Var undefined;
  EXPECT_DEATH(undefined.value(), "IMSR_CHECK");
  nn::Var vector(nn::Tensor({3}), true);
  EXPECT_DEATH(vector.Backward(), "scalar");
  nn::Var scalar(nn::Tensor({1}), true);
  EXPECT_DEATH(scalar.grad(), "no gradient");
}

TEST(DeathTest, InterestStoreMisuse) {
  core::InterestStore store;
  EXPECT_DEATH(store.Interests(7), "no interests");
  util::Rng rng(1);
  store.Initialize(7, 2, 4, 0, rng);
  // SetInterests must preserve K.
  EXPECT_DEATH(store.SetInterests(7, nn::Tensor({3, 4})),
               "preserve K");
  // Keep cannot empty a user's interest set.
  EXPECT_DEATH(store.Keep(7, {}), "at least one");
}

TEST(DeathTest, FlagSetDuplicateRegistrationAborts) {
  // Silent last-wins registration would let two call sites fight over
  // one flag; the abort must name the offender.
  util::FlagSet set("tool", "duplicate registration");
  set.AddInt("shards", 4, "worker shard count");
  EXPECT_DEATH(set.AddString("shards", "x", "conflicting re-register"),
               "flag --shards registered twice");
}

TEST(DeathTest, PitRequiresValidBasis) {
  const nn::Tensor interests = nn::Tensor::Ones({3, 4});
  core::PitConfig config;
  EXPECT_DEATH(core::ProjectAndTrim(interests, 0, config), "IMSR_CHECK");
  EXPECT_DEATH(core::ProjectAndTrim(interests, 5, config), "IMSR_CHECK");
}

TEST(DeathTest, NegativeSamplerNeedsTwoItems) {
  EXPECT_DEATH(data::NegativeSampler(1), "IMSR_CHECK");
}

TEST(DeathTest, NegativeSamplerRejectsOverdraw) {
  // count >= num_items cannot produce `count` draws all distinct from the
  // target's rejection; the old code would spin forever at count ==
  // num_items - 1 == 0... and silently crawl near the boundary. It must
  // abort with the corpus size in the message instead.
  data::NegativeSampler sampler(4);
  util::Rng rng(1);
  EXPECT_DEATH(sampler.Sample(4, 0, rng), "corpus of 4 items");
  EXPECT_DEATH(sampler.Sample(100, 0, rng), "corpus of 4 items");
  EXPECT_DEATH(sampler.Sample(-1, 0, rng), "IMSR_CHECK");
  // The boundary case count == num_items - 1 is legal (exactly the
  // non-target items, drawn with replacement).
  EXPECT_EQ(sampler.Sample(3, 0, rng).size(), 3u);
}

}  // namespace
}  // namespace imsr
