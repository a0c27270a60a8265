// Tests for the base MSR models: embedding table, B2I routing, the three
// extractors, the attentive aggregator and the sampled-softmax loss.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>

#include "models/aggregator.h"
#include "models/capsule_routing.h"
#include "models/comirec_dr.h"
#include "models/comirec_sa.h"
#include "models/interest_readout.h"
#include "models/mind.h"
#include "models/msr_model.h"
#include "models/sampled_softmax.h"
#include "nn/gradcheck.h"
#include "nn/ops.h"

namespace imsr::models {
namespace {

TEST(EmbeddingTest, LookupMatchesTable) {
  util::Rng rng(1);
  EmbeddingTable table(10, 4, rng);
  const nn::Tensor rows = table.LookupNoGrad({3, 7});
  EXPECT_EQ(rows.size(0), 2);
  for (int64_t j = 0; j < 4; ++j) {
    EXPECT_EQ(rows.at(0, j), table.parameter().value().at(3, j));
    EXPECT_EQ(rows.at(1, j), table.RowNoGrad(7).at(j));
  }
}

TEST(EmbeddingTest, GradientFlowsThroughLookup) {
  util::Rng rng(2);
  EmbeddingTable table(6, 3, rng);
  nn::Var gathered = table.Lookup({1, 1, 4});
  nn::ops::SumSquares(gathered).Backward();
  const nn::Tensor& grad = table.parameter().grad();
  // Row 1 used twice, row 4 once, others untouched.
  EXPECT_NE(grad.at(1, 0), 0.0f);
  EXPECT_NE(grad.at(4, 0), 0.0f);
  EXPECT_EQ(grad.at(0, 0), 0.0f);
  EXPECT_NEAR(grad.at(1, 0),
              4.0f * table.parameter().value().at(1, 0), 1e-5f);
}

TEST(EmbeddingTest, SaveLoadRoundTrip) {
  util::Rng rng(3);
  EmbeddingTable table(5, 4, rng);
  util::BinaryWriter writer;
  table.Save(&writer);
  EmbeddingTable other(5, 4, rng);
  util::BinaryReader reader(writer.buffer());
  std::string error;
  ASSERT_TRUE(other.Load(&reader, &error)) << error;
  EXPECT_LT(nn::MaxAbsDiff(table.parameter().value(),
                           other.parameter().value()),
            1e-12f);
}

TEST(RoutingTest, CouplingRowsAreDistributions) {
  util::Rng rng(4);
  const nn::Tensor e_hat = nn::Tensor::Randn({6, 8}, rng);
  const nn::Tensor init = nn::Tensor::Randn({3, 8}, rng);
  const nn::Tensor coupling =
      B2IRouting(e_hat, init, RoutingConfig{3, 0.0f}, nullptr);
  EXPECT_EQ(coupling.size(0), 6);
  EXPECT_EQ(coupling.size(1), 3);
  for (int64_t i = 0; i < 6; ++i) {
    float total = 0.0f;
    for (int64_t k = 0; k < 3; ++k) {
      EXPECT_GE(coupling.at(i, k), 0.0f);
      total += coupling.at(i, k);
    }
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(RoutingTest, ItemsRouteTowardAlignedInterest) {
  // Two well-separated interest directions; items clustered on each must
  // route to their own capsule.
  const int64_t d = 8;
  nn::Tensor init({2, d});
  init.at(0, 0) = 1.0f;
  init.at(1, 1) = 1.0f;
  nn::Tensor e_hat({4, d});
  e_hat.at(0, 0) = 2.0f;  // aligned with interest 0
  e_hat.at(1, 0) = 1.5f;
  e_hat.at(2, 1) = 2.0f;  // aligned with interest 1
  e_hat.at(3, 1) = 1.5f;
  const nn::Tensor coupling =
      B2IRouting(e_hat, init, RoutingConfig{3, 0.0f}, nullptr);
  EXPECT_GT(coupling.at(0, 0), coupling.at(0, 1));
  EXPECT_GT(coupling.at(1, 0), coupling.at(1, 1));
  EXPECT_LT(coupling.at(2, 0), coupling.at(2, 1));
  EXPECT_LT(coupling.at(3, 0), coupling.at(3, 1));
}

TEST(RoutingTest, MoreIterationsSharpenCoupling) {
  util::Rng rng(5);
  const nn::Tensor e_hat = nn::Tensor::Randn({10, 8}, rng);
  const nn::Tensor init = nn::Tensor::Randn({4, 8}, rng);
  auto entropy = [](const nn::Tensor& c) {
    double total = 0.0;
    for (int64_t i = 0; i < c.size(0); ++i) {
      for (int64_t k = 0; k < c.size(1); ++k) {
        const double p = c.at(i, k);
        if (p > 1e-12) total -= p * std::log(p);
      }
    }
    return total;
  };
  const double h1 =
      entropy(B2IRouting(e_hat, init, RoutingConfig{1, 0.0f}, nullptr));
  const double h5 =
      entropy(B2IRouting(e_hat, init, RoutingConfig{5, 0.0f}, nullptr));
  EXPECT_LT(h5, h1);
}

TEST(DynamicRoutingExtractorTest, ShapesAndGradients) {
  util::Rng rng(6);
  DynamicRoutingExtractor extractor(8, RoutingConfig{2, 0.0f}, rng);
  nn::Var items(nn::Tensor::Randn({5, 8}, rng), /*requires_grad=*/true);
  const nn::Tensor init = nn::Tensor::Randn({3, 8}, rng);
  nn::Var interests = extractor.Forward(items, init, 0);
  EXPECT_EQ(interests.value().size(0), 3);
  EXPECT_EQ(interests.value().size(1), 8);
  // Squash keeps every interest norm below 1.
  for (int64_t k = 0; k < 3; ++k) {
    EXPECT_LT(nn::L2NormFlat(interests.value().Row(k)), 1.0f);
  }
  nn::ops::SumSquares(interests).Backward();
  EXPECT_TRUE(items.has_grad());
  EXPECT_TRUE(extractor.transform().has_grad());
}

TEST(DynamicRoutingExtractorTest, NoGradMatchesForwardValue) {
  util::Rng rng(7);
  DynamicRoutingExtractor extractor(8, RoutingConfig{3, 0.0f}, rng);
  const nn::Tensor items = nn::Tensor::Randn({6, 8}, rng);
  const nn::Tensor init = nn::Tensor::Randn({2, 8}, rng);
  const nn::Tensor no_grad = extractor.ForwardNoGrad(items, init, 0);
  nn::Var graph = extractor.Forward(nn::Var(items), init, 0);
  EXPECT_LT(nn::MaxAbsDiff(no_grad, graph.value()), 1e-5f);
}

TEST(DynamicRoutingExtractorTest, SaveLoadResetBehaviour) {
  util::Rng rng(8);
  DynamicRoutingExtractor extractor(6, RoutingConfig{2, 0.0f}, rng);
  util::BinaryWriter writer;
  extractor.Save(&writer);
  const nn::Tensor before = extractor.transform().value();
  extractor.Reset(rng);
  EXPECT_GT(nn::MaxAbsDiff(before, extractor.transform().value()), 1e-4f);
  util::BinaryReader reader(writer.buffer());
  std::string error;
  ASSERT_TRUE(extractor.Load(&reader, &error)) << error;
  EXPECT_LT(nn::MaxAbsDiff(before, extractor.transform().value()), 1e-12f);
}

TEST(MindExtractorTest, KindAndNoise) {
  util::Rng rng(9);
  MindExtractor extractor(8, 3, 0.5f, rng);
  EXPECT_EQ(extractor.kind(), ExtractorKind::kMind);
  // With logit noise, two no-grad passes differ (random routing init).
  const nn::Tensor items = nn::Tensor::Randn({6, 8}, rng);
  const nn::Tensor init = nn::Tensor::Randn({3, 8}, rng);
  const nn::Tensor a = extractor.ForwardNoGrad(items, init, 0);
  const nn::Tensor b = extractor.ForwardNoGrad(items, init, 0);
  EXPECT_GT(nn::MaxAbsDiff(a, b), 1e-6f);
}

TEST(SelfAttentionExtractorTest, CapacityLifecycle) {
  util::Rng rng(10);
  SelfAttentionExtractor extractor(8, 6, rng);
  EXPECT_EQ(extractor.UserCapacity(42), 0);
  nn::Adam optimizer(0.01f);
  extractor.EnsureUserCapacity(42, 4, rng, &optimizer);
  EXPECT_EQ(extractor.UserCapacity(42), 4);
  EXPECT_EQ(optimizer.num_parameters(), 1u);

  // Growth preserves existing columns.
  const nn::Tensor before = extractor.UserQuery(42).value();
  extractor.EnsureUserCapacity(42, 6, rng, &optimizer);
  EXPECT_EQ(extractor.UserCapacity(42), 6);
  const nn::Tensor after = extractor.UserQuery(42).value();
  for (int64_t r = 0; r < 6; ++r) {
    for (int64_t c = 0; c < 4; ++c) {
      EXPECT_EQ(after.at(r, c), before.at(r, c));
    }
  }
  EXPECT_EQ(optimizer.num_parameters(), 1u);  // old replaced, not leaked

  // Shrink keeps selected columns.
  extractor.KeepUserInterests(42, {0, 2, 5}, &optimizer);
  EXPECT_EQ(extractor.UserCapacity(42), 3);
  const nn::Tensor kept = extractor.UserQuery(42).value();
  for (int64_t r = 0; r < 6; ++r) {
    EXPECT_EQ(kept.at(r, 1), after.at(r, 2));
  }
}

TEST(SelfAttentionExtractorTest, ForwardShapesAndGradients) {
  util::Rng rng(11);
  SelfAttentionExtractor extractor(8, 6, rng);
  extractor.EnsureUserCapacity(1, 3, rng, nullptr);
  nn::Var items(nn::Tensor::Randn({5, 8}, rng), /*requires_grad=*/true);
  const nn::Tensor init = nn::Tensor::Randn({3, 8}, rng);
  nn::Var interests = extractor.Forward(items, init, 1);
  EXPECT_EQ(interests.value().size(0), 3);
  EXPECT_EQ(interests.value().size(1), 8);
  nn::ops::SumSquares(interests).Backward();
  EXPECT_TRUE(items.has_grad());
  EXPECT_TRUE(extractor.UserQuery(1).has_grad());
  EXPECT_TRUE(extractor.SharedParameters()[0].has_grad());
}

TEST(SelfAttentionExtractorTest, InterestsAreConvexCombinations) {
  // Each SA interest is an attention-weighted average of item embeddings,
  // so it lies inside the items' convex hull: max |h| <= max |e|.
  util::Rng rng(12);
  SelfAttentionExtractor extractor(8, 6, rng);
  extractor.EnsureUserCapacity(2, 4, rng, nullptr);
  const nn::Tensor items = nn::Tensor::Randn({7, 8}, rng);
  const nn::Tensor init = nn::Tensor::Randn({4, 8}, rng);
  const nn::Tensor interests = extractor.ForwardNoGrad(items, init, 2);
  float max_item_norm = 0.0f;
  for (int64_t i = 0; i < items.size(0); ++i) {
    max_item_norm = std::max(max_item_norm, nn::L2NormFlat(items.Row(i)));
  }
  for (int64_t k = 0; k < interests.size(0); ++k) {
    EXPECT_LE(nn::L2NormFlat(interests.Row(k)), max_item_norm + 1e-4f);
  }
}

TEST(SelfAttentionExtractorTest, SaveLoadRoundTrip) {
  util::Rng rng(13);
  SelfAttentionExtractor extractor(4, 3, rng);
  extractor.EnsureUserCapacity(7, 2, rng, nullptr);
  util::BinaryWriter writer;
  extractor.Save(&writer);
  SelfAttentionExtractor other(4, 3, rng);
  util::BinaryReader reader(writer.buffer());
  std::string error;
  ASSERT_TRUE(other.Load(&reader, &error)) << error;
  EXPECT_EQ(other.UserCapacity(7), 2);
  EXPECT_LT(nn::MaxAbsDiff(other.UserQuery(7).value(),
                           extractor.UserQuery(7).value()),
            1e-12f);
}

TEST(AggregatorTest, AttentiveAggregateIsConvex) {
  // v_u = H^T softmax(H e): a convex combination of interest rows.
  util::Rng rng(14);
  const nn::Tensor interests = nn::Tensor::Randn({3, 6}, rng);
  const nn::Tensor target = nn::Tensor::Randn({6}, rng);
  const nn::Tensor v = AttentiveAggregateNoGrad(interests, target);
  EXPECT_EQ(v.numel(), 6);
  // With one interest, v equals that interest exactly.
  const nn::Tensor single = interests.RowSlice(0, 1);
  const nn::Tensor v1 = AttentiveAggregateNoGrad(single, target);
  EXPECT_LT(nn::MaxAbsDiff(v1, single.Reshape({6})), 1e-6f);
}

TEST(AggregatorTest, AggregateWeightsFollowAlignment) {
  // Target aligned with interest 0 makes v close to interest 0.
  nn::Tensor interests({2, 4});
  interests.at(0, 0) = 1.0f;
  interests.at(1, 1) = 1.0f;
  nn::Tensor target({4});
  target.at(0) = 10.0f;  // strongly aligned with h_0
  const nn::Tensor v = AttentiveAggregateNoGrad(interests, target);
  EXPECT_GT(v.at(0), 0.95f);
  EXPECT_LT(v.at(1), 0.05f);
}

TEST(AggregatorTest, GradVersionMatchesNoGrad) {
  util::Rng rng(15);
  const nn::Tensor interests = nn::Tensor::Randn({4, 5}, rng);
  const nn::Tensor target = nn::Tensor::Randn({5}, rng);
  nn::Var v = AttentiveAggregate(nn::Var(interests), nn::Var(target));
  EXPECT_LT(nn::MaxAbsDiff(v.value(),
                           AttentiveAggregateNoGrad(interests, target)),
            1e-5f);
}

// Exact float-for-float equality (memcmp: -0.0 vs +0.0 would fail).
bool SameBits(const nn::Tensor& a, const nn::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// The fused readout node against the seven-node chain it stands for
// (RowSlice -> MatMulTransA -> SquashRows -> RowVector -> MatVec ->
// Softmax -> MatVecTransA), node by node: the value and the gradients
// into e_hat_all and target_embeddings must match bit for bit. Covers a
// row slice of a larger e_hat_all and the full-range batch-of-one bypass
// (no slice node), each with and without a second consumer of H, which
// the fused node serves through its interests Var; that consumer sits
// downstream of the readout's loss term, so its gradient is H's first.
TEST(InterestReadoutTest, FusedNodeMatchesSevenNodeChainBitwise) {
  util::Rng rng(3);
  constexpr int64_t kRows = 5;
  constexpr int64_t kTargetRow = 2;
  for (int64_t d : {1, 7, 32}) {
    for (int64_t k = 1; k <= 8; ++k) {
      for (bool full_range : {false, true}) {
        for (bool consume_interests : {false, true}) {
          const int64_t begin = full_range ? 0 : 3;
          const int64_t total_rows = full_range ? kRows : kRows + 6;
          const nn::Tensor e_hat = nn::Tensor::Randn({total_rows, d}, rng);
          const nn::Tensor targets = nn::Tensor::Randn({4, d}, rng);
          const nn::Tensor coupling =
              nn::Tensor::RandUniform({kRows, k}, rng, 0.0f, 1.0f);
          const nn::Tensor w = nn::Tensor::Randn({d}, rng);
          const nn::Tensor u = nn::Tensor::Randn({k * d}, rng);
          auto run = [&](bool fused) {
            nn::Var e_hat_all(e_hat, /*requires_grad=*/true);
            nn::Var target_embeddings(targets, /*requires_grad=*/true);
            nn::Var repr;
            nn::Var interests;
            if (fused) {
              repr = RoutedAttentiveReadout(
                  e_hat_all, begin, e_hat.RowSlice(begin, begin + kRows),
                  coupling, target_embeddings, kTargetRow,
                  consume_interests ? &interests : nullptr);
            } else {
              nn::Var slice =
                  full_range
                      ? e_hat_all
                      : nn::ops::RowSlice(e_hat_all, begin, begin + kRows);
              interests = nn::ops::SquashRows(
                  nn::ops::MatMulTransA(nn::Var(coupling), slice));
              nn::Var target =
                  nn::ops::RowVector(target_embeddings, kTargetRow);
              nn::Var beta =
                  nn::ops::Softmax(nn::ops::MatVec(interests, target));
              repr = nn::ops::MatVecTransA(interests, beta);
            }
            nn::Var loss = nn::ops::Dot(repr, nn::Var(w));
            if (consume_interests) {
              loss = nn::ops::Add(
                  loss, nn::ops::Dot(nn::ops::Reshape(interests, {k * d}),
                                     nn::Var(u)));
            }
            loss.Backward();
            return std::make_tuple(repr.value(), e_hat_all.grad(),
                                   target_embeddings.grad());
          };
          const auto fused = run(true);
          const auto reference = run(false);
          const std::string where =
              "d " + std::to_string(d) + " K " + std::to_string(k) +
              (full_range ? " full" : " slice") +
              (consume_interests ? " +H consumer" : "");
          EXPECT_TRUE(SameBits(std::get<0>(fused), std::get<0>(reference)))
              << "value, " << where;
          EXPECT_TRUE(SameBits(std::get<1>(fused), std::get<1>(reference)))
              << "d e_hat_all, " << where;
          EXPECT_TRUE(SameBits(std::get<2>(fused), std::get<2>(reference)))
              << "d target_embeddings, " << where;
        }
      }
    }
  }
}

TEST(SampledSoftmaxTest, LossDecreasesWithBetterAlignment) {
  util::Rng rng(16);
  nn::Tensor candidates_t = nn::Tensor::Randn({5, 4}, rng);
  nn::Tensor v_good = candidates_t.Row(0);  // aligned with the positive
  nn::Tensor v_bad = candidates_t.Row(3);   // aligned with a negative
  const float loss_good =
      SampledSoftmaxLoss(nn::Var(v_good), nn::Var(candidates_t))
          .value()
          .item();
  const float loss_bad =
      SampledSoftmaxLoss(nn::Var(v_bad), nn::Var(candidates_t))
          .value()
          .item();
  EXPECT_LT(loss_good, loss_bad);
}

TEST(SampledSoftmaxTest, GradientCheck) {
  util::Rng rng(17);
  nn::Var v(nn::Tensor::Randn({4}, rng), /*requires_grad=*/true);
  nn::Var candidates(nn::Tensor::Randn({6, 4}, rng),
                     /*requires_grad=*/true);
  auto forward = [&] { return SampledSoftmaxLoss(v, candidates); };
  EXPECT_TRUE(nn::CheckGradients(forward, {v, candidates}).ok);
}

TEST(MsrModelTest, ConstructionPerKind) {
  for (ExtractorKind kind :
       {ExtractorKind::kMind, ExtractorKind::kComiRecDr,
        ExtractorKind::kComiRecSa}) {
    ModelConfig config;
    config.kind = kind;
    config.embedding_dim = 8;
    MsrModel model(config, 20, 1);
    EXPECT_EQ(model.extractor().kind(), kind);
    EXPECT_GE(model.SharedParameters().size(), 2u);
  }
}

TEST(MsrModelTest, ForwardInterestsShape) {
  ModelConfig config;
  config.kind = ExtractorKind::kComiRecDr;
  config.embedding_dim = 8;
  MsrModel model(config, 20, 2);
  util::Rng rng(3);
  const nn::Tensor init = nn::Tensor::Randn({4, 8}, rng);
  const nn::Tensor interests =
      model.ForwardInterestsNoGrad({1, 2, 3, 4, 5}, init, 0);
  EXPECT_EQ(interests.size(0), 4);
  EXPECT_EQ(interests.size(1), 8);
}

TEST(MsrModelTest, SaveLoadRoundTrip) {
  ModelConfig config;
  config.kind = ExtractorKind::kComiRecSa;
  config.embedding_dim = 8;
  config.attention_dim = 6;
  MsrModel model(config, 15, 4);
  util::Rng rng(5);
  model.extractor().EnsureUserCapacity(3, 4, rng, nullptr);
  util::BinaryWriter writer;
  model.Save(&writer);

  MsrModel other(config, 15, 99);
  util::BinaryReader reader(writer.buffer());
  std::string error;
  ASSERT_TRUE(other.Load(&reader, &error)) << error;
  EXPECT_LT(nn::MaxAbsDiff(model.embeddings().parameter().value(),
                           other.embeddings().parameter().value()),
            1e-12f);
  // Forward passes agree after load.
  const nn::Tensor init = nn::Tensor::Randn({4, 8}, rng);
  EXPECT_LT(nn::MaxAbsDiff(
                model.ForwardInterestsNoGrad({1, 2, 3}, init, 3),
                other.ForwardInterestsNoGrad({1, 2, 3}, init, 3)),
            1e-5f);
}

TEST(MsrModelTest, ExtractorKindNames) {
  EXPECT_STREQ(ExtractorKindName(ExtractorKind::kMind), "MIND");
  ExtractorKind kind;
  std::string error;
  EXPECT_TRUE(ExtractorKindFromName("dr", &kind, &error));
  EXPECT_EQ(kind, ExtractorKind::kComiRecDr);
  EXPECT_TRUE(ExtractorKindFromName("ComiRec-SA", &kind, &error));
  EXPECT_EQ(kind, ExtractorKind::kComiRecSa);
}

TEST(MsrModelTest, ExtractorKindFromNameRejectsTypos) {
  ExtractorKind kind = ExtractorKind::kMind;
  std::string error;
  EXPECT_FALSE(ExtractorKindFromName("cosmic-ray", &kind, &error));
  // The error lists every valid spelling so a CLI typo is self-correcting.
  EXPECT_NE(error.find("cosmic-ray"), std::string::npos);
  EXPECT_NE(error.find("MIND"), std::string::npos);
  EXPECT_NE(error.find("dr"), std::string::npos);
  EXPECT_NE(error.find("sa"), std::string::npos);
  EXPECT_EQ(kind, ExtractorKind::kMind);  // untouched on failure
  // A null error sink is allowed.
  EXPECT_FALSE(ExtractorKindFromName("nope", &kind, nullptr));
}

}  // namespace
}  // namespace imsr::models
