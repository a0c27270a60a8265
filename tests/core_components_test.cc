// Tests for IMSR's core components: the interest store, NID (puzzlement),
// PIT (projection + trimming) and EIR (retention losses).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/eir.h"
#include "core/interest_store.h"
#include "core/nid.h"
#include "core/pit.h"
#include "nn/gradcheck.h"
#include "nn/ops.h"

namespace imsr::core {
namespace {

// ---- InterestStore ----

TEST(InterestStoreTest, InitializeAndQuery) {
  InterestStore store;
  util::Rng rng(1);
  EXPECT_FALSE(store.Has(5));
  EXPECT_EQ(store.NumInterests(5), 0);
  store.Initialize(5, 4, 8, /*span=*/0, rng);
  EXPECT_TRUE(store.Has(5));
  EXPECT_EQ(store.NumInterests(5), 4);
  EXPECT_EQ(store.Interests(5).size(1), 8);
  EXPECT_EQ(store.BirthSpans(5), (std::vector<int>{0, 0, 0, 0}));
}

TEST(InterestStoreTest, AppendAndKeep) {
  InterestStore store;
  util::Rng rng(2);
  store.Initialize(1, 2, 4, 0, rng);
  nn::Tensor extra({2, 4});
  extra.at(0, 0) = 9.0f;
  extra.at(1, 1) = 8.0f;
  store.Append(1, extra, /*span=*/3);
  EXPECT_EQ(store.NumInterests(1), 4);
  EXPECT_EQ(store.BirthSpans(1), (std::vector<int>{0, 0, 3, 3}));
  EXPECT_EQ(store.Interests(1).at(2, 0), 9.0f);

  store.Keep(1, {0, 2});
  EXPECT_EQ(store.NumInterests(1), 2);
  EXPECT_EQ(store.BirthSpans(1), (std::vector<int>{0, 3}));
  EXPECT_EQ(store.Interests(1).at(1, 0), 9.0f);
}

TEST(InterestStoreTest, SetInterestsPreservesShape) {
  InterestStore store;
  util::Rng rng(3);
  store.Initialize(2, 3, 4, 0, rng);
  nn::Tensor replacement = nn::Tensor::Full({3, 4}, 2.0f);
  store.SetInterests(2, replacement);
  EXPECT_EQ(store.Interests(2).at(1, 1), 2.0f);
}

TEST(InterestStoreTest, AverageInterestsAndUsers) {
  InterestStore store;
  util::Rng rng(4);
  store.Initialize(1, 4, 4, 0, rng);
  store.Initialize(2, 6, 4, 0, rng);
  EXPECT_DOUBLE_EQ(store.AverageInterests(), 5.0);
  EXPECT_EQ(store.Users(), (std::vector<data::UserId>{1, 2}));
}

TEST(InterestStoreTest, SaveLoadRoundTrip) {
  InterestStore store;
  util::Rng rng(5);
  store.Initialize(3, 2, 4, 0, rng);
  store.Append(3, nn::Tensor::Full({1, 4}, 1.5f), 2);
  util::BinaryWriter writer;
  store.Save(&writer);

  InterestStore loaded;
  util::BinaryReader reader(writer.buffer());
  std::string error;
  ASSERT_TRUE(loaded.Load(&reader, &error)) << error;
  EXPECT_EQ(loaded.NumInterests(3), 3);
  EXPECT_EQ(loaded.BirthSpans(3), (std::vector<int>{0, 0, 2}));
  EXPECT_LT(nn::MaxAbsDiff(loaded.Interests(3), store.Interests(3)),
            1e-12f);
}

// ---- NID ----

TEST(NidTest, AssignmentDistributionIsProbability) {
  util::Rng rng(6);
  const nn::Tensor item = nn::Tensor::Randn({8}, rng);
  const nn::Tensor interests = nn::Tensor::Randn({4, 8}, rng);
  const std::vector<double> p = AssignmentDistribution(item, interests);
  double total = 0.0;
  for (double v : p) {
    EXPECT_GT(v, 0.0);
    total += v;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(NidTest, KlIsNonNegativeAndZeroForUniform) {
  // An item orthogonal to every interest has uniform assignment -> KL 0.
  nn::Tensor interests({2, 4});
  interests.at(0, 0) = 1.0f;
  interests.at(1, 1) = 1.0f;
  nn::Tensor orthogonal({4});
  orthogonal.at(2) = 1.0f;
  EXPECT_NEAR(AssignmentKl(orthogonal, interests), 0.0, 1e-6);
  EXPECT_NEAR(ItemPuzzlement(orthogonal, interests), 0.0, 1e-6);
}

TEST(NidTest, AlignedItemHasHigherKlThanPuzzledItem) {
  nn::Tensor interests({2, 4});
  interests.at(0, 0) = 1.0f;
  interests.at(1, 1) = 1.0f;
  nn::Tensor aligned({4});
  aligned.at(0) = 1.0f;  // matches interest 0 exactly
  nn::Tensor puzzled({4});
  puzzled.at(0) = 1.0f;
  puzzled.at(1) = 1.0f;  // equal affinity to both
  EXPECT_GT(AssignmentKl(aligned, interests),
            AssignmentKl(puzzled, interests) + 1e-3);
  // Puzzlement (Eq. 13) is <= 0 with the maximum at uniform.
  EXPECT_LT(ItemPuzzlement(aligned, interests),
            ItemPuzzlement(puzzled, interests));
}

TEST(NidTest, PuzzlementIsScaleInvariant) {
  // Cosine-normalised logits: scaling the embedding must not change KL.
  util::Rng rng(7);
  const nn::Tensor interests = nn::Tensor::Randn({3, 6}, rng);
  const nn::Tensor item = nn::Tensor::Randn({6}, rng);
  const nn::Tensor scaled = nn::Scale(item, 25.0f);
  EXPECT_NEAR(AssignmentKl(item, interests),
              AssignmentKl(scaled, interests), 1e-5);
}

TEST(NidTest, DetectorFiresOnPuzzledBatch) {
  nn::Tensor interests({2, 4});
  interests.at(0, 0) = 1.0f;
  interests.at(1, 1) = 1.0f;
  // Items orthogonal to both interests: maximally puzzled.
  nn::Tensor puzzled_items({3, 4});
  for (int64_t i = 0; i < 3; ++i) puzzled_items.at(i, 2) = 1.0f;
  // Items aligned with interest 0: classified.
  nn::Tensor aligned_items({3, 4});
  for (int64_t i = 0; i < 3; ++i) aligned_items.at(i, 0) = 1.0f;

  NidConfig config;
  config.c1 = 0.05;
  EXPECT_TRUE(DetectNewInterests(puzzled_items, interests, config));
  EXPECT_FALSE(DetectNewInterests(aligned_items, interests, config));
}

TEST(NidTest, LargerC1FiresMoreEasily) {
  util::Rng rng(8);
  const nn::Tensor interests = nn::Tensor::Randn({4, 8}, rng);
  const nn::Tensor items = nn::Tensor::Randn({5, 8}, rng);
  const double kl = MeanAssignmentKl(items, interests);
  NidConfig strict{kl * 0.5};
  NidConfig loose{kl * 2.0};
  EXPECT_FALSE(DetectNewInterests(items, interests, strict));
  EXPECT_TRUE(DetectNewInterests(items, interests, loose));
}

TEST(NidTest, CountAssignedItemsCensus) {
  nn::Tensor interests({2, 4});
  interests.at(0, 0) = 1.0f;
  interests.at(1, 1) = 1.0f;
  nn::Tensor items({5, 4});
  items.at(0, 0) = 1.0f;  // -> interest 0
  items.at(1, 0) = 2.0f;  // -> interest 0
  items.at(2, 1) = 1.0f;  // -> interest 1
  items.at(3, 1) = 0.5f;  // -> interest 1
  items.at(4, 0) = 0.1f;  // weakly -> interest 0
  const std::vector<int> counts = CountAssignedItems(items, interests);
  EXPECT_EQ(counts, (std::vector<int>{3, 2}));
}

TEST(NidTest, CountAssignedItemsSumsToItemCount) {
  util::Rng rng(19);
  const nn::Tensor interests = nn::Tensor::Randn({5, 8}, rng);
  const nn::Tensor items = nn::Tensor::Randn({17, 8}, rng);
  const std::vector<int> counts = CountAssignedItems(items, interests);
  int total = 0;
  for (int c : counts) total += c;
  EXPECT_EQ(total, 17);
}

// The census as one argmax per item over a fresh logits vector, every
// interest row's norm recomputed per item: the reference the single-pass
// CountAssignedItems must match count for count.
std::vector<int> PerItemArgmaxCounts(const nn::Tensor& items,
                                     const nn::Tensor& interests) {
  const int64_t k = interests.size(0);
  const int64_t d = interests.size(1);
  std::vector<int> counts(static_cast<size_t>(k), 0);
  for (int64_t i = 0; i < items.size(0); ++i) {
    const nn::Tensor item = items.Row(i);
    const float item_norm = nn::L2NormFlat(item);
    std::vector<double> logits(static_cast<size_t>(k), 0.0);
    for (int64_t row = 0; row < k; ++row) {
      double dot = 0.0;
      double row_ss = 0.0;
      for (int64_t j = 0; j < d; ++j) {
        const float h = interests.at(row, j);
        dot += static_cast<double>(item.at(j)) * h;
        row_ss += static_cast<double>(h) * h;
      }
      const double denom =
          static_cast<double>(item_norm) * std::sqrt(row_ss);
      logits[static_cast<size_t>(row)] = denom > 1e-12 ? dot / denom : 0.0;
    }
    size_t best = 0;
    for (size_t r = 1; r < logits.size(); ++r) {
      if (logits[r] > logits[best]) best = r;
    }
    ++counts[best];
  }
  return counts;
}

TEST(NidTest, CountAssignedItemsMatchesPerItemArgmax) {
  util::Rng rng(23);
  for (int64_t d : {1, 3, 8, 33}) {
    for (int64_t k = 1; k <= 6; ++k) {
      nn::Tensor interests = nn::Tensor::Randn({k, d}, rng);
      nn::Tensor items = nn::Tensor::Randn({29, d}, rng);
      // Exact ties: a duplicated interest row, and zero rows whose
      // logits all read 0.
      if (k >= 3) interests.SetRow(2, interests.Row(0));
      if (k >= 2) interests.SetRow(k - 1, nn::Tensor::Zeros({d}));
      items.SetRow(4, nn::Tensor::Zeros({d}));
      items.SetRow(5, interests.Row(0));
      EXPECT_EQ(CountAssignedItems(items, interests),
                PerItemArgmaxCounts(items, interests))
          << "d=" << d << " k=" << k;
    }
  }
}

// ---- PIT ----

TEST(PitTest, SolveLinearSystemIdentityAndGeneral) {
  const nn::Tensor eye = nn::Tensor::Identity(3);
  const nn::Tensor b = nn::Tensor::FromVector({1, 2, 3});
  EXPECT_LT(nn::MaxAbsDiff(SolveLinearSystem(eye, b), b), 1e-6f);

  // General SPD system, verified by substitution.
  nn::Tensor a({2, 2}, {4, 1, 1, 3});
  const nn::Tensor rhs = nn::Tensor::FromVector({1, 2});
  const nn::Tensor x = SolveLinearSystem(a, rhs);
  EXPECT_LT(nn::MaxAbsDiff(nn::MatVec(a, x), rhs), 1e-5f);
}

TEST(PitTest, ProjectionOntoSpanIsIdempotent) {
  util::Rng rng(9);
  const nn::Tensor basis = nn::Tensor::Randn({3, 8}, rng);
  const nn::Tensor h = nn::Tensor::Randn({8}, rng);
  const nn::Tensor p1 = ProjectOntoRowSpan(basis, h);
  const nn::Tensor p2 = ProjectOntoRowSpan(basis, p1);
  EXPECT_LT(nn::MaxAbsDiff(p1, p2), 1e-3f);
}

TEST(PitTest, OrthogonalComponentIsOrthogonalToBasis) {
  util::Rng rng(10);
  const nn::Tensor basis = nn::Tensor::Randn({3, 8}, rng);
  const nn::Tensor h = nn::Tensor::Randn({8}, rng);
  const nn::Tensor orth = OrthogonalComponent(basis, h);
  for (int64_t k = 0; k < basis.size(0); ++k) {
    EXPECT_NEAR(nn::DotFlat(basis.Row(k), orth), 0.0f, 1e-3f);
  }
}

TEST(PitTest, VectorInSpanHasZeroOrthogonalComponent) {
  util::Rng rng(11);
  const nn::Tensor basis = nn::Tensor::Randn({2, 6}, rng);
  // h = 2 b0 - 0.5 b1 lies in the span.
  nn::Tensor h = nn::Scale(basis.Row(0), 2.0f);
  h.AddScaledInPlace(basis.Row(1), -0.5f);
  EXPECT_LT(nn::L2NormFlat(OrthogonalComponent(basis, h)), 1e-3f);
}

TEST(PitTest, ProjectAndTrimKeepsExistingRows) {
  util::Rng rng(12);
  nn::Tensor interests = nn::Tensor::Randn({5, 8}, rng);
  PitConfig config;
  config.c2 = 0.0;  // keep all new rows
  const TrimResult result = ProjectAndTrim(interests, 3, config);
  EXPECT_EQ(result.kept.size(), 5u);
  // Existing rows unchanged.
  for (int64_t k = 0; k < 3; ++k) {
    EXPECT_LT(
        nn::MaxAbsDiff(result.interests.Row(k), interests.Row(k)),
        1e-12f);
  }
  // New rows replaced by orthogonal components.
  const nn::Tensor existing = interests.RowSlice(0, 3);
  for (int64_t k = 3; k < 5; ++k) {
    for (int64_t b = 0; b < 3; ++b) {
      EXPECT_NEAR(
          nn::DotFlat(existing.Row(b), result.interests.Row(k)), 0.0f,
          1e-3f);
    }
  }
}

TEST(PitTest, TrimDropsRedundantNewInterests) {
  util::Rng rng(13);
  nn::Tensor existing = nn::Tensor::Randn({2, 6}, rng);
  // New row 0: pure combination of existing (should be trimmed).
  nn::Tensor redundant = nn::Scale(existing.Row(0), 1.5f);
  redundant.AddScaledInPlace(existing.Row(1), -0.7f);
  // New row 1: strongly novel direction.
  nn::Tensor novel({6});
  // Build something orthogonal-ish: orthogonalise a random vector.
  novel = OrthogonalComponent(existing, nn::Tensor::Randn({6}, rng));
  novel.ScaleInPlace(2.0f / nn::L2NormFlat(novel));

  const nn::Tensor interests =
      nn::ConcatRows({existing, redundant, novel});
  PitConfig config;
  config.c2 = 0.3;
  const TrimResult result = ProjectAndTrim(interests, 2, config);
  ASSERT_EQ(result.new_norms.size(), 2u);
  EXPECT_LT(result.new_norms[0], 0.3);  // redundant -> trimmed
  EXPECT_GT(result.new_norms[1], 0.3);  // novel -> kept
  EXPECT_EQ(result.kept, (std::vector<int64_t>{0, 1, 3}));
  EXPECT_EQ(result.interests.size(0), 3);
}

TEST(PitTest, StricterC2TrimsMore) {
  util::Rng rng(14);
  const nn::Tensor interests = nn::Tensor::Randn({6, 8}, rng);
  PitConfig loose;
  loose.c2 = 0.05;
  PitConfig strict;
  strict.c2 = 100.0;  // no orthogonal component can be this large
  const size_t kept_loose = ProjectAndTrim(interests, 3, loose).kept.size();
  const size_t kept_strict =
      ProjectAndTrim(interests, 3, strict).kept.size();
  EXPECT_GE(kept_loose, kept_strict);
  EXPECT_EQ(kept_strict, 3u);
}

// ---- EIR ----

struct EirFixture {
  EirFixture() : rng(15) {
    student = nn::Var(nn::Tensor::Randn({4, 6}, rng),
                      /*requires_grad=*/true);
    teacher = nn::Tensor::Randn({3, 6}, rng);
    candidates = nn::Var(nn::Tensor::Randn({5, 6}, rng));
    teacher_candidates = nn::Tensor::Randn({5, 6}, rng);
  }
  util::Rng rng;
  nn::Var student;
  nn::Tensor teacher;
  nn::Var candidates;
  nn::Tensor teacher_candidates;
};

TEST(EirTest, NoneKindReturnsUndefined) {
  EirFixture f;
  EirConfig config;
  config.kind = RetentionKind::kNone;
  EXPECT_FALSE(RetentionLoss(config, f.student, f.teacher, f.candidates,
                             f.teacher_candidates)
                   .defined());
}

TEST(EirTest, AllKindsProduceFiniteScalars) {
  EirFixture f;
  for (RetentionKind kind :
       {RetentionKind::kSigmoidKd, RetentionKind::kEuclidean,
        RetentionKind::kSoftmaxKd1, RetentionKind::kSoftmaxKd2,
        RetentionKind::kSoftmaxKd3}) {
    EirConfig config;
    config.kind = kind;
    nn::Var loss = RetentionLoss(config, f.student, f.teacher,
                                 f.candidates, f.teacher_candidates);
    ASSERT_TRUE(loss.defined()) << RetentionKindName(kind);
    EXPECT_TRUE(std::isfinite(loss.value().item()))
        << RetentionKindName(kind);
    EXPECT_GE(loss.value().item(), 0.0f) << RetentionKindName(kind);
  }
}

TEST(EirTest, SigmoidKdZeroWhenStudentMatchesTeacherScores) {
  // Student rows equal to the teacher's and identical candidate snapshots
  // minimise the loss; a perturbed student scores strictly higher.
  EirFixture f;
  EirConfig config;
  config.kind = RetentionKind::kSigmoidKd;
  nn::Tensor matched_rows =
      nn::ConcatRows({f.teacher, f.teacher.RowSlice(0, 1)});
  nn::Var matched(matched_rows, /*requires_grad=*/true);
  const float loss_matched =
      RetentionLoss(config, matched, f.teacher, f.candidates,
                    f.candidates.value())
          .value()
          .item();

  nn::Tensor perturbed_rows = matched_rows;
  perturbed_rows.AddScaledInPlace(
      nn::Tensor::Full(perturbed_rows.shape(), 0.6f), 1.0f);
  nn::Var perturbed(perturbed_rows, /*requires_grad=*/true);
  const float loss_perturbed =
      RetentionLoss(config, perturbed, f.teacher, f.candidates,
                    f.candidates.value())
          .value()
          .item();
  EXPECT_LT(loss_matched, loss_perturbed);
}

TEST(EirTest, DirPenalisesEuclideanDrift) {
  EirFixture f;
  EirConfig config;
  config.kind = RetentionKind::kEuclidean;
  nn::Tensor matched_rows =
      nn::ConcatRows({f.teacher, f.teacher.RowSlice(0, 1)});
  nn::Var matched(matched_rows, /*requires_grad=*/true);
  const float loss = RetentionLoss(config, matched, f.teacher,
                                   f.candidates, f.teacher_candidates)
                         .value()
                         .item();
  EXPECT_NEAR(loss, 0.0f, 1e-6f);
}

TEST(EirTest, GradientsFlowToStudentOnly) {
  EirFixture f;
  for (RetentionKind kind :
       {RetentionKind::kSigmoidKd, RetentionKind::kEuclidean,
        RetentionKind::kSoftmaxKd1}) {
    EirConfig config;
    config.kind = kind;
    f.student.ZeroGrad();
    nn::Var loss = RetentionLoss(config, f.student, f.teacher,
                                 f.candidates, f.teacher_candidates);
    loss.Backward();
    EXPECT_TRUE(f.student.has_grad()) << RetentionKindName(kind);
    // Rows beyond the teacher's K receive no retention gradient.
    const nn::Tensor& grad = f.student.grad();
    for (int64_t j = 0; j < grad.size(1); ++j) {
      EXPECT_EQ(grad.at(3, j), 0.0f) << RetentionKindName(kind);
    }
  }
}

TEST(EirTest, GradCheckSigmoidKd) {
  EirFixture f;
  EirConfig config;
  config.kind = RetentionKind::kSigmoidKd;
  config.tau = 1.3f;
  auto forward = [&] {
    return RetentionLoss(config, f.student, f.teacher, f.candidates,
                         f.teacher_candidates);
  };
  EXPECT_TRUE(nn::CheckGradients(forward, {f.student}).ok);
}

TEST(EirTest, RetentionKindNamesRoundTrip) {
  for (RetentionKind kind :
       {RetentionKind::kNone, RetentionKind::kSigmoidKd,
        RetentionKind::kEuclidean, RetentionKind::kSoftmaxKd1,
        RetentionKind::kSoftmaxKd2, RetentionKind::kSoftmaxKd3}) {
    EXPECT_EQ(RetentionKindFromName(RetentionKindName(kind)), kind);
  }
}

// AddRetentionLoss against the per-sample chain it stands for
// (RowSlice -> RetentionLoss -> Scale -> Add per covered sample), node by
// node: the loss value, each retention value and the gradients into the
// running loss, the candidate gather and every sample's interests must
// match bit for bit — for EIR's single fused node and for the ablation
// kinds, at several widths and with teachers narrower than the student.
TEST(EirTest, BatchRetentionMatchesPerSampleChainBitwise) {
  auto same_bits = [](const nn::Tensor& a, const nn::Tensor& b) {
    return a.shape() == b.shape() &&
           (a.numel() == 0 ||
            std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.numel()) * sizeof(float)) ==
                0);
  };
  constexpr int64_t kBlock = 11;
  constexpr int64_t kBatch = 5;
  // (block index, student rows, teacher rows) per covered sample.
  const std::vector<std::vector<int64_t>> covered = {
      {0, 4, 4}, {2, 8, 3}, {3, 1, 1}, {4, 6, 5}};
  util::Rng rng(21);
  for (int64_t d : {1, 7, 32}) {
    for (RetentionKind kind :
         {RetentionKind::kSigmoidKd, RetentionKind::kEuclidean,
          RetentionKind::kSoftmaxKd1, RetentionKind::kSoftmaxKd2,
          RetentionKind::kSoftmaxKd3}) {
      EirConfig config;
      config.kind = kind;
      config.tau = 0.7f;
      config.coefficient = 0.3f;
      const nn::Tensor base = nn::Tensor::Randn({1}, rng);
      const nn::Tensor cands =
          nn::Tensor::Randn({kBatch * kBlock, d}, rng);
      const nn::Tensor teacher_cands =
          nn::Tensor::Randn({kBatch * kBlock, d}, rng);
      std::vector<nn::Tensor> students;
      std::vector<nn::Tensor> teachers;
      for (const std::vector<int64_t>& c : covered) {
        students.push_back(nn::Tensor::Randn({c[1], d}, rng));
        teachers.push_back(nn::Tensor::Randn({c[2], d}, rng));
      }
      struct Result {
        nn::Tensor value;
        std::vector<float> retention;
        std::vector<nn::Tensor> grads;
      };
      auto run = [&](bool fused) {
        nn::Var loss(base, /*requires_grad=*/true);
        nn::Var candidates(cands, /*requires_grad=*/true);
        std::vector<nn::Var> interests;
        std::vector<RetainedSample> samples;
        for (size_t i = 0; i < covered.size(); ++i) {
          interests.emplace_back(students[i], /*requires_grad=*/true);
          samples.push_back({interests.back(), &teachers[i], covered[i][0]});
        }
        Result result;
        nn::Var total = loss;
        if (fused) {
          total = AddRetentionLoss(config, loss, samples, candidates,
                                   teacher_cands, kBlock, &result.retention);
        } else {
          for (const RetainedSample& sample : samples) {
            const int64_t row = sample.block_index * kBlock;
            nn::Var retention = RetentionLoss(
                config, sample.interests, *sample.teacher_interests,
                nn::ops::RowSlice(candidates, row, row + kBlock),
                teacher_cands.RowSlice(row, row + kBlock));
            result.retention.push_back(retention.value().item());
            total = nn::ops::Add(
                total, nn::ops::Scale(retention, config.coefficient));
          }
        }
        nn::Var mean = nn::ops::Scale(total, 1.0f / kBatch);
        mean.Backward();
        result.value = total.value();
        // DIR leaves the candidates without a gradient.
        auto grad_of = [](const nn::Var& var) {
          return var.has_grad() ? var.grad() : nn::Tensor();
        };
        result.grads.push_back(grad_of(loss));
        result.grads.push_back(grad_of(candidates));
        for (const nn::Var& var : interests) {
          result.grads.push_back(grad_of(var));
        }
        return result;
      };
      const Result fused = run(true);
      const Result reference = run(false);
      const std::string where =
          std::string(RetentionKindName(kind)) + " d " + std::to_string(d);
      EXPECT_TRUE(same_bits(fused.value, reference.value)) << where;
      ASSERT_EQ(fused.retention.size(), reference.retention.size()) << where;
      EXPECT_EQ(std::memcmp(fused.retention.data(), reference.retention.data(),
                            fused.retention.size() * sizeof(float)),
                0)
          << where;
      ASSERT_EQ(fused.grads.size(), reference.grads.size());
      for (size_t i = 0; i < fused.grads.size(); ++i) {
        EXPECT_TRUE(same_bits(fused.grads[i], reference.grads[i]))
            << where << ", gradient " << i;
      }
    }
  }
}

}  // namespace
}  // namespace imsr::core
