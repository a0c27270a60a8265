#include "core/nid.h"

#include <cmath>

#include "obs/obs.h"
#include "util/check.h"
#include "util/math_util.h"

namespace imsr::core {
namespace {

// Cosine logits between one embedding row and every interest row.
std::vector<double> CosineLogits(const nn::Tensor& item_embedding,
                                 const nn::Tensor& interests) {
  IMSR_CHECK_EQ(item_embedding.dim(), 1);
  IMSR_CHECK_EQ(interests.dim(), 2);
  IMSR_CHECK_EQ(item_embedding.numel(), interests.size(1));
  const int64_t k = interests.size(0);
  const int64_t d = interests.size(1);
  const float item_norm = nn::L2NormFlat(item_embedding);
  std::vector<double> logits(static_cast<size_t>(k), 0.0);
  for (int64_t row = 0; row < k; ++row) {
    double dot = 0.0;
    double row_ss = 0.0;
    for (int64_t j = 0; j < d; ++j) {
      const float h = interests.at(row, j);
      dot += static_cast<double>(item_embedding.at(j)) * h;
      row_ss += static_cast<double>(h) * h;
    }
    const double denom =
        static_cast<double>(item_norm) * std::sqrt(row_ss);
    logits[static_cast<size_t>(row)] = denom > 1e-12 ? dot / denom : 0.0;
  }
  return logits;
}

}  // namespace

std::vector<double> AssignmentDistribution(const nn::Tensor& item_embedding,
                                           const nn::Tensor& interests) {
  std::vector<double> probs = CosineLogits(item_embedding, interests);
  util::SoftmaxInPlace(probs);
  return probs;
}

double AssignmentKl(const nn::Tensor& item_embedding,
                    const nn::Tensor& interests) {
  const std::vector<double> logits =
      CosineLogits(item_embedding, interests);
  // Eq. 12: KL(q || p) = logsumexp(x) - mean(x) - ln K, with q uniform.
  const double lse = util::LogSumExp(logits);
  const double mean = util::Mean(logits);
  const double kl =
      lse - mean - std::log(static_cast<double>(logits.size()));
  // Numerically the expression can dip a hair below zero.
  return kl < 0.0 ? 0.0 : kl;
}

double ItemPuzzlement(const nn::Tensor& item_embedding,
                      const nn::Tensor& interests) {
  return -AssignmentKl(item_embedding, interests);
}

double MeanAssignmentKl(const nn::Tensor& item_embeddings,
                        const nn::Tensor& interests) {
  IMSR_CHECK_EQ(item_embeddings.dim(), 2);
  const int64_t n = item_embeddings.size(0);
  double total = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    total += AssignmentKl(item_embeddings.Row(i), interests);
  }
  return total / static_cast<double>(n);
}

bool DetectNewInterests(const nn::Tensor& item_embeddings,
                        const nn::Tensor& interests,
                        const NidConfig& config) {
  const double mean_kl = MeanAssignmentKl(item_embeddings, interests);
  // Per-user mean KL distribution (Fig. 2's signal): low KL == puzzled.
  IMSR_HISTOGRAM_RECORD_WITH("nid/puzzlement",
                             obs::Histogram::PuzzlementBounds(), mean_kl);
  IMSR_COUNTER_ADD("nid/detections", 1);
  return mean_kl < config.c1;
}

std::vector<int> CountAssignedItems(const nn::Tensor& item_embeddings,
                                    const nn::Tensor& interests) {
  IMSR_CHECK_EQ(item_embeddings.dim(), 2);
  IMSR_CHECK_EQ(interests.dim(), 2);
  IMSR_CHECK_EQ(item_embeddings.size(1), interests.size(1));
  const int64_t k = interests.size(0);
  const int64_t d = interests.size(1);
  IMSR_CHECK_GT(k, 0);
  // CosineLogits's per-row norms and logit expressions, with the row
  // norms taken once per call and item rows read in place.
  const float* h = interests.data();
  std::vector<double> row_norms(static_cast<size_t>(k));
  for (int64_t row = 0; row < k; ++row) {
    double row_ss = 0.0;
    for (int64_t j = 0; j < d; ++j) {
      row_ss += static_cast<double>(h[row * d + j]) * h[row * d + j];
    }
    row_norms[static_cast<size_t>(row)] = std::sqrt(row_ss);
  }
  std::vector<int> counts(static_cast<size_t>(k), 0);
  for (int64_t i = 0; i < item_embeddings.size(0); ++i) {
    const float* item = item_embeddings.data() + i * d;
    const float item_norm = nn::L2NormSpan(item, d);
    int64_t best = 0;
    double best_logit = 0.0;
    for (int64_t row = 0; row < k; ++row) {
      double dot = 0.0;
      for (int64_t j = 0; j < d; ++j) {
        dot += static_cast<double>(item[j]) * h[row * d + j];
      }
      const double denom = static_cast<double>(item_norm) *
                           row_norms[static_cast<size_t>(row)];
      const double logit = denom > 1e-12 ? dot / denom : 0.0;
      // First max wins ties, as in an argmax over CosineLogits.
      if (row == 0 || logit > best_logit) {
        best = row;
        best_logit = logit;
      }
    }
    ++counts[static_cast<size_t>(best)];
  }
  return counts;
}

}  // namespace imsr::core
