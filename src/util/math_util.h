// Scalar math helpers shared by the model code and the analysis benches.
#ifndef IMSR_UTIL_MATH_UTIL_H_
#define IMSR_UTIL_MATH_UTIL_H_

#include <cstddef>
#include <vector>

namespace imsr::util {

// log(sum_i exp(x_i)) computed with the max-shift trick. Requires non-empty
// input.
double LogSumExp(const std::vector<double>& values);

// In-place softmax with the max-shift trick. Requires non-empty input.
void SoftmaxInPlace(std::vector<double>& values);

// Pearson correlation coefficient of two equally sized samples. Returns 0
// when either sample has zero variance. Requires size >= 2.
double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y);

// Arithmetic mean; requires non-empty input.
double Mean(const std::vector<double>& values);

// Euclidean norm.
double L2Norm(const std::vector<double>& values);

// Dot product; requires equal sizes.
double Dot(const std::vector<double>& x, const std::vector<double>& y);

// Cosine similarity; returns 0 if either vector is all-zero.
double CosineSimilarity(const std::vector<double>& x,
                        const std::vector<double>& y);

}  // namespace imsr::util

#endif  // IMSR_UTIL_MATH_UTIL_H_
