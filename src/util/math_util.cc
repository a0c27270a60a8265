#include "util/math_util.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace imsr::util {

double LogSumExp(const std::vector<double>& values) {
  IMSR_CHECK(!values.empty());
  const double max_value = *std::max_element(values.begin(), values.end());
  double total = 0.0;
  for (double v : values) total += std::exp(v - max_value);
  return max_value + std::log(total);
}

void SoftmaxInPlace(std::vector<double>& values) {
  IMSR_CHECK(!values.empty());
  const double max_value = *std::max_element(values.begin(), values.end());
  double total = 0.0;
  for (double& v : values) {
    v = std::exp(v - max_value);
    total += v;
  }
  for (double& v : values) v /= total;
}

double Mean(const std::vector<double>& values) {
  IMSR_CHECK(!values.empty());
  double total = 0.0;
  for (double v : values) total += v;
  return total / static_cast<double>(values.size());
}

double L2Norm(const std::vector<double>& values) {
  double ss = 0.0;
  for (double v : values) ss += v * v;
  return std::sqrt(ss);
}

double Dot(const std::vector<double>& x, const std::vector<double>& y) {
  IMSR_CHECK_EQ(x.size(), y.size());
  double total = 0.0;
  for (size_t i = 0; i < x.size(); ++i) total += x[i] * y[i];
  return total;
}

double CosineSimilarity(const std::vector<double>& x,
                        const std::vector<double>& y) {
  const double nx = L2Norm(x);
  const double ny = L2Norm(y);
  if (nx == 0.0 || ny == 0.0) return 0.0;
  return Dot(x, y) / (nx * ny);
}

double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y) {
  IMSR_CHECK_EQ(x.size(), y.size());
  IMSR_CHECK_GE(x.size(), 2u);
  const double mx = Mean(x);
  const double my = Mean(y);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

}  // namespace imsr::util
