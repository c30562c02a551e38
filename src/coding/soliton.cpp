#include "coding/soliton.hpp"

#include <algorithm>
#include <cmath>

#include "common/expects.hpp"

namespace robustore::coding {
namespace {

double rho(std::uint32_t k, std::uint32_t i) {
  if (i == 1) return 1.0 / k;
  return 1.0 / (static_cast<double>(i) * (i - 1.0));
}

}  // namespace

RobustSoliton::RobustSoliton(std::uint32_t k, double c, double delta)
    : k_(k), c_(c), delta_(delta) {
  ROBUSTORE_EXPECTS(k >= 1, "soliton needs k >= 1");
  ROBUSTORE_EXPECTS(c > 0 && delta > 0 && delta < 1,
                    "soliton needs c > 0 and delta in (0,1)");
  const double r = c * std::log(static_cast<double>(k) / delta) * std::sqrt(k);
  // Spike position k/R, clamped into the valid degree range [1, k].
  const auto spike = static_cast<std::uint32_t>(std::clamp(
      std::floor(static_cast<double>(k) / std::max(r, 1e-12)), 1.0,
      static_cast<double>(k)));

  std::vector<double> weight(k + 1, 0.0);
  for (std::uint32_t i = 1; i <= k; ++i) weight[i] = rho(k, i);
  for (std::uint32_t i = 1; i < spike; ++i) {
    weight[i] += r / (static_cast<double>(i) * k);
  }
  weight[spike] += r * std::log(r / delta) / k;

  double beta = 0.0;
  for (std::uint32_t i = 1; i <= k; ++i) beta += weight[i];
  ROBUSTORE_EXPECTS(beta > 0, "degenerate soliton normalisation");

  cdf_.resize(k);
  double acc = 0.0;
  for (std::uint32_t i = 1; i <= k; ++i) {
    acc += weight[i] / beta;
    cdf_[i - 1] = acc;
  }
  cdf_.back() = 1.0;  // absorb floating-point residue
}

double RobustSoliton::pmf(std::uint32_t d) const {
  if (d < 1 || d > k_) return 0.0;
  return d == 1 ? cdf_[0] : cdf_[d - 1] - cdf_[d - 2];
}

double RobustSoliton::meanDegree() const {
  double mean = 0.0;
  for (std::uint32_t d = 1; d <= k_; ++d) mean += d * pmf(d);
  return mean;
}

std::uint32_t RobustSoliton::sample(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::uint32_t>(it - cdf_.begin()) + 1;
}

IdealSoliton::IdealSoliton(std::uint32_t k) : k_(k) {
  ROBUSTORE_EXPECTS(k >= 1, "soliton needs k >= 1");
}

double IdealSoliton::pmf(std::uint32_t d) const {
  if (d < 1 || d > k_) return 0.0;
  return rho(k_, d);
}

std::uint32_t IdealSoliton::sample(Rng& rng) const {
  // Inverse CDF in closed form: P(degree <= d) = 1/k + (1 - 1/d) for d >= 2,
  // i.e. u in (1/k + 1 - 1/(d-1), 1/k + 1 - 1/d] maps to d.
  const double u = rng.uniform();
  if (u < 1.0 / k_) return 1;
  const double v = u - 1.0 / k_;  // in [0, 1 - 1/k)
  const auto d = static_cast<std::uint32_t>(std::ceil(1.0 / (1.0 - v)));
  return std::clamp<std::uint32_t>(d, 2, k_);
}

}  // namespace robustore::coding
