#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace robustore::coding {

/// Robust Soliton degree distribution (Luby 2002), as defined in §2.2.3:
///
///   R     = c * ln(k/delta) * sqrt(k)
///   rho(1) = 1/k,  rho(i) = 1/(i(i-1))              for i = 2..k
///   tau(i) = R/(i*k)                                 for i = 1..k/R - 1
///   tau(k/R) = R * ln(R/delta) / k
///   mu(i) = (rho(i) + tau(i)) / beta,   beta = sum(rho + tau)
///
/// Larger c shifts mass to low degrees (cheaper XORs, higher reception
/// overhead); smaller delta adds a high-degree spike (better coverage,
/// more XORs) — the trade-off explored in Figures 5-1..5-3.
class RobustSoliton {
 public:
  RobustSoliton(std::uint32_t k, double c, double delta);

  [[nodiscard]] std::uint32_t k() const { return k_; }
  [[nodiscard]] double c() const { return c_; }
  [[nodiscard]] double delta() const { return delta_; }

  /// Probability of degree d (1-based; 0 outside [1, k]).
  [[nodiscard]] double pmf(std::uint32_t d) const;

  /// Expected degree under the distribution.
  [[nodiscard]] double meanDegree() const;

  /// Draws a degree in [1, k] by inverse-CDF binary search.
  [[nodiscard]] std::uint32_t sample(Rng& rng) const;

 private:
  std::uint32_t k_;
  double c_;
  double delta_;
  std::vector<double> cdf_;  // cdf_[d-1] = P(degree <= d)
};

/// Ideal Soliton distribution: rho alone. Provided for the ablation bench
/// (it decodes poorly in practice, which motivates the robust variant).
class IdealSoliton {
 public:
  explicit IdealSoliton(std::uint32_t k);
  [[nodiscard]] std::uint32_t k() const { return k_; }
  [[nodiscard]] double pmf(std::uint32_t d) const;
  [[nodiscard]] std::uint32_t sample(Rng& rng) const;

 private:
  std::uint32_t k_;
};

}  // namespace robustore::coding
