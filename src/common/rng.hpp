#pragma once

#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

namespace robustore {

/// xoshiro256** pseudo-random generator (Blackman & Vigna).
///
/// Chosen over std::mt19937 for speed and for a stable, implementation-
/// independent stream: experiment results must be reproducible bit-for-bit
/// across compilers. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds via SplitMix64 so that nearby seeds yield uncorrelated streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t x = seed;
    for (auto& word : state_) word = splitmix64(x);
  }

  /// Derives an independent child stream; used to give each simulated
  /// component (disk, workload generator, coder) its own generator.
  [[nodiscard]] Rng fork(std::uint64_t stream_id) {
    return Rng(next() ^ (0x94d049bb133111ebULL * (stream_id + 1)));
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() { return next(); }

  /// Uniform in [0, 1).
  [[nodiscard]] double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). Uses Lemire's bounded technique.
  [[nodiscard]] std::uint64_t below(std::uint64_t n);

  /// Exponentially distributed with the given mean (inter-arrival times).
  [[nodiscard]] double exponential(double mean);

  /// True with probability p.
  [[nodiscard]] bool bernoulli(double p) { return uniform() < p; }

  /// Random permutation of [0, n) (Fisher–Yates).
  [[nodiscard]] std::vector<std::uint32_t> permutation(std::uint32_t n);

  /// In-place Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[below(i)]);
    }
  }

 private:
  result_type next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  static std::uint64_t splitmix64(std::uint64_t& x) {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::uint64_t state_[4] = {};
};

/// Stream `index` of the family seeded by `seed` — trial i of an
/// experiment, client i of a campaign. Pure in (seed, index), so a job can
/// build its own stream without replaying the ones before it. Every
/// indexed stream in the simulator is derived here (DESIGN.md §"Seeds").
[[nodiscard]] inline Rng streamRng(std::uint64_t seed, std::uint64_t index) {
  return Rng(seed * 0x9e3779b97f4a7c15ULL + index + 1);
}

}  // namespace robustore
