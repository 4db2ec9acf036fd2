// Deterministic pseudo-random generation for workloads and tests.
//
// The simulator's experiments must be exactly reproducible across runs and
// platforms, so we ship our own small generator (xoshiro256** seeded via
// SplitMix64) rather than relying on implementation-defined std::
// distributions.  All distribution helpers here are fully specified.
#pragma once

#include <cstdint>
#include <vector>

namespace aem::util {

/// xoshiro256** 1.0 by Blackman & Vigna (public domain), seeded with
/// SplitMix64 so that any 64-bit seed yields a well-mixed state.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Uniform 64-bit value.
  std::uint64_t next();

  /// Uniform value in [0, bound) using Lemire's unbiased reduction.
  /// bound must be > 0.
  std::uint64_t below(std::uint64_t bound);

  /// Uniform value in [lo, hi] inclusive.  Requires lo <= hi.
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi);

  /// Uniform double in [0, 1).
  double uniform01();

  /// Fisher-Yates shuffle of `v`.
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::uint64_t i = v.size(); i > 1; --i) {
      std::uint64_t j = below(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t s_[4];
};

/// One SplitMix64 step: advances `state` and returns its mixed output.  It
/// seeds Rng and derives harness::derive_seed's per-point seeds.
std::uint64_t splitmix64(std::uint64_t& state);

/// A uniformly random permutation of {0, ..., n-1}.
std::vector<std::uint64_t> random_permutation(std::uint64_t n, Rng& rng);

/// n uniform 64-bit keys (duplicates possible).
std::vector<std::uint64_t> random_keys(std::uint64_t n, Rng& rng);

/// n distinct keys: a shuffled range [0, n) scaled by `stride`.
std::vector<std::uint64_t> distinct_keys(std::uint64_t n, Rng& rng,
                                         std::uint64_t stride = 1);

}  // namespace aem::util
