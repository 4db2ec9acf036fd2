#include "util/rng.hpp"

#include <numeric>

namespace aem::util {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t bound) {
  // Lemire's multiply-shift rejection method: unbiased for any bound.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  std::uint64_t l = static_cast<std::uint64_t>(m);
  if (l < bound) {
    std::uint64_t threshold = -bound % bound;
    while (l < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::uint64_t Rng::range(std::uint64_t lo, std::uint64_t hi) {
  return lo + below(hi - lo + 1);
}

double Rng::uniform01() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::vector<std::uint64_t> random_permutation(std::uint64_t n, Rng& rng) {
  std::vector<std::uint64_t> p(n);
  std::iota(p.begin(), p.end(), std::uint64_t{0});
  rng.shuffle(p);
  return p;
}

std::vector<std::uint64_t> random_keys(std::uint64_t n, Rng& rng) {
  std::vector<std::uint64_t> k(n);
  for (auto& x : k) x = rng.next();
  return k;
}

std::vector<std::uint64_t> distinct_keys(std::uint64_t n, Rng& rng,
                                         std::uint64_t stride) {
  std::vector<std::uint64_t> k(n);
  for (std::uint64_t i = 0; i < n; ++i) k[i] = i * stride;
  rng.shuffle(k);
  return k;
}

}  // namespace aem::util
