// host_sort (src/sort/host_sort.hpp): the radix path and the record-sort
// fallback both yield the occurrence order std::sort gives under
// (less, then offset), for every unsigned width and for the key shapes that
// make the radix skip passes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sort/host_sort.hpp"
#include "util/rng.hpp"

namespace {

using aem::sort_detail::host_sort;
using aem::sort_detail::kRadixOrder;

static_assert(kRadixOrder<std::uint8_t, std::less<std::uint8_t>>);
static_assert(kRadixOrder<std::uint64_t, std::less<>>);
static_assert(!kRadixOrder<std::uint64_t, std::greater<std::uint64_t>>);
static_assert(!kRadixOrder<std::int64_t, std::less<std::int64_t>>);
static_assert(!kRadixOrder<bool, std::less<bool>>);

/// The reference: offsets sorted by std::sort under (less, then offset).
template <class T, class Less>
std::vector<std::uint32_t> reference(const std::vector<T>& vals, Less less) {
  std::vector<std::uint32_t> perm(vals.size());
  std::iota(perm.begin(), perm.end(), std::uint32_t{0});
  auto occ_less = [&](std::uint32_t a, std::uint32_t b) {
    return less(vals[a], vals[b]) || (!less(vals[b], vals[a]) && a < b);
  };
  std::sort(perm.begin(), perm.end(), occ_less);
  return perm;
}

template <class T, class Less>
std::vector<std::uint32_t> sorted_by(const std::vector<T>& vals, Less less) {
  std::vector<std::uint32_t> perm{7, 7, 7};  // stale contents are replaced
  host_sort(std::span<const T>(vals), less, perm);
  return perm;
}

/// A key order host_sort cannot recognise: plain `<`, so the fallback must
/// give the radix's permutation exactly.
struct PlainLess {
  template <class T>
  bool operator()(T a, T b) const {
    return a < b;
  }
};

/// Descending by the high nibble only, so ties are frequent.
struct HighNibbleDesc {
  template <class T>
  bool operator()(T a, T b) const {
    return (a >> 4) > (b >> 4);
  }
};

/// Key shapes: empty, one value, all equal, differing only in the top or
/// only in the bottom 11-bit digit, few distinct values, and uniform.
template <class T>
std::vector<std::pair<std::string, std::vector<T>>> shapes() {
  constexpr unsigned kBits = std::numeric_limits<T>::digits;
  constexpr unsigned kTop = (kBits - 1) / 11 * 11;  // the top digit's shift
  aem::util::Rng rng(kBits);
  auto draw = [&](std::size_t n, auto f) {
    std::vector<T> v(n);
    for (T& x : v) x = static_cast<T>(f(rng.next()));
    return v;
  };
  const T base = static_cast<T>(0x5a5a5a5a5a5a5a5aull);
  return {
      {"empty", {}},
      {"one", {static_cast<T>(42)}},
      {"all equal", std::vector<T>(3000, base)},
      {"top digit only",
       draw(3000, [&](std::uint64_t r) {
         const std::uint64_t top = (r % 7) << kTop;
         return (base & ~(std::uint64_t{0x7ff} << kTop)) | top;
       })},
      {"bottom digit only",
       draw(3000, [&](std::uint64_t r) {
         return (std::uint64_t{base} & ~std::uint64_t{0x7ff}) | (r & 0x7ff);
       })},
      {"few distinct", draw(3000, [](std::uint64_t r) { return r % 5; })},
      {"uniform", draw(5000, [](std::uint64_t r) { return r; })},
  };
}

template <class T>
void check_width(const std::string& type) {
  for (const auto& [name, vals] : shapes<T>()) {
    const std::string label = type + " " + name;
    const auto want = reference(vals, std::less<T>{});
    EXPECT_EQ(sorted_by(vals, std::less<T>{}), want) << label;
    EXPECT_EQ(sorted_by(vals, std::less<>{}), want) << label;
    EXPECT_EQ(sorted_by(vals, PlainLess{}), want) << label << " (fallback)";
    EXPECT_EQ(sorted_by(vals, std::greater<T>{}),
              reference(vals, std::greater<T>{}))
        << label << " (greater)";
    EXPECT_EQ(sorted_by(vals, HighNibbleDesc{}),
              reference(vals, HighNibbleDesc{}))
        << label << " (custom)";
  }
}

TEST(HostSortTest, RadixMatchesStdSortOnEveryWidthAndShape) {
  check_width<std::uint8_t>("uint8_t");
  check_width<std::uint16_t>("uint16_t");
  check_width<std::uint32_t>("uint32_t");
  check_width<std::uint64_t>("uint64_t");
}

TEST(HostSortTest, EqualKeysKeepOffsetOrderOnBothPaths) {
  // Two distinct keys interleaved: each key's offsets must stay ascending.
  std::vector<std::uint64_t> vals(4096);
  for (std::size_t i = 0; i < vals.size(); ++i) vals[i] = (i % 3 == 0) ? 9 : 2;
  for (const auto& perm :
       {sorted_by(vals, std::less<std::uint64_t>{}),
        sorted_by(vals, PlainLess{})}) {
    ASSERT_EQ(perm.size(), vals.size());
    for (std::size_t i = 1; i < perm.size(); ++i) {
      ASSERT_LE(vals[perm[i - 1]], vals[perm[i]]) << i;
      if (vals[perm[i - 1]] == vals[perm[i]]) {
        ASSERT_LT(perm[i - 1], perm[i]) << i;
      }
    }
  }
}

}  // namespace
