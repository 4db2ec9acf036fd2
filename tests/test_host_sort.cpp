// host_sort (src/sort/host_sort.hpp): the radix path and the record-sort
// fallback both yield the occurrence order std::sort gives under
// (less, then offset), for every unsigned width and for the key shapes that
// make the radix skip passes; an order's declared radix_key yields a stable
// sort's permutation of records, and every declared key induces its order.
// A distribution table covers the narrow and wide radix shapes (LSD digits,
// bucket pass with insertion-sorted, comparison-sorted and radix-finished
// buckets) with fresh
// and reused scratch.
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
#include "store/kv_store.hpp"
#include "util/rng.hpp"

namespace {

using aem::sort_detail::host_sort;
using aem::sort_detail::kRadixOrder;

static_assert(kRadixOrder<std::uint8_t, std::less<std::uint8_t>>);
static_assert(kRadixOrder<std::uint64_t, std::less<>>);
static_assert(!kRadixOrder<std::uint64_t, std::greater<std::uint64_t>>);
static_assert(!kRadixOrder<std::int64_t, std::less<std::int64_t>>);
static_assert(!kRadixOrder<bool, std::less<bool>>);
static_assert(kRadixOrder<aem::store::Slot, aem::store::SlotKeyLess>);

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
  aem::sort_detail::HostSortScratch<T> scratch;
  host_sort(std::span<const T>(vals), less, perm, scratch);
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

// --- declared radix keys ----------------------------------------------

using aem::store::Slot;
using aem::store::SlotKeyLess;

/// SlotKeyLess's operator() without its radix key: the record sort.
struct SlotKeyLessNoKey {
  bool operator()(const Slot& a, const Slot& b) const { return a.key < b.key; }
};
static_assert(!kRadixOrder<Slot, SlotKeyLessNoKey>);

/// A composite order whose key packs two 32-bit fields into one word.
struct Pair {
  std::uint32_t hi = 0, lo = 0;
};
struct PairLess {
  bool operator()(const Pair& a, const Pair& b) const {
    return a.hi < b.hi || (a.hi == b.hi && a.lo < b.lo);
  }
  static std::uint64_t radix_key(const Pair& p) {
    return (std::uint64_t{p.hi} << 32) | p.lo;
  }
};
static_assert(kRadixOrder<Pair, PairLess>);

/// A narrow declared key: the order reads one byte.
struct LowByteLess {
  bool operator()(std::uint64_t a, std::uint64_t b) const {
    return (a & 0xff) < (b & 0xff);
  }
  static std::uint8_t radix_key(std::uint64_t v) {
    return static_cast<std::uint8_t>(v);
  }
};
static_assert(kRadixOrder<std::uint64_t, LowByteLess>);

/// Offsets in the order std::stable_sort leaves them under `less`.
template <class T, class Less>
std::vector<std::uint32_t> stable_reference(const std::vector<T>& vals,
                                            Less less) {
  std::vector<std::uint32_t> perm(vals.size());
  std::iota(perm.begin(), perm.end(), std::uint32_t{0});
  std::stable_sort(perm.begin(), perm.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return less(vals[a], vals[b]);
                   });
  return perm;
}

TEST(HostSortTest, RadixKeyMatchesStableSortOnRecords) {
  struct Range {
    const char* name;
    std::uint64_t mask;  // keys are drawn below mask + 1
  };
  const Range ranges[] = {{"all equal", 0},
                          {"< 2^11", (1ull << 11) - 1},
                          {"< 2^20", (1ull << 20) - 1},
                          {"full 64-bit", ~0ull}};
  for (const Range& range : ranges)
    for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                std::size_t{1} << 15}) {
      // Heavy duplicates: every key comes from a pool of n/8 + 1 values, and
      // len/pos differ per record, so a tie out of input order shows.
      aem::util::Rng rng(n + range.mask);
      std::vector<std::uint64_t> pool(n / 8 + 1);
      for (std::uint64_t& k : pool) k = rng.next() & range.mask;
      std::vector<Slot> slots(n);
      for (std::size_t i = 0; i < n; ++i)
        slots[i] = Slot{pool[rng.below(pool.size())], rng.below(4), i};
      const std::string label =
          std::string(range.name) + " n=" + std::to_string(n);
      const auto want = stable_reference(slots, SlotKeyLess{});
      EXPECT_EQ(sorted_by(slots, SlotKeyLess{}), want) << label;
      EXPECT_EQ(sorted_by(slots, SlotKeyLessNoKey{}), want)
          << label << " (fallback)";
    }
  // Composite and narrow keys: the packed key orders both fields, and a
  // one-byte key leaves every higher bit to the tie order.
  aem::util::Rng rng(3);
  std::vector<Pair> pairs(5000);
  for (Pair& p : pairs)
    p = Pair{static_cast<std::uint32_t>(rng.below(7)),
             static_cast<std::uint32_t>(rng.next() >> (rng.below(2) * 62))};
  EXPECT_EQ(sorted_by(pairs, PairLess{}),
            stable_reference(pairs, PairLess{}));
  std::vector<std::uint64_t> words(5000);
  for (std::uint64_t& w : words) w = rng.next();
  EXPECT_EQ(sorted_by(words, LowByteLess{}),
            stable_reference(words, LowByteLess{}));
}

/// less(a, b) iff key(a) < key(b), in both directions.
template <class T, class Less>
void expect_key_induces_order(const T& a, const T& b, Less less) {
  EXPECT_EQ(less(a, b), Less::radix_key(a) < Less::radix_key(b));
  EXPECT_EQ(less(b, a), Less::radix_key(b) < Less::radix_key(a));
}

TEST(HostSortTest, DeclaredRadixKeysAgreeWithTheirOrder) {
  aem::util::Rng rng(11);
  // Key widths from one bit to 64, so a key truncated to fewer bits than
  // the order reads disagrees on some pair.
  auto draw = [&] { return rng.next() >> rng.below(64); };
  for (int t = 0; t < 20000; ++t) {
    const std::uint64_t k = draw();
    const Slot a{k, rng.next(), rng.next()};
    // Equal keys whose len/pos differ, then independent keys.
    expect_key_induces_order(a, Slot{k, rng.next(), rng.next()},
                             SlotKeyLess{});
    expect_key_induces_order(a, Slot{draw(), a.len, a.pos}, SlotKeyLess{});
    const Pair p{static_cast<std::uint32_t>(draw()),
                 static_cast<std::uint32_t>(draw())};
    expect_key_induces_order(p, Pair{p.hi, static_cast<std::uint32_t>(draw())},
                             PairLess{});
    expect_key_induces_order(p, Pair{static_cast<std::uint32_t>(draw()), p.lo},
                             PairLess{});
    const std::uint64_t w = draw();
    const std::uint64_t same_byte =
        (draw() & ~std::uint64_t{0xff}) | (w & 0xff);
    expect_key_induces_order(w, same_byte, LowByteLess{});
    expect_key_induces_order(w, draw(), LowByteLess{});
    if (HasFailure()) return;
  }
}

// --- the distribution table ---------------------------------------------

/// Wraps a key so that the order declares it: the radix path through a
/// copied key array.
struct Boxed {
  std::uint64_t key = 0;
  std::uint64_t tag = 0;  // ignored by the order, so ties show
};
struct BoxedLess {
  bool operator()(const Boxed& a, const Boxed& b) const {
    return a.key < b.key;
  }
  static std::uint64_t radix_key(const Boxed& b) { return b.key; }
};
static_assert(kRadixOrder<Boxed, BoxedLess>);

/// n keys of the named distribution.  "bits33" and "bits34" vary in exactly
/// that many bits (the narrow shape's limit and one past it) once n >= 2.
std::vector<std::uint64_t> distribution(const std::string& name,
                                        std::size_t n, aem::util::Rng& rng) {
  std::vector<std::uint64_t> v(n);
  for (std::uint64_t& x : v) x = rng.next();
  if (name == "mod 1000") {
    for (std::uint64_t& x : v) x %= 1000;
  } else if (name == "all equal") {
    std::fill(v.begin(), v.end(), 0x5a5a5a5a5a5a5a5aull);
  } else if (name == "sorted") {
    std::sort(v.begin(), v.end());
  } else if (name == "reversed") {
    std::sort(v.begin(), v.end(), std::greater<>{});
  } else if (name == "two clusters") {
    // Two values of the top bits, so each holds about half the keys.
    for (std::uint64_t& x : v)
      x = (x & 1 ? 0xF000000000000000ull : 0x1000000000000000ull) |
          (x >> 24);
  } else if (name == "third clustered") {
    // A third of the keys share their top bits: one large bucket beside
    // many small ones.
    for (std::size_t i = 0; i < n; i += 3)
      v[i] = 0x5000000000000000ull | (v[i] >> 24);
  } else if (name == "mid buckets" || name == "wide buckets") {
    // About 45% of the keys in groups that share their top 16 bits (the
    // bucket digit from n = 2^19 on, and a prefix of it below): groups of 33
    // to 64 keys, or of 129 to 384 (both sides of the 256-offset limit of a
    // comparison-sorted bucket).  A group's low 48 bits take about size/2
    // hashed values, so they vary in every digit and repeat.  The rest stay
    // uniform; then a shuffle.
    const bool mid = name == "mid buckets";
    const std::size_t grouped = n * 45 / 100;
    for (std::size_t i = 0; i < grouped;) {
      const std::uint64_t top = rng.next() & 0xFFFF000000000000ull;
      const std::size_t size = mid ? rng.range(33, 64) : rng.range(129, 384);
      for (std::size_t j = 0; j < size && i < grouped; ++j, ++i)
        v[i] = top | ((v[i] % (size / 2) + 1) * 0x9E3779B97F4A7C15ull >> 16);
    }
    rng.shuffle(v);
  } else if (name == "log-skewed") {
    for (std::uint64_t& x : v) x >>= rng.below(64);
  } else if (name == "bits33" || name == "bits34") {
    const unsigned bits = name == "bits33" ? 33 : 34;
    for (std::uint64_t& x : v) x >>= 64 - bits;
    if (n >= 2) {
      v[0] = 0;
      v[n - 1] = (std::uint64_t{1} << bits) - 1;
    }
  }
  return v;
}

TEST(HostSortTest, DistributionTableMatchesStableSort) {
  const std::string names[] = {"uniform",         "mod 1000",   "all equal",
                               "sorted",          "reversed",   "two clusters",
                               "third clustered", "mid buckets",
                               "wide buckets",    "log-skewed", "bits33",
                               "bits34"};
  // Both sides of the bucket-pass switch (more than 32 keys), bucket digits
  // of 3 to 16 bits, and one size past the 16-bit cap.
  const std::size_t sizes[] = {0,    1,    2,           31,
                               32,   33,   34,          1000,
                               4099, 1u << 16, (1u << 19) + 5};
  aem::sort_detail::HostSortScratch<std::uint64_t> words_scratch;
  aem::sort_detail::HostSortScratch<Boxed> boxed_scratch;
  aem::util::Rng rng(2024);
  for (const std::string& name : names)
    for (const std::size_t n : sizes) {
      const std::string label = name + " n=" + std::to_string(n);
      const std::vector<std::uint64_t> keys = distribution(name, n, rng);
      const auto want = stable_reference(keys, std::less<std::uint64_t>{});
      EXPECT_EQ(sorted_by(keys, std::less<std::uint64_t>{}), want) << label;
      std::vector<std::uint32_t> perm{7};
      host_sort(std::span<const std::uint64_t>(keys),
                std::less<std::uint64_t>{}, perm, words_scratch);
      EXPECT_EQ(perm, want) << label << " (reused scratch)";

      std::vector<Boxed> boxed(n);
      for (std::size_t i = 0; i < n; ++i) boxed[i] = Boxed{keys[i], i};
      EXPECT_EQ(sorted_by(boxed, BoxedLess{}), want) << label << " (declared)";
      host_sort(std::span<const Boxed>(boxed), BoxedLess{}, perm,
                boxed_scratch);
      EXPECT_EQ(perm, want) << label << " (declared, reused scratch)";
      if (HasFailure()) return;
    }
}

}  // namespace
