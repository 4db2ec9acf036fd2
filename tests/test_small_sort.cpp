// small_sort under caches and read faults: a differential test against the
// offer loop the kernel ran before it computed its selection once on the
// host (small_sort_oracle.hpp), under a custom key order (host_sort's record
// sort) and under std::less (its radix).  The two must agree on every
// output byte, the return value, Q_r / Q_w, the ledger high-water mark and
// the full trace.  Verified read faults cost retries but leave the output
// exactly the fault-free one.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <typeinfo>
#include <vector>

#include "core/ext_array.hpp"
#include "core/machine.hpp"
#include "sort/host_sort.hpp"
#include "sort/small_sort.hpp"
#include "util/rng.hpp"
#include "small_sort_oracle.hpp"
#include "trace_fnv.hpp"

namespace {

using namespace aem;

/// Orders by the high 56 bits only, so the low byte makes ties visible.
struct KeyLess {
  bool operator()(std::uint64_t a, std::uint64_t b) const {
    return (a >> 8) < (b >> 8);
  }
};

/// Folds key-equal elements by summing their payload bytes.
struct AddPayload {
  void operator()(std::uint64_t& acc, const std::uint64_t& next) const {
    acc = (acc & ~std::uint64_t{0xff}) | ((acc + next) & 0xff);
  }
};

constexpr std::uint64_t kSentinel = 0xDEADBEEFDEADBEEFull;
constexpr std::size_t kSlack = 512;  // sentinel-filled tail past the output

std::vector<std::uint64_t> duplicate_keys(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint64_t> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = ((rng.next() % 5) << 8) | (i & 0xff);
  return v;
}

std::vector<std::uint64_t> uniform_keys(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = rng.next();
  return v;
}

Config cfg() {
  Config c;
  c.memory_elems = 128;
  c.block_elems = 8;
  c.write_cost = 4;
  return c;
}

// A fault seed whose schedule fires within the first 8 reads, so even the
// one-round [0,64) range sees a fault.
FaultConfig read_faults() {
  FaultConfig fc;
  fc.seed = 8;
  fc.read_fault_rate = 0.05;
  return fc;
}

enum class Variant { kPlain, kLru6, kFaults };

struct Range {
  std::size_t begin, end, n;
};

struct Outcome {
  std::vector<std::uint64_t> out;
  std::size_t written = 0;
  std::string error;  // "<type>: <what>" of a thrown exception, else empty
  std::uint64_t reads = 0, writes = 0, high_water = 0, trace = 0;
  std::uint64_t read_faults = 0;
};

/// Turns on tracing, runs `body` and records what it left in `out` and what
/// it cost, including a thrown exception.
template <class Body>
Outcome observe(Machine& mach, const ExtArray<std::uint64_t>& out,
                Body body) {
  mach.enable_trace();
  Outcome o;
  try {
    o.written = body();
    mach.flush_cache();
  } catch (const std::exception& e) {
    o.error = std::string(typeid(e).name()) + ": " + e.what();
  }
  o.out = out.unsafe_host_view();
  o.reads = mach.stats().reads;
  o.writes = mach.stats().writes;
  o.high_water = mach.ledger().high_water();
  o.trace = test::trace_hash(*mach.trace());
  if (mach.faults() != nullptr)
    o.read_faults = mach.faults()->stats().read_faults;
  return o;
}

std::uint64_t identity_atom(const std::uint64_t& x) { return x; }

/// Runs `kernel(in, out)` on a fresh machine of the given variant.
template <class Kernel>
Outcome run(Variant v, const std::vector<std::uint64_t>& keys, Range r,
            Kernel kernel) {
  Config c = cfg();
  if (v == Variant::kLru6) c.cache.capacity_blocks = 6;
  Machine mach(c);
  if (v == Variant::kFaults) mach.install_faults(read_faults());
  ExtArray<std::uint64_t> in(mach, keys.size(), "in");
  in.unsafe_host_fill(keys);
  in.set_atom_extractor(identity_atom);
  const std::size_t n_out = r.end - r.begin + kSlack;
  ExtArray<std::uint64_t> out(mach, n_out, "out");
  out.unsafe_host_fill(std::vector<std::uint64_t>(n_out, kSentinel));
  out.set_atom_extractor(identity_atom);
  return observe(mach, out, [&] { return kernel(in, out); });
}

void expect_same(const Outcome& got, const Outcome& want,
                 const std::string& label) {
  EXPECT_EQ(got.error, want.error) << label;
  EXPECT_EQ(got.written, want.written) << label;
  EXPECT_EQ(got.reads, want.reads) << label;
  EXPECT_EQ(got.writes, want.writes) << label;
  EXPECT_EQ(got.high_water, want.high_water) << label;
  EXPECT_EQ(got.trace, want.trace) << label;
  EXPECT_TRUE(got.out == want.out) << label << ": output bytes differ";
}

/// The differential grid under one key order: four ranges, uniform and
/// duplicate keys, with and without combining, on every variant.
template <class Less>
void diff_grid(Less less, const std::string& order) {
  const Range ranges[] = {{0, 1500, 1500}, {5, 1497, 1500}, {3, 700, 777},
                          {0, 64, 64}};
  for (const Range& r : ranges)
    for (bool dup : {false, true})
      for (bool combining : {false, true}) {
        const std::vector<std::uint64_t> keys =
            dup ? duplicate_keys(r.n, 1623 + r.n)
                : uniform_keys(r.n, 77 + r.n);
        auto shipped = [&](auto& in, auto& out) {
          return combining
                     ? small_sort(in, r.begin, r.end, out, 0, less,
                                  AddPayload{})
                     : small_sort(in, r.begin, r.end, out, 0, less);
        };
        auto oracle = [&](auto& in, auto& out) {
          return combining ? test::offer_loop_small_sort(
                                 in, r.begin, r.end, out, 0, less,
                                 AddPayload{})
                           : test::offer_loop_small_sort(
                                 in, r.begin, r.end, out, 0, less);
        };
        Outcome fault_free;
        for (Variant v : {Variant::kPlain, Variant::kLru6, Variant::kFaults}) {
          const std::string label =
              order + " variant " + std::to_string(static_cast<int>(v)) +
              " range [" + std::to_string(r.begin) + "," +
              std::to_string(r.end) + ") of " + std::to_string(r.n) +
              (dup ? " dup" : " uniform") + (combining ? " combine" : "");
          const Outcome got = run(v, keys, r, shipped);
          expect_same(got, run(v, keys, r, oracle), label);
          EXPECT_TRUE(got.error.empty()) << label << ": " << got.error;
          if (v == Variant::kPlain) fault_free = got;
          if (v == Variant::kFaults) {
            EXPECT_GT(got.read_faults, 0u) << label;
            EXPECT_TRUE(got.out == fault_free.out) << label;
          }
        }
      }
}

TEST(SmallSortDiffTest, MatchesTheOfferLoopOnEveryVariant) {
  diff_grid(KeyLess{}, "KeyLess");
}

// The same grid under std::less, which orders small_sort's occurrences by
// host_sort's radix path instead of its record sort.
TEST(SmallSortDiffTest, MatchesTheOfferLoopOnEveryVariantUnderStdLess) {
  static_assert(sort_detail::kRadixOrder<std::uint64_t,
                                         std::less<std::uint64_t>>);
  diff_grid(std::less<std::uint64_t>{}, "std::less");
}

}  // namespace
