// Golden pins for the sort kernels' charged cost and traces.
//
// Host-side data-structure changes inside small_sort, merge_runs, the
// external priority queue and em_merge_sort's run formation must never move
// a charged I/O.  These tests pin,
// on a small grid of (M, B, omega, N) shapes and on uniform and
// duplicate-heavy inputs, the exact Q_r / Q_w, the ledger high-water mark
// and an FNV-1a hash of the full trace (op kind, array, block, written
// atoms, use-sets).  The constants were recorded with the std::set-based
// staged batch the kernels originally used, so any drift in an I/O, in the
// order of I/Os, in the Lemma 4.3 use-sets or in the output shows up here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "core/ext_array.hpp"
#include "core/faults.hpp"
#include "core/machine.hpp"
#include "core/trace.hpp"
#include "pq/ext_pq.hpp"
#include "sort/budget.hpp"
#include "sort/em_mergesort.hpp"
#include "sort/merge.hpp"
#include "sort/mergesort.hpp"
#include "sort/small_sort.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "trace_fnv.hpp"

namespace {

using namespace aem;

/// Orders by the high 56 bits only, so the low byte is a payload that makes
/// ties visible: stability and tie-breaking show up in the written atoms.
struct KeyLess {
  bool operator()(std::uint64_t a, std::uint64_t b) const {
    return (a >> 8) < (b >> 8);
  }
};

struct Shape {
  std::size_t M, B;
  std::uint64_t omega;
  std::size_t N;
};

// A: two merge levels (12 base runs, fanout 8).  B: high omega, one level.
// C: small B, three base runs.  D: omega > B, the Section 3.1 case with
// externally stored block pointers.
constexpr Shape kShapes[] = {
    {128, 8, 2, 1500},
    {256, 16, 16, 3000},
    {512, 8, 4, 2500},
    {128, 4, 8, 2000},
};

enum class Input { kUniform, kDuplicates };

std::vector<std::uint64_t> make_input(std::size_t n, Input kind,
                                      std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (kind == Input::kUniform) {
      v[i] = rng.next();
    } else {
      v[i] = ((rng.next() % 5) << 8) | (i & 0xff);
    }
  }
  return v;
}

struct Pin {
  std::uint64_t reads = 0, writes = 0, high_water = 0, trace = 0;
  bool operator==(const Pin&) const = default;
};

using test::trace_hash;

Config cfg(const Shape& s) {
  Config c;
  c.memory_elems = s.M;
  c.block_elems = s.B;
  c.write_cost = s.omega;
  return c;
}

/// What one case left behind: its pin, and under faults the text of a
/// thrown exception (empty if none) and how many read faults fired.
struct Outcome {
  Pin pin;
  std::string error;
  std::uint64_t read_faults = 0;
};

/// A traced machine with atom-tracked input and output arrays of `n_out`
/// elements; `body(in, out)` runs the algorithm under test.  With `faults`,
/// the fault layer is installed and a thrown exception is recorded rather
/// than propagated (the pin then covers the I/O up to the throw).
template <class Body>
Outcome measure(const Shape& s, const std::vector<std::uint64_t>& host,
                std::size_t n_out, const FaultConfig* faults, Body body) {
  Machine mach(cfg(s));
  if (faults != nullptr) mach.install_faults(*faults);
  auto atom = [](const std::uint64_t& v) { return v; };
  ExtArray<std::uint64_t> in(mach, host.size(), "in");
  in.unsafe_host_fill(host);
  in.set_atom_extractor(atom);
  ExtArray<std::uint64_t> out(mach, n_out, "out");
  out.set_atom_extractor(atom);
  mach.enable_trace();
  Outcome o;
  if (faults == nullptr) {
    body(in, out);
  } else {
    try {
      body(in, out);
    } catch (const std::exception& e) {
      o.error = e.what();
    }
    o.read_faults = mach.faults()->stats().read_faults;
  }
  const IoStats st = mach.stats();
  o.pin = Pin{st.reads, st.writes, mach.ledger().high_water(),
              trace_hash(*mach.trace())};
  return o;
}

/// Host-sorted runs at block-aligned offsets (unaligned lengths), as many
/// as the merge fanout allows up to 9; returns the staged source layout.
std::vector<std::uint64_t> make_runs(const Shape& s,
                                     const std::vector<std::uint64_t>& keys,
                                     std::vector<RunBounds>& bounds) {
  Machine probe(cfg(s));
  const std::size_t k = std::min<std::size_t>(
      SortBudget::from(probe).fanout, 9);
  std::vector<std::uint64_t> src;
  std::size_t taken = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t len =
        i + 1 == k ? keys.size() - taken
                   : std::min(keys.size() - taken,
                              keys.size() / k + (i % 3) * (s.B / 2 + 1));
    const std::size_t begin = util::round_up(src.size(), s.B);
    src.resize(begin, 0);
    src.insert(src.end(), keys.begin() + static_cast<std::ptrdiff_t>(taken),
               keys.begin() + static_cast<std::ptrdiff_t>(taken + len));
    std::stable_sort(src.begin() + static_cast<std::ptrdiff_t>(begin),
                     src.end(), KeyLess{});
    bounds.push_back(RunBounds{begin, begin + len});
    taken += len;
  }
  return src;
}

Outcome run_case(const std::string& algo, const Shape& s, Input kind,
                 const FaultConfig* faults = nullptr) {
  const auto keys = make_input(s.N, kind, 0xA11CE + s.N);
  const std::size_t n = keys.size();
  if (algo == "small_sort") {
    return measure(s, keys, n, faults, [&](auto& in, auto& out) {
      small_sort(in, 0, n, out, 0, KeyLess{});
    });
  }
  if (algo == "small_sort_combine") {
    return measure(s, keys, n, faults, [&](auto& in, auto& out) {
      small_sort(in, 0, n, out, 0, KeyLess{},
                 [](std::uint64_t& acc, const std::uint64_t& next) {
                   acc = (acc & ~std::uint64_t{0xff}) |
                         ((acc + next) & 0xff);
                 });
    });
  }
  if (algo == "merge_loser") {
    std::vector<RunBounds> bounds;
    const auto src = make_runs(s, keys, bounds);
    return measure(s, src, n, faults, [&](auto& in, auto& out) {
      merge_runs(in, std::span<const RunBounds>(bounds), out, 0, KeyLess{});
    });
  }
  if (algo == "aem_merge_sort") {
    return measure(s, keys, n, faults, [&](auto& in, auto& out) {
      aem_merge_sort(in, out, KeyLess{});
    });
  }
  if (algo == "em_merge_sort") {
    return measure(s, keys, n, faults, [&](auto& in, auto& out) {
      em_merge_sort(in, out, KeyLess{});
    });
  }
  if (algo == "em_merge_sort_radix") {
    return measure(s, keys, n, faults, [&](auto& in, auto& out) {
      em_merge_sort(in, out, std::less<std::uint64_t>{});
    });
  }
  const PqTuning tuning =
      algo == "heap_legacy" ? PqTuning::kLegacy : PqTuning::kBuffered;
  return measure(s, keys, n, faults, [&](auto& in, auto& out) {
    aem_heap_sort(in, out, KeyLess{}, tuning);
  });
}

struct Golden {
  const char* algo;
  std::size_t shape;
  Input input;
  Pin pin;
};

constexpr Input U = Input::kUniform;
constexpr Input D = Input::kDuplicates;

const Golden kGolden[] = {
    {"small_sort", 0, U, {4512, 188, 80, 0x5df4ae317b99ca4dull}},
    {"small_sort", 0, D, {4512, 188, 80, 0x6334f33bf35d341full}},
    {"small_sort", 1, U, {4512, 188, 160, 0x0363b4a66418c7f1ull}},
    {"small_sort", 1, D, {4512, 188, 160, 0x55b609a69d1c8a5bull}},
    {"small_sort", 2, U, {3130, 313, 272, 0xbaedcbd1d92b5e40ull}},
    {"small_sort", 2, D, {3130, 313, 272, 0xbf8558e07d2f9e92ull}},
    {"small_sort", 3, U, {16000, 500, 72, 0xdf2438150a4a53b1ull}},
    {"small_sort", 3, D, {16000, 500, 72, 0x6376c411eb54aabbull}},
    {"small_sort_combine", 0, U, {4512, 188, 80, 0x98d1e617a8b7090dull}},
    {"small_sort_combine", 0, D, {4513, 1, 80, 0xb844202b76c5fd9bull}},
    {"small_sort_combine", 1, U, {4512, 188, 160, 0x1b84c3f1b3ce13e5ull}},
    {"small_sort_combine", 1, D, {4513, 1, 160, 0x566db63be0f939efull}},
    {"small_sort_combine", 2, U, {3130, 313, 272, 0xe52aa36586514a80ull}},
    {"small_sort_combine", 2, D, {3131, 1, 272, 0x66fa0a34957bc28eull}},
    {"small_sort_combine", 3, U, {16000, 500, 72, 0xd1d756f97e0317e9ull}},
    {"small_sort_combine", 3, D, {16001, 2, 72, 0xdd9b1ad1faac7366ull}},
    {"merge_loser", 0, U, {1405, 380, 60, 0xfdebedfe7e1d46e4ull}},
    {"merge_loser", 0, D, {1430, 380, 60, 0x11093325189af9aeull}},
    {"merge_loser", 1, U, {1544, 380, 116, 0xceb11dc838c45ddaull}},
    {"merge_loser", 1, D, {1550, 380, 116, 0xacb7eda9625f11afull}},
    {"merge_loser", 2, U, {1065, 632, 168, 0x79ec898dcbe73dedull}},
    {"merge_loser", 2, D, {1134, 632, 168, 0x833fad35d140549full}},
    {"merge_loser", 3, U, {2630, 1007, 52, 0xb141f07ecb604d66ull}},
    {"merge_loser", 3, D, {2815, 1007, 52, 0x1635574c6d8d06b9ull}},
    {"aem_merge_sort", 0, U, {2241, 943, 80, 0x92ae3b24828446c8ull}},
    {"aem_merge_sort", 0, D, {2296, 943, 80, 0xbe94c8849bf42bafull}},
    {"aem_merge_sort", 1, U, {3185, 565, 160, 0xffda2c71b6f47436ull}},
    {"aem_merge_sort", 1, D, {3202, 565, 160, 0x1367c53c27849937ull}},
    {"aem_merge_sort", 2, U, {1919, 940, 272, 0x963be09395188dc4ull}},
    {"aem_merge_sort", 2, D, {1937, 940, 272, 0xe1e7cea6d4af250cull}},
    {"aem_merge_sort", 3, U, {5615, 1501, 72, 0x6ba97e86b48a7b18ull}},
    {"aem_merge_sort", 3, D, {5722, 1501, 72, 0xcd6795c7f1a1011dull}},
    {"em_merge_sort", 0, U, {564, 564, 88, 0x0bf3ae47384411a1ull}},
    {"em_merge_sort", 0, D, {564, 564, 88, 0xfe8a5246b696c5daull}},
    {"em_merge_sort", 1, U, {564, 564, 160, 0x3fb56f37e7145c99ull}},
    {"em_merge_sort", 1, D, {564, 564, 160, 0x0a9b3bc0723cf7baull}},
    {"em_merge_sort", 2, U, {626, 626, 272, 0xb3d467298816cdecull}},
    {"em_merge_sort", 2, D, {626, 626, 272, 0xbb00efe50ac93190ull}},
    {"em_merge_sort", 3, U, {1500, 1500, 100, 0x122c7569bacf1d2bull}},
    {"em_merge_sort", 3, D, {1500, 1500, 100, 0x1ddb5f0ee1d10723ull}},
    {"em_merge_sort_radix", 0, U, {564, 564, 88, 0x0bf3ae47384411a1ull}},
    {"em_merge_sort_radix", 0, D, {564, 564, 88, 0x892358f4483a574eull}},
    {"em_merge_sort_radix", 1, U, {564, 564, 160, 0x3fb56f37e7145c99ull}},
    {"em_merge_sort_radix", 1, D, {564, 564, 160, 0x175505ad399b917aull}},
    {"em_merge_sort_radix", 2, U, {626, 626, 272, 0xb3d467298816cdecull}},
    {"em_merge_sort_radix", 2, D, {626, 626, 272, 0x5d20d2b2cd7acc8cull}},
    {"em_merge_sort_radix", 3, U, {1500, 1500, 100, 0x122c7569bacf1d2bull}},
    {"em_merge_sort_radix", 3, D, {1500, 1500, 100, 0x1f44ac7b064bd71bull}},
    {"heap_legacy", 0, U, {4113, 1819, 85, 0x18cb869acedc0e8aull}},
    {"heap_legacy", 0, D, {3930, 1819, 85, 0xa1c8cae9fd1956f2ull}},
    {"heap_legacy", 1, U, {4140, 1819, 157, 0x21a2306b9aa72e8aull}},
    {"heap_legacy", 1, D, {4045, 1819, 157, 0x2967c487d1620b7dull}},
    {"heap_legacy", 2, U, {2693, 1397, 200, 0x4761d85ecd2f06f4ull}},
    {"heap_legacy", 2, D, {2671, 1397, 200, 0xa8c3f662cabcf18full}},
    {"heap_legacy", 3, U, {8508, 3240, 74, 0xca6f6b683de84cecull}},
    {"heap_legacy", 3, D, {8236, 3240, 74, 0x6a6ece73a81e6be0ull}},
    {"heap_buffered", 0, U, {4330, 1298, 76, 0xc43ef6b807ab666cull}},
    {"heap_buffered", 0, D, {4114, 1298, 76, 0xae88c29970e11136ull}},
    {"heap_buffered", 1, U, {9975, 762, 148, 0xf98e133a0705159aull}},
    {"heap_buffered", 1, D, {9137, 762, 148, 0x35da5eb304f13403ull}},
    {"heap_buffered", 2, U, {4136, 625, 153, 0x4ff5c53b2c86abc1ull}},
    {"heap_buffered", 2, D, {3954, 625, 153, 0x4d3fc86e15caf07aull}},
    {"heap_buffered", 3, U, {23243, 1784, 60, 0xf7f1318db419a614ull}},
    {"heap_buffered", 3, D, {21645, 1784, 60, 0x5a3f08ac0563c5a0ull}},
};

const char* const kAlgos[] = {
    "small_sort",    "small_sort_combine", "merge_loser",
    "aem_merge_sort", "em_merge_sort",     "em_merge_sort_radix",
    "heap_legacy",   "heap_buffered"};

/// The pin of (algo, shape, input) in `table`, or nullptr.
template <std::size_t K>
const Pin* find_pin(const Golden (&table)[K], const char* algo,
                    std::size_t shape, Input kind) {
  for (const Golden& g : table)
    if (std::string(g.algo) == algo && g.shape == shape && g.input == kind)
      return &g.pin;
  return nullptr;
}

/// Checks `got` against its row of `table`; a mismatch prints the row to
/// paste.
template <std::size_t K>
void expect_pin(const Golden (&table)[K], const char* algo, std::size_t shape,
                Input kind, const Pin& got) {
  const Pin* want = find_pin(table, algo, shape, kind);
  char line[160];
  std::snprintf(line, sizeof line,
                "{\"%s\", %zu, %c, {%" PRIu64 ", %" PRIu64 ", %" PRIu64
                ", 0x%016" PRIx64 "ull}},",
                algo, shape, kind == U ? 'U' : 'D', got.reads, got.writes,
                got.high_water, got.trace);
  EXPECT_TRUE(want != nullptr && *want == got) << line;
}

TEST(SortGoldenTest, ChargesAndTracesMatchPins) {
  for (const char* algo : kAlgos)
    for (std::size_t si = 0; si < std::size(kShapes); ++si)
      for (Input kind : {U, D})
        expect_pin(kGolden, algo, si, kind,
                   run_case(algo, kShapes[si], kind).pin);
}

// The merge kernels on a faulty device with the recovery layer at work:
// transient read faults, silent and torn writes.  Reads are checksum-verified
// and writes read back, so every delivered block holds the last successfully
// written bytes and the kernels compute what they compute fault-free; the
// pins cover the retries and rewrites the faults add, in trace order.  They
// were recorded while a faulty read still delivered a private copy of the
// block instead of a view of the stored one.
FaultConfig verified_faults() {
  FaultConfig fc;
  fc.seed = 7;
  fc.read_fault_rate = 0.002;
  fc.silent_write_rate = 0.001;
  fc.torn_write_rate = 0.001;
  return fc;
}

const Golden kVerifiedGolden[] = {
    {"merge_loser", 0, U, {1789, 381, 60, 0xbd771105d4a763d9ull}},
    {"merge_loser", 0, D, {1816, 383, 60, 0xe8c5b7b7d9616469ull}},
    {"merge_loser", 1, U, {1928, 382, 116, 0x2f9388dac97949f4ull}},
    {"merge_loser", 1, D, {1932, 381, 116, 0x242e8806faf02874ull}},
    {"merge_loser", 2, U, {1701, 634, 168, 0x38cb234de5ee2f17ull}},
    {"merge_loser", 2, D, {1770, 636, 168, 0x4262b7502a0525f4ull}},
    {"merge_loser", 3, U, {3645, 1010, 52, 0x7dc71b9fae67c0baull}},
    {"merge_loser", 3, D, {3829, 1009, 52, 0xb3b7b8cf05eae847ull}},
    {"aem_merge_sort", 0, U, {3189, 946, 80, 0x87384ff63228d96cull}},
    {"aem_merge_sort", 0, D, {3243, 944, 80, 0xe840270f8b0784cdull}},
    {"aem_merge_sort", 1, U, {3756, 568, 160, 0x5f7d2386797fcb6aull}},
    {"aem_merge_sort", 1, D, {3773, 568, 160, 0xe0c7f028d813ed87ull}},
    {"aem_merge_sort", 2, U, {2864, 941, 272, 0xa72acaea2fe80ecdull}},
    {"aem_merge_sort", 2, D, {2882, 942, 272, 0x36b4dd48b2187b83ull}},
    {"aem_merge_sort", 3, U, {7134, 1510, 72, 0xeb0da06a46156557ull}},
    {"aem_merge_sort", 3, D, {7238, 1505, 72, 0x3c25efa755c3ac5full}},
    {"em_merge_sort", 0, U, {1131, 565, 88, 0x41181ce27769d973ull}},
    {"em_merge_sort", 0, D, {1130, 564, 88, 0x49083f148caeb55dull}},
    {"em_merge_sort", 1, U, {1132, 566, 160, 0xec7a3031d2c8ba0aull}},
    {"em_merge_sort", 1, D, {1131, 565, 160, 0x0cd83d4dfc7f8f3cull}},
    {"em_merge_sort", 2, U, {1255, 627, 272, 0xca0237891146f480ull}},
    {"em_merge_sort", 2, D, {1254, 626, 272, 0x83bf5e9d56a57654ull}},
    {"em_merge_sort", 3, U, {3006, 1504, 100, 0x182ce00bfcefa5a9ull}},
    {"em_merge_sort", 3, D, {3008, 1503, 100, 0xe2e5dd02e245b41aull}},
    {"heap_legacy", 0, U, {5946, 1821, 85, 0x0a2c4b52fe7f70a0ull}},
    {"heap_legacy", 0, D, {5766, 1826, 85, 0xb3408cba88df1aa9ull}},
    {"heap_legacy", 1, U, {5977, 1828, 157, 0xddf601545405fc84ull}},
    {"heap_legacy", 1, D, {5879, 1822, 157, 0x64dcd1640d064ef9ull}},
    {"heap_legacy", 2, U, {4098, 1401, 200, 0x8318985d7718471full}},
    {"heap_legacy", 2, D, {4076, 1401, 200, 0xaf95ff4d4cf733dbull}},
    {"heap_legacy", 3, U, {11777, 3254, 74, 0x20ba8a35d954189bull}},
    {"heap_legacy", 3, D, {11502, 3250, 74, 0xe9d643e121c9e7aeull}},
    {"heap_buffered", 0, U, {5638, 1301, 76, 0x118ddf33c28a0ebeull}},
    {"heap_buffered", 0, D, {5419, 1302, 76, 0x6f316ba42b2a177aull}},
    {"heap_buffered", 1, U, {10760, 765, 148, 0x2a818b39e6bf4a61ull}},
    {"heap_buffered", 1, D, {9919, 765, 148, 0xdf6fba965b42b8fcull}},
    {"heap_buffered", 2, U, {4766, 626, 153, 0x370e5eab78b0f520ull}},
    {"heap_buffered", 2, D, {4585, 625, 153, 0xe0b6ce7c5d8621bdull}},
    {"heap_buffered", 3, U, {25079, 1790, 60, 0xa0e91fd9933e90adull}},
    {"heap_buffered", 3, D, {23477, 1790, 60, 0x72a2178aadd5329dull}},
};

TEST(SortGoldenTest, VerifiedFaultsMatchPins) {
  const FaultConfig faults = verified_faults();
  for (const char* algo : {"merge_loser", "aem_merge_sort", "em_merge_sort",
                           "heap_legacy", "heap_buffered"})
    for (std::size_t si = 0; si < std::size(kShapes); ++si)
      for (Input kind : {U, D}) {
        const Outcome got = run_case(algo, kShapes[si], kind, &faults);
        EXPECT_EQ(got.error, "") << algo << " shape " << si;
        EXPECT_GT(got.read_faults, 0u) << algo << " shape " << si;
        EXPECT_NE(*find_pin(kGolden, algo, si, kind), got.pin)
            << algo << " shape " << si << ": the faults cost nothing";
        expect_pin(kVerifiedGolden, algo, si, kind, got.pin);
      }
}

}  // namespace
