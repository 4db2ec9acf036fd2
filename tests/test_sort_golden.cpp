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
/// thrown exception (empty if none) and how many reads were corrupted.
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
    {"em_merge_sort", 0, U, {564, 564, 88, 0xbcce2b5dfc37878dull}},
    {"em_merge_sort", 0, D, {564, 564, 88, 0x84295c6191b9d931ull}},
    {"em_merge_sort", 1, U, {564, 564, 160, 0x36602e63fdfdb3c1ull}},
    {"em_merge_sort", 1, D, {564, 564, 160, 0x9223522cb44cc775ull}},
    {"em_merge_sort", 2, U, {626, 626, 272, 0x2660651eec7732caull}},
    {"em_merge_sort", 2, D, {626, 626, 272, 0xe7d16839d18a873aull}},
    {"em_merge_sort", 3, U, {1500, 1500, 100, 0x58c22a7e1a82e951ull}},
    {"em_merge_sort", 3, D, {1500, 1500, 100, 0xeba50971df3f2c81ull}},
    {"em_merge_sort_radix", 0, U, {564, 564, 88, 0xbcce2b5dfc37878dull}},
    {"em_merge_sort_radix", 0, D, {564, 564, 88, 0x7b2b73be3173a00dull}},
    {"em_merge_sort_radix", 1, U, {564, 564, 160, 0x36602e63fdfdb3c1ull}},
    {"em_merge_sort_radix", 1, D, {564, 564, 160, 0x21346da93746a39dull}},
    {"em_merge_sort_radix", 2, U, {626, 626, 272, 0x2660651eec7732caull}},
    {"em_merge_sort_radix", 2, D, {626, 626, 272, 0x6a34bd74c8162006ull}},
    {"em_merge_sort_radix", 3, U, {1500, 1500, 100, 0x58c22a7e1a82e951ull}},
    {"em_merge_sort_radix", 3, D, {1500, 1500, 100, 0x95c253d56fe14151ull}},
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

TEST(SortGoldenTest, ChargesAndTracesMatchPins) {
  for (const char* algo : kAlgos)
    for (std::size_t si = 0; si < std::size(kShapes); ++si)
      for (Input kind : {U, D}) {
        const Pin got = run_case(algo, kShapes[si], kind).pin;
        const Golden* want = nullptr;
        for (const Golden& g : kGolden)
          if (std::string(g.algo) == algo && g.shape == si && g.input == kind)
            want = &g;
        char line[160];
        std::snprintf(line, sizeof line,
                      "{\"%s\", %zu, %c, {%" PRIu64 ", %" PRIu64 ", %" PRIu64
                      ", 0x%016" PRIx64 "ull}},",
                      algo, si, kind == U ? 'U' : 'D', got.reads, got.writes,
                      got.high_water, got.trace);
        EXPECT_TRUE(want != nullptr && want->pin == got) << line;
      }
}

// The same kernels under read faults that nothing detects: no read
// checksums and no write verification, so a corrupted delivery reaches the
// kernel as data.  Runs then read back unsorted, and a block re-read later
// in a round can deliver other bytes than its first read.  This is the
// regime where a staged batch that leans on sorted runs could keep a
// different set than "the cap smallest offered", so the pins (recorded with
// the flat max-heap staged batch) cover it.  A case that throws pins the
// exception text with the I/O it made before the throw.
FaultConfig unchecked_read_faults() {
  FaultConfig fc;
  fc.seed = 7;
  fc.read_fault_rate = 0.002;
  fc.checksum_reads = false;
  fc.verify_writes = false;
  return fc;
}

struct FaultGolden {
  const char* algo;
  std::size_t shape;
  Input input;
  Pin pin;
  const char* error;
};

const FaultGolden kFaultGolden[] = {
    {"merge_loser", 0, U, {1169, 340, 60, 0x3255018acced3221ull},
     "merge: no progress (pointer invariant broken)"},
    {"merge_loser", 0, D, {1430, 380, 60, 0x11093325189af9aeull}, ""},
    {"merge_loser", 1, U, {1544, 380, 116, 0xceb11dc838c45ddaull}, ""},
    {"merge_loser", 1, D, {1549, 380, 116, 0xba1246b4976a3428ull}, ""},
    {"merge_loser", 2, U, {1065, 632, 168, 0x79ec898dcbe73dedull}, ""},
    {"merge_loser", 2, D, {1134, 632, 168, 0x833fad35d140549full}, ""},
    {"merge_loser", 3, U, {2630, 1007, 52, 0xb141f07ecb604d66ull}, ""},
    {"merge_loser", 3, D, {2816, 1006, 52, 0x1f943ccd2e787feeull},
     "merge: no progress (pointer invariant broken)"},
    {"aem_merge_sort", 0, U, {2241, 943, 80, 0x0058e908f6e98220ull}, ""},
    {"aem_merge_sort", 0, D, {240, 111, 80, 0xb7093bae10aaaa5full},
     "small_sort: no progress (corrupt watermark)"},
    {"aem_merge_sort", 1, U, {3185, 565, 160, 0xffda2c71b6f47436ull}, ""},
    {"aem_merge_sort", 1, D, {3202, 565, 160, 0x1367c53c27849937ull}, ""},
    {"aem_merge_sort", 2, U, {1919, 940, 272, 0x963be09395188dc4ull}, ""},
    {"aem_merge_sort", 2, D, {1935, 940, 272, 0xae1da6c914db96dfull}, ""},
    {"aem_merge_sort", 3, U, {5615, 1501, 72, 0x6ba97e86b48a7b18ull}, ""},
    {"aem_merge_sort", 3, D, {5276, 1293, 72, 0x16c46b4d066ffdb6ull},
     "merge: no progress (pointer invariant broken)"},
    {"heap_legacy", 0, U, {4112, 1819, 85, 0x1096e9f2e17e30d5ull}, ""},
    {"heap_legacy", 0, D, {3930, 1819, 85, 0xa1c8cae9fd1956f2ull}, ""},
    {"heap_legacy", 1, U, {4140, 1819, 157, 0xd4ae67f68b36e636ull}, ""},
    {"heap_legacy", 1, D, {4072, 1819, 157, 0x927757eec4cd536dull}, ""},
    {"heap_legacy", 2, U, {2693, 1397, 200, 0xe291f474a2ac2d48ull}, ""},
    {"heap_legacy", 2, D, {813, 512, 199, 0x99ffafa68f7443bdull},
     "merge: no progress (pointer invariant broken)"},
    {"heap_legacy", 3, U, {2943, 1766, 74, 0xfd96a5c525ef46a7ull},
     "merge: no progress (pointer invariant broken)"},
    {"heap_legacy", 3, D, {3176, 1809, 74, 0xe68ca51eb2a983f0ull},
     "merge: no progress (pointer invariant broken)"},
    {"heap_buffered", 0, U, {2320, 968, 76, 0x519c78c85cf545ddull},
     "merge: no progress (pointer invariant broken)"},
    {"heap_buffered", 0, D, {4114, 1298, 76, 0x1f82949ec2060e55ull}, ""},
    {"heap_buffered", 1, U, {9974, 762, 148, 0x3f92e9f63126bbc9ull}, ""},
    {"heap_buffered", 1, D, {9141, 762, 148, 0x4feb12400f1a1b62ull}, ""},
    {"heap_buffered", 2, U, {4136, 625, 153, 0xe9d7540fd12a1eb3ull}, ""},
    {"heap_buffered", 2, D, {3955, 625, 153, 0xd73a57c0cb9fd0beull}, ""},
    {"heap_buffered", 3, U, {22991, 1780, 60, 0x8254d2d59e1b88ecull},
     "ExtPriorityQueue: lost elements"},
    {"heap_buffered", 3, D, {21679, 1783, 60, 0x4f54b5afa0cd3c52ull},
     "ExtPriorityQueue: lost elements"},
};

TEST(SortGoldenTest, UncheckedReadFaultsMatchPins) {
  const FaultConfig faults = unchecked_read_faults();
  std::size_t completed = 0, changed = 0;
  for (const char* algo :
       {"merge_loser", "aem_merge_sort", "heap_legacy", "heap_buffered"})
    for (std::size_t si = 0; si < std::size(kShapes); ++si)
      for (Input kind : {U, D}) {
        const Outcome got = run_case(algo, kShapes[si], kind, &faults);
        EXPECT_GT(got.read_faults, 0u) << algo << " shape " << si;
        if (got.error.empty()) ++completed;
        for (const Golden& g : kGolden)
          if (std::string(g.algo) == algo && g.shape == si && g.input == kind)
            changed += g.pin != got.pin;
        const FaultGolden* want = nullptr;
        for (const FaultGolden& g : kFaultGolden)
          if (std::string(g.algo) == algo && g.shape == si && g.input == kind)
            want = &g;
        char line[320];
        std::snprintf(line, sizeof line,
                      "{\"%s\", %zu, %c, {%" PRIu64 ", %" PRIu64 ", %" PRIu64
                      ", 0x%016" PRIx64 "ull}, \"%s\"},",
                      algo, si, kind == U ? 'U' : 'D', got.pin.reads,
                      got.pin.writes, got.pin.high_water, got.pin.trace,
                      got.error.c_str());
        EXPECT_TRUE(want != nullptr && want->pin == got.pin &&
                    got.error == want->error)
            << line;
      }
  // Most cases must run to completion, or the pins cover little merging,
  // and the faults must change what the kernels do.
  EXPECT_GT(completed, 16u);
  EXPECT_GT(changed, 16u);
}

}  // namespace
