// Unit tests for io/: Scanner, Writer, BlockCursor, ExtPointerArray —
// both functional correctness and exact I/O-cost accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "core/ext_array.hpp"
#include "core/machine.hpp"
#include "io/cursor.hpp"
#include "io/ext_pointer_array.hpp"
#include "io/scanner.hpp"
#include "io/writer.hpp"
#include "trace_fnv.hpp"
#include "util/rng.hpp"

namespace {

using namespace aem;

Config cfg(std::size_t M = 64, std::size_t B = 8, std::uint64_t w = 4) {
  Config c;
  c.memory_elems = M;
  c.block_elems = B;
  c.write_cost = w;
  return c;
}

ExtArray<int> make_iota(Machine& mach, std::size_t n, int start = 0) {
  ExtArray<int> arr(mach, n, "iota");
  std::vector<int> host(n);
  std::iota(host.begin(), host.end(), start);
  arr.unsafe_host_fill(host);
  return arr;
}

TEST(ScannerTest, ReadsAllElementsInOrder) {
  Machine mach(cfg());
  auto arr = make_iota(mach, 30);
  Scanner<int> sc(arr);
  for (int i = 0; i < 30; ++i) {
    ASSERT_FALSE(sc.done());
    EXPECT_EQ(sc.peek(), i);
    EXPECT_EQ(sc.next(), i);
  }
  EXPECT_TRUE(sc.done());
}

TEST(ScannerTest, ChargesOneReadPerBlock) {
  Machine mach(cfg());  // B = 8
  auto arr = make_iota(mach, 30);
  mach.reset_stats();
  Scanner<int> sc(arr);
  while (!sc.done()) sc.next();
  EXPECT_EQ(mach.stats().reads, 4u);  // ceil(30/8)
  EXPECT_EQ(mach.stats().writes, 0u);
}

TEST(ScannerTest, RangeRestriction) {
  Machine mach(cfg());
  auto arr = make_iota(mach, 64);
  mach.reset_stats();
  Scanner<int> sc(arr, 10, 20);
  std::vector<int> got;
  while (!sc.done()) got.push_back(sc.next());
  ASSERT_EQ(got.size(), 10u);
  EXPECT_EQ(got.front(), 10);
  EXPECT_EQ(got.back(), 19);
  // Elements 10..19 span blocks 1 and 2 only.
  EXPECT_EQ(mach.stats().reads, 2u);
}

TEST(ScannerTest, SkipAvoidsReads) {
  Machine mach(cfg());
  auto arr = make_iota(mach, 64);
  mach.reset_stats();
  Scanner<int> sc(arr);
  EXPECT_EQ(sc.next(), 0);  // reads block 0
  sc.skip(30);              // lands at element 31 in block 3
  EXPECT_EQ(sc.next(), 31);
  // Blocks 1 and 2 skipped entirely: only 2 reads total.
  EXPECT_EQ(mach.stats().reads, 2u);
}

TEST(ScannerTest, MemoryFootprintIsOneBlock) {
  Machine mach(cfg());
  auto arr = make_iota(mach, 64);
  {
    Scanner<int> sc(arr);
    EXPECT_EQ(mach.ledger().used(), 8u);
  }
  EXPECT_EQ(mach.ledger().used(), 0u);
}

TEST(WriterTest, WritesAllElements) {
  Machine mach(cfg());
  ExtArray<int> arr(mach, 30, "out");
  Writer<int> w(arr);
  for (int i = 0; i < 30; ++i) w.push(i * 2);
  w.finish();
  const auto& host = arr.unsafe_host_view();
  for (int i = 0; i < 30; ++i) EXPECT_EQ(host[i], i * 2);
}

TEST(WriterTest, ChargesOneWritePerBlock) {
  Machine mach(cfg());  // B = 8
  ExtArray<int> arr(mach, 30, "out");
  mach.reset_stats();
  Writer<int> w(arr);
  for (int i = 0; i < 30; ++i) w.push(i);
  w.finish();
  EXPECT_EQ(mach.stats().writes, 4u);  // ceil(30/8)
  EXPECT_EQ(mach.stats().reads, 0u);   // aligned range: no RMW
}

TEST(WriterTest, UnalignedRangeDoesReadModifyWrite) {
  Machine mach(cfg());
  auto arr = make_iota(mach, 24);  // blocks: [0..8), [8..16), [16..24)
  mach.reset_stats();
  Writer<int> w(arr, 10, 14);  // strictly inside block 1
  for (int i = 0; i < 4; ++i) w.push(-1);
  w.finish();
  EXPECT_EQ(mach.stats().writes, 1u);
  EXPECT_EQ(mach.stats().reads, 1u);  // had to preserve 8,9 and 14,15
  const auto& host = arr.unsafe_host_view();
  EXPECT_EQ(host[9], 9);    // preserved
  EXPECT_EQ(host[10], -1);  // overwritten
  EXPECT_EQ(host[13], -1);
  EXPECT_EQ(host[14], 14);  // preserved
}

TEST(WriterTest, RejectsARangePastTheArray) {
  // A range end past the array would take pushes the array cannot hold.
  Machine mach(cfg(64, 16, 4));
  ExtArray<int> arr(mach, 20, "out");
  EXPECT_THROW(Writer<int>(arr, 0, 32), std::out_of_range);
  EXPECT_THROW(Writer<int>(arr, 12, 11), std::out_of_range);
  EXPECT_THROW(Writer<int>(arr, 21), std::out_of_range);
  EXPECT_NO_THROW(Writer<int>(arr, 20, 20));
  EXPECT_EQ(mach.cost(), 0u);
}

TEST(WriterTest, RejectsPushesPastTheRangeEnd) {
  // Writer(arr, 0, 16) with B = 16 holds one block.  Twenty values, pushed
  // or appended, would spill four into arr[16..19]: the flush that would
  // write them throws, and only the first block is written.
  Machine mach(cfg(64, 16, 4));
  auto arr = make_iota(mach, 64);
  const std::vector<int> vals(20, -1);
  for (const bool by_span : {false, true}) {
    SCOPED_TRACE(by_span);
    mach.reset_stats();
    EXPECT_THROW(
        {
          Writer<int> w(arr, 0, 16);
          if (by_span) {
            w.append(vals);
          } else {
            for (const int v : vals) w.push(v);
          }
          w.finish();
        },
        std::out_of_range);
    EXPECT_EQ(mach.stats(), (IoStats{0, 1}));
    const auto& host = arr.unsafe_host_view();
    for (int i = 0; i < 64; ++i) EXPECT_EQ(host[i], i < 16 ? -1 : i);
  }
}

TEST(WriterTest, FinishIsIdempotent) {
  Machine mach(cfg());
  ExtArray<int> arr(mach, 8, "out");
  Writer<int> w(arr);
  w.push(1);
  w.finish();
  auto stats = mach.stats();
  w.finish();
  EXPECT_EQ(mach.stats(), stats);
}

TEST(WriterTest, ScanCopyPipeline) {
  // scan + write = the canonical EM "copy" costing n reads + n writes.
  Machine mach(cfg());
  auto src = make_iota(mach, 64, 5);
  ExtArray<int> dst(mach, 64, "dst");
  mach.reset_stats();
  Scanner<int> sc(src);
  Writer<int> w(dst);
  while (!sc.done()) w.push(sc.next());
  w.finish();
  EXPECT_EQ(mach.stats().reads, 8u);
  EXPECT_EQ(mach.stats().writes, 8u);
  EXPECT_EQ(mach.cost(), 8u + 4u * 8u);
  EXPECT_EQ(dst.unsafe_host_view(), src.unsafe_host_view());
}

TEST(WriterTest, AppendMatchesPushes) {
  // Spans of random length (empty ones too), crossing several blocks, into
  // aligned and unaligned ranges (the read-modify-write path at either
  // end): the same bytes, charges and trace as pushing one at a time.
  aem::util::Rng rng(3102);
  for (const auto& [begin, end] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {0, 100}, {3, 100}, {10, 14}, {5, 61}, {16, 16}, {7, 8}}) {
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<std::uint64_t> vals(end - begin);
      for (std::uint64_t& v : vals) v = 1000 + rng.next() % 1000;
      auto run = [&](bool by_span) {
        Machine mach(cfg());
        mach.enable_trace();
        ExtArray<std::uint64_t> arr(mach, 100, "out");
        std::vector<std::uint64_t> host(100);
        std::iota(host.begin(), host.end(), 0);
        arr.unsafe_host_fill(host);
        arr.set_atom_extractor([](const std::uint64_t& v) { return v; });
        Writer<std::uint64_t> w(arr, begin, end);
        for (std::size_t i = 0; i < vals.size();) {
          if (!by_span) {
            w.push(vals[i++]);
            continue;
          }
          const std::size_t len =
              std::min<std::size_t>(rng.next() % 25, vals.size() - i);
          w.append(std::span<const std::uint64_t>(vals.data() + i, len));
          i += len;
        }
        w.finish();
        return std::make_tuple(arr.unsafe_host_view(), mach.cost(),
                               mach.stats().reads,
                               aem::test::trace_hash(*mach.trace()));
      };
      EXPECT_EQ(run(false), run(true)) << "range [" << begin << ", " << end
                                       << ") trial " << trial;
    }
  }
}

TEST(CursorTest, CachesCurrentBlock) {
  Machine mach(cfg());
  auto arr = make_iota(mach, 64);
  mach.reset_stats();
  BlockCursor<int> cur(arr);
  EXPECT_EQ(cur.at(3), 3);
  EXPECT_EQ(cur.at(5), 5);
  EXPECT_EQ(cur.at(7), 7);
  EXPECT_EQ(mach.stats().reads, 1u);  // all in block 0
  EXPECT_EQ(cur.at(9), 9);            // block 1
  EXPECT_EQ(mach.stats().reads, 2u);
  EXPECT_EQ(cur.at(2), 2);  // back to block 0: re-read
  EXPECT_EQ(mach.stats().reads, 3u);
}

TEST(PointerArrayTest, InitializationCost) {
  Machine mach(cfg());  // B = 8
  mach.reset_stats();
  ExtPointerArray ptrs(mach, 20, "b");
  // ceil(20/8) = 3 block writes, no reads.
  EXPECT_EQ(mach.stats().writes, 3u);
  EXPECT_EQ(mach.stats().reads, 0u);
  EXPECT_EQ(ptrs.size(), 20u);
  EXPECT_EQ(ptrs.get(13), 0u);
}

TEST(PointerArrayTest, GetSetRoundTrip) {
  Machine mach(cfg());
  ExtPointerArray ptrs(mach, 20, "b");
  mach.reset_stats();
  ptrs.set(13, 77);
  EXPECT_EQ(mach.stats().reads, 1u);
  EXPECT_EQ(mach.stats().writes, 1u);
  EXPECT_EQ(ptrs.get(13), 77u);
  EXPECT_EQ(ptrs.get(12), 0u);
}

TEST(PointerArrayTest, SetHoldsOneBlockOfMemory) {
  Machine mach(cfg());  // B = 8
  ExtPointerArray ptrs(mach, 20, "b");
  const std::size_t before = mach.ledger().used();
  mach.ledger().reset_high_water();
  ptrs.set(13, 77);
  ptrs.set(2, 5);
  EXPECT_EQ(mach.ledger().high_water(), before + 8);
  EXPECT_EQ(mach.ledger().used(), before);
}

TEST(PointerArrayTest, ForEachStreamsOnce) {
  Machine mach(cfg());
  ExtPointerArray ptrs(mach, 24, "b");
  for (std::size_t i = 0; i < 24; ++i) ptrs.set(i, i * 10);
  mach.reset_stats();
  std::vector<std::uint64_t> seen;
  ptrs.for_each(0, 24, [&](std::size_t i, std::uint64_t v) {
    EXPECT_EQ(v, i * 10);
    seen.push_back(v);
  });
  EXPECT_EQ(seen.size(), 24u);
  EXPECT_EQ(mach.stats().reads, 3u);
  EXPECT_EQ(mach.stats().writes, 0u);
}

TEST(PointerArrayTest, UpdateRangeWritesOnlyDirtyBlocks) {
  Machine mach(cfg());
  ExtPointerArray ptrs(mach, 24, "b");
  mach.reset_stats();
  // Touch only entries in the middle block (indices 8..15).
  ptrs.update_range(0, 24, [&](std::size_t i, std::uint64_t& v) {
    if (i >= 8 && i < 16) {
      v = 1;
      return true;
    }
    return false;
  });
  EXPECT_EQ(mach.stats().reads, 3u);
  EXPECT_EQ(mach.stats().writes, 1u);  // only the dirty block
  EXPECT_EQ(ptrs.get(8), 1u);
  EXPECT_EQ(ptrs.get(7), 0u);
}

TEST(PointerArrayTest, SubrangeStreaming) {
  Machine mach(cfg());
  ExtPointerArray ptrs(mach, 32, "b");
  mach.reset_stats();
  std::size_t count = 0;
  ptrs.for_each(10, 14, [&](std::size_t, std::uint64_t) { ++count; });
  EXPECT_EQ(count, 4u);
  EXPECT_EQ(mach.stats().reads, 1u);  // 10..13 all in block 1
}

}  // namespace
