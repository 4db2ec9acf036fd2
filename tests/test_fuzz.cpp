// Randomized property tests ("fuzz"): the streaming primitives, merges and
// sorts are driven with randomized geometries and inputs and checked
// against host-side reference models.  Seeds are fixed, so failures are
// reproducible.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <vector>

#include "core/ext_array.hpp"
#include "core/machine.hpp"
#include "core/trace_io.hpp"
#include "io/ext_pointer_array.hpp"
#include "io/scanner.hpp"
#include "io/writer.hpp"
#include "permute/transpose.hpp"
#include "sort/merge.hpp"
#include "sort/mergesort.hpp"
#include "sort/samplesort.hpp"
#include "sort/small_sort.hpp"
#include "util/rng.hpp"

namespace {

using namespace aem;

Config cfg(std::size_t M, std::size_t B, std::uint64_t w) {
  Config c;
  c.memory_elems = M;
  c.block_elems = B;
  c.write_cost = w;
  return c;
}

TEST(FuzzScannerWriter, RandomRangesRoundTrip) {
  util::Rng rng(501);
  for (int iter = 0; iter < 60; ++iter) {
    const std::size_t B = 1 + rng.below(16);
    const std::size_t M = 8 * B + rng.below(64);
    Machine mach(cfg(M, B, 1));
    const std::size_t n = 1 + rng.below(300);
    std::vector<std::uint64_t> host(n);
    for (auto& v : host) v = rng.next();
    ExtArray<std::uint64_t> arr(mach, n, "a");
    arr.unsafe_host_fill(host);

    // Random subrange: overwrite through a Writer, mirror on the host.
    const std::size_t lo = rng.below(n + 1);
    const std::size_t hi = lo + rng.below(n - lo + 1);
    {
      Writer<std::uint64_t> w(arr, lo, hi);
      for (std::size_t i = lo; i < hi; ++i) {
        host[i] = rng.next();
        w.push(host[i]);
      }
      w.finish();
    }
    // Random subrange scan must agree with the host mirror.
    const std::size_t slo = rng.below(n + 1);
    const std::size_t shi = slo + rng.below(n - slo + 1);
    Scanner<std::uint64_t> sc(arr, slo, shi);
    for (std::size_t i = slo; i < shi; ++i)
      ASSERT_EQ(sc.next(), host[i]) << "iter " << iter << " pos " << i;
    ASSERT_TRUE(sc.done());
  }
}

TEST(FuzzScannerWriter, InterleavedWritersPreserveNeighbours) {
  // Multiple writers with adjacent unaligned ranges flushed in arbitrary
  // order must never clobber each other's data (the RMW path).
  util::Rng rng(503);
  for (int iter = 0; iter < 40; ++iter) {
    const std::size_t B = 2 + rng.below(15);
    Machine mach(cfg(16 * B, B, 1));
    const std::size_t n = 4 * B + rng.below(6 * B);
    std::vector<std::uint64_t> host(n, 7);
    ExtArray<std::uint64_t> arr(mach, n, "a");
    arr.unsafe_host_fill(host);

    // Split [0, n) into three consecutive ranges at random cut points.
    std::size_t c1 = rng.below(n + 1), c2 = rng.below(n + 1);
    if (c1 > c2) std::swap(c1, c2);
    std::vector<Writer<std::uint64_t>> writers;
    writers.emplace_back(arr, 0, c1);
    writers.emplace_back(arr, c1, c2);
    writers.emplace_back(arr, c2, n);
    std::size_t pos[3] = {0, c1, c2};
    const std::size_t end[3] = {c1, c2, n};
    // Random round-robin pushes.
    while (pos[0] < end[0] || pos[1] < end[1] || pos[2] < end[2]) {
      const std::size_t w = rng.below(3);
      if (pos[w] >= end[w]) continue;
      host[pos[w]] = rng.next();
      writers[w].push(host[pos[w]]);
      ++pos[w];
    }
    for (auto& w : writers) w.finish();
    ASSERT_EQ(arr.unsafe_host_view(), host) << "iter " << iter;
  }
}

TEST(FuzzMerge, RandomRunsAgainstStdMerge) {
  util::Rng rng(507);
  for (int iter = 0; iter < 30; ++iter) {
    const std::size_t B = 4 + rng.below(13);
    const std::size_t M = 8 * B * (1 + rng.below(4));
    const std::uint64_t w = 1 + rng.below(32);
    Machine mach(cfg(M, B, w));

    // Random runs with block-aligned begins: lengths multiple of B except
    // possibly the last, some empty.
    const std::size_t k = 1 + rng.below(12);
    std::vector<std::uint64_t> host;
    std::vector<RunBounds> bounds;
    for (std::size_t r = 0; r < k; ++r) {
      std::size_t len = rng.below(8) * B;
      if (r + 1 == k) len += rng.below(B);  // final partial block
      std::vector<std::uint64_t> run(len);
      for (auto& v : run) v = rng.below(1000);  // duplicates likely
      std::sort(run.begin(), run.end());
      bounds.push_back(RunBounds{host.size(), host.size() + len});
      host.insert(host.end(), run.begin(), run.end());
    }
    if (host.empty()) continue;
    ExtArray<std::uint64_t> in(mach, host.size(), "in");
    in.unsafe_host_fill(host);
    ExtArray<std::uint64_t> out(mach, host.size(), "out");
    merge_runs(in, std::span<const RunBounds>(bounds), out, 0,
               std::less<std::uint64_t>{});
    auto expect = host;
    std::sort(expect.begin(), expect.end());
    ASSERT_EQ(out.unsafe_host_view(), expect) << "iter " << iter;
    ASSERT_LE(mach.ledger().high_water(), M) << "iter " << iter;
  }
}

TEST(FuzzMerge, CombineAgainstHostFold) {
  // Merge with a sum-combiner vs a host map accumulation.
  util::Rng rng(509);
  for (int iter = 0; iter < 20; ++iter) {
    const std::size_t B = 8;
    Machine mach(cfg(128, B, 2));
    const std::size_t k = 1 + rng.below(6);
    std::vector<std::uint64_t> host;
    std::vector<RunBounds> bounds;
    for (std::size_t r = 0; r < k; ++r) {
      const std::size_t len = rng.below(6) * B;
      std::vector<std::uint64_t> keys(len);
      for (auto& v : keys) v = rng.below(40);
      std::sort(keys.begin(), keys.end());
      bounds.push_back(RunBounds{host.size(), host.size() + len});
      for (auto kk : keys) host.push_back((kk << 32) | 1);
    }
    if (host.empty()) continue;
    ExtArray<std::uint64_t> in(mach, host.size(), "in");
    in.unsafe_host_fill(host);
    ExtArray<std::uint64_t> out(mach, host.size(), "out");
    auto by_key = [](std::uint64_t a, std::uint64_t b) {
      return (a >> 32) < (b >> 32);
    };
    auto add = [](std::uint64_t& acc, const std::uint64_t& x) {
      acc += x & 0xffffffff;
    };
    const std::size_t written = merge_runs(
        in, std::span<const RunBounds>(bounds), out, 0, by_key, add);

    std::map<std::uint64_t, std::uint64_t> ref;
    for (auto v : host) ref[v >> 32] += v & 0xffffffff;
    ASSERT_EQ(written, ref.size()) << "iter " << iter;
    std::size_t i = 0;
    for (const auto& [key, count] : ref) {
      ASSERT_EQ(out.unsafe_host_view()[i] >> 32, key);
      ASSERT_EQ(out.unsafe_host_view()[i] & 0xffffffff, count);
      ++i;
    }
  }
}

TEST(FuzzSort, AdversarialShapes) {
  // Sorted, reverse, organ-pipe, constant, and near-sorted inputs through
  // all three sorters on a random machine.
  util::Rng rng(511);
  for (int iter = 0; iter < 10; ++iter) {
    const std::size_t B = 8 << rng.below(2);
    const std::size_t M = 16 * B << rng.below(2);
    const std::uint64_t w = 1 << rng.below(7);
    const std::size_t n = 512 + rng.below(2048);
    std::vector<std::vector<std::uint64_t>> shapes;
    std::vector<std::uint64_t> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = i;
    shapes.push_back(v);                                   // sorted
    std::reverse(v.begin(), v.end());
    shapes.push_back(v);                                   // reverse
    for (std::size_t i = 0; i < n; ++i) v[i] = std::min(i, n - i);
    shapes.push_back(v);                                   // organ pipe
    shapes.push_back(std::vector<std::uint64_t>(n, 42));   // constant
    for (std::size_t i = 0; i < n; ++i) v[i] = i ^ (rng.below(4));
    shapes.push_back(v);                                   // near-sorted

    for (const auto& shape : shapes) {
      auto expect = shape;
      std::sort(expect.begin(), expect.end());
      {
        Machine mach(cfg(M, B, w));
        ExtArray<std::uint64_t> in(mach, n, "in");
        in.unsafe_host_fill(shape);
        ExtArray<std::uint64_t> out(mach, n, "out");
        aem_merge_sort(in, out);
        ASSERT_EQ(out.unsafe_host_view(), expect);
      }
      {
        Machine mach(cfg(M, B, w));
        ExtArray<std::uint64_t> in(mach, n, "in");
        in.unsafe_host_fill(shape);
        ExtArray<std::uint64_t> out(mach, n, "out");
        aem_sample_sort(in, out);
        ASSERT_EQ(out.unsafe_host_view(), expect);
      }
    }
  }
}

TEST(FuzzPointerArray, AgainstHostVector) {
  util::Rng rng(513);
  for (int iter = 0; iter < 30; ++iter) {
    const std::size_t B = 1 + rng.below(16);
    Machine mach(cfg(8 * B + 64, B, 2));
    const std::size_t n = 1 + rng.below(120);
    std::vector<std::uint64_t> ref(n);
    for (std::uint64_t& v : ref) v = rng.next();
    ExtPointerArray ptrs(mach, n, "p", [&](std::size_t i) { return ref[i]; });
    // Entries [lo, hi) stream back as ref holds them, at one read a block.
    const auto check = [&](std::size_t lo, std::size_t hi) {
      const IoStats before = mach.stats();
      std::size_t next = lo;
      ptrs.for_each(lo, hi, [&](std::size_t j, std::uint64_t v) {
        EXPECT_EQ(j, next++);
        EXPECT_EQ(v, ref[j]);
      });
      EXPECT_EQ(next, hi);
      const std::uint64_t blocks = lo == hi ? 0 : (hi - 1) / B - lo / B + 1;
      EXPECT_EQ(mach.stats().reads - before.reads, blocks);
      EXPECT_EQ(mach.stats().writes, before.writes);
    };
    for (int op = 0; op < 80; ++op) {
      const std::size_t i = rng.below(n);
      if (rng.below(2) == 0) {
        const std::uint64_t v = rng.next();
        ptrs.set(i, v);
        ref[i] = v;
      } else {
        check(i, i + rng.below(n - i + 1));
      }
    }
    check(0, n);
  }
}

TEST(TransposeTest, MatchesHostTranspose) {
  util::Rng rng(517);
  for (auto [rows, cols] : {std::pair<std::size_t, std::size_t>{16, 64},
                            {64, 16},
                            {37, 11},
                            {1, 128}}) {
    Machine mach(cfg(256, 16, 8));
    const std::size_t n = rows * cols;
    std::vector<std::uint64_t> host(n);
    for (auto& v : host) v = rng.next();
    ExtArray<std::uint64_t> in(mach, n, "in");
    in.unsafe_host_fill(host);
    ExtArray<std::uint64_t> out(mach, n, "out");
    transpose_ext(in, rows, cols, out);
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < cols; ++c)
        ASSERT_EQ(out.unsafe_host_view()[c * rows + r], host[r * cols + c])
            << rows << "x" << cols << " at (" << r << "," << c << ")";
  }
}

TEST(TransposeTest, DoubleTransposeIsIdentity) {
  Machine mach(cfg(128, 8, 4));
  util::Rng rng(519);
  const std::size_t rows = 24, cols = 40;
  std::vector<std::uint64_t> host(rows * cols);
  for (auto& v : host) v = rng.next();
  ExtArray<std::uint64_t> a(mach, host.size(), "a");
  a.unsafe_host_fill(host);
  ExtArray<std::uint64_t> b(mach, host.size(), "b");
  ExtArray<std::uint64_t> c(mach, host.size(), "c");
  transpose_ext(a, rows, cols, b);
  transpose_ext(b, cols, rows, c);
  EXPECT_EQ(c.unsafe_host_view(), host);
}

TEST(TraceIoTest, RoundTrip) {
  Trace t;
  IoTicket w = t.add(OpKind::kWrite, 3, 17);
  t.set_atoms(w, {100, 101, 102});
  t.add(OpKind::kRead, 3, 17);
  IoTicket r = t.add(OpKind::kRead, 4, 2);
  t.mark_used(r, 101);
  t.mark_used(r, 100);

  std::stringstream ss;
  write_trace(ss, t);
  Trace back = read_trace(ss);
  ASSERT_EQ(back.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(back.op(i).kind, t.op(i).kind);
    EXPECT_EQ(back.op(i).array, t.op(i).array);
    EXPECT_EQ(back.op(i).block, t.op(i).block);
    EXPECT_EQ(back.op(i).atoms, t.op(i).atoms);
    EXPECT_EQ(back.op(i).used, t.op(i).used);
  }
}

TEST(TraceIoTest, RejectsMalformedInput) {
  const std::string hdr = "# aem trace v1, ops=1\n";
  {
    std::stringstream ss(hdr + "X 0 0\n");
    EXPECT_THROW(read_trace(ss), std::invalid_argument);
  }
  {
    std::stringstream ss(hdr + "R 0\n");
    EXPECT_THROW(read_trace(ss), std::invalid_argument);
  }
  {
    std::stringstream ss(hdr + "R 0 0 a 1 2\n");  // 'a' tag on a read
    EXPECT_THROW(read_trace(ss), std::invalid_argument);
  }
  {
    std::stringstream ss(hdr + "W 0 0 a 1 x\n");  // non-numeric id
    EXPECT_THROW(read_trace(ss), std::invalid_argument);
  }
  {
    // Magic-less files (old behavior: silently empty) are now rejected.
    std::stringstream ss("# only comments\n\n");
    EXPECT_THROW(read_trace(ss), std::invalid_argument);
  }
  {
    std::stringstream ss("");  // empty input
    EXPECT_THROW(read_trace(ss), std::invalid_argument);
  }
  {
    std::stringstream ss("R 0 0\n");  // body without header
    EXPECT_THROW(read_trace(ss), std::invalid_argument);
  }
  {
    // Truncated: header declares more ops than the body holds.
    std::stringstream ss("# aem trace v1, ops=3\nR 0 0\n");
    EXPECT_THROW(read_trace(ss), std::invalid_argument);
  }
  {
    // Oversized: body holds more ops than the header declares.
    std::stringstream ss("# aem trace v1, ops=1\nR 0 0\nW 0 1\n");
    EXPECT_THROW(read_trace(ss), std::invalid_argument);
  }
  {
    // Corrupted length field must error, not allocate.
    std::stringstream ss("# aem trace v1, ops=banana\nR 0 0\n");
    EXPECT_THROW(read_trace(ss), std::invalid_argument);
  }
  {
    // Header without ops= is accepted (the count check is then skipped).
    std::stringstream ss("# aem trace v1\nR 0 0\n");
    EXPECT_EQ(read_trace(ss).size(), 1u);
  }
}

TEST(TraceIoTest, CorruptedRoundTripFuzz) {
  // Serialize random traces, mutilate the bytes (truncate, flip, splice),
  // and re-parse: every outcome must be either a clean parse or
  // std::invalid_argument — never a crash, hang, or huge allocation.
  util::Rng rng(541);
  for (int iter = 0; iter < 50; ++iter) {
    Trace t;
    const std::size_t ops = 1 + rng.below(40);
    for (std::size_t i = 0; i < ops; ++i) {
      const bool rd = rng.below(2) == 0;
      IoTicket tk = t.add(rd ? OpKind::kRead : OpKind::kWrite,
                          static_cast<std::uint32_t>(rng.below(8)),
                          rng.below(1000));
      const std::size_t nids = rng.below(4);
      if (rd) {
        for (std::size_t j = 0; j < nids; ++j) t.mark_used(tk, rng.below(500));
      } else if (nids > 0) {
        std::vector<std::uint64_t> atoms;
        for (std::size_t j = 0; j < nids; ++j) atoms.push_back(rng.below(500));
        t.set_atoms(tk, std::move(atoms));
      }
    }
    std::stringstream clean;
    write_trace(clean, t);
    std::string bytes = clean.str();

    switch (rng.below(4)) {
      case 0:  // truncate at a random byte
        bytes.resize(rng.below(bytes.size() + 1));
        break;
      case 1: {  // flip a random printable byte
        if (!bytes.empty())
          bytes[rng.below(bytes.size())] =
              static_cast<char>('!' + rng.below(90));
        break;
      }
      case 2: {  // splice a random chunk out of the middle
        const std::size_t from = rng.below(bytes.size() + 1);
        const std::size_t len = rng.below(bytes.size() - from + 1);
        bytes.erase(from, len);
        break;
      }
      default:  // leave intact: must round-trip exactly
        break;
    }

    std::stringstream ss(bytes);
    try {
      Trace back = read_trace(ss);
      // Parsed cleanly: re-serializing must be self-consistent.
      std::stringstream again;
      write_trace(again, back);
      std::stringstream ss2(again.str());
      Trace twice = read_trace(ss2);
      EXPECT_EQ(twice.size(), back.size()) << "iter " << iter;
      EXPECT_EQ(twice.stats(), back.stats()) << "iter " << iter;
    } catch (const std::invalid_argument&) {
      // Rejection with a typed error is the other acceptable outcome.
    }
  }
}

TEST(TraceIoTest, RealTraceRoundTrips) {
  Machine mach(cfg(128, 8, 4));
  util::Rng rng(523);
  const std::size_t N = 512;
  ExtArray<std::uint64_t> in(mach, N, "in");
  in.unsafe_host_fill(util::distinct_keys(N, rng));
  in.set_atom_extractor([](const std::uint64_t& v) { return v; });
  ExtArray<std::uint64_t> out(mach, N, "out");
  out.set_atom_extractor([](const std::uint64_t& v) { return v; });
  mach.enable_trace();
  aem_merge_sort(in, out);
  auto trace = mach.take_trace();

  std::stringstream ss;
  write_trace(ss, *trace);
  Trace back = read_trace(ss);
  EXPECT_EQ(back.size(), trace->size());
  EXPECT_EQ(back.cost(4), trace->cost(4));
  EXPECT_EQ(back.stats(), trace->stats());
}

}  // namespace
