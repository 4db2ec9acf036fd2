// W1 — the low-write algorithm suite (docs/MODEL.md section 18): a phase
// diagram over omega x M/B x N mapping where each read-favoring variant
// beats its classical counterpart on charged Q, on writes alone, and on the
// wear horizon (reruns until the hottest block reaches a fixed endurance).
//
// Three sections, every cell its own Machine through the parallel harness:
//
//  * sort  — aem_lowwrite_sample_sort (external splitters, omega-scaled
//            fanout, Eytzinger window search) vs the omega-aware
//            aem_merge_sort on the same keys.  The variant pays windowed
//            re-scan reads to write each element exactly once per level;
//            the Section 3 merge pays block-pointer RMW writes instead.
//  * pq    — aem_heap_sort under PqTuning::kBuffered (merge-tree base
//            omega * m_eff) vs kLegacy (base m_eff) on the same stream:
//            the wider base absorbs cascades that cost the legacy queue
//            whole rewrite passes.
//  * puts  — KvStore::put_inline_batch vs per-op put_inline over the same
//            ops on identically built stores (fence index): K ops absorbed
//            into one page group charge 1 read + 1 omega-write for the
//            group instead of K of each.
//
// Every cell appends the measured variant's metrics snapshot (the puts
// cells with their store section); the head-to-head figures live in the
// tables and CSV.
//
// PASS criteria (hard guards, exit 1 on violation):
//  * both sorts produce the identical sorted permutation; at omega >= 16 on
//    every cell that actually distributes (N > omega * M/2) the variant
//    charges STRICTLY fewer writes and STRICTLY more reads than mergesort;
//  * at omega == 1 the variant delegates and is charge-identical to
//    aem_sample_sort (reads, writes, and Q all equal);
//  * both PQ tunings pop the same sorted stream; at omega >= 16 kBuffered
//    charges strictly fewer writes than kLegacy; at omega == 1 kBuffered
//    downgrades and is charge-identical to kLegacy;
//  * batched puts match per-op puts on hits, orphaned words, and every
//    subsequent get; they never charge more log reads or log writes, write
//    at most one page per absorbed group (put_writes <= put_log_reads),
//    absorb strictly (fewer log reads, but at least one group) once ops
//    share pages, and a batch of one is charge-identical to put_inline.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "store_workload.hpp"
#include "pq/ext_pq.hpp"
#include "sort/budget.hpp"
#include "sort/lowwrite_samplesort.hpp"
#include "sort/mergesort.hpp"
#include "sort/samplesort.hpp"
#include "store/kv_store.hpp"

namespace {

using namespace aem;
using namespace aem::bench;
using store::IndexKind;
using store::KvStore;
using store::Slot;
using store::StoreConfig;

constexpr std::size_t kB = 16;
/// Per-block write endurance for the wear-horizon column: the run repeats
/// endurance / max_writes times before the hottest block retires (0 when no
/// writes were observed) — the same figure traffic/engine.hpp reports.
constexpr std::uint64_t kEndurance = 100000;

const char* winner(std::uint64_t variant, std::uint64_t baseline) {
  return variant < baseline ? "variant"
         : variant > baseline ? "baseline"
                              : "tie";
}

std::uint64_t wear_horizon(const Machine& mach) {
  const WearStats ws = mach.wear_stats();
  return ws.max_writes == 0 ? 0 : kEndurance / ws.max_writes;
}

// --- sort section ----------------------------------------------------------

struct SortCell {
  std::uint64_t omega;
  std::size_t M;
  std::size_t N;
};

struct RunIo {
  IoStats io;
  std::uint64_t cost = 0;
  std::uint64_t horizon = 0;
  std::vector<std::uint64_t> out;
};

/// Stages `keys` on a fresh wear-tracked machine, runs `sort_fn(in, out)`,
/// and returns the charged I/O plus the host view of the output.  When
/// `snap` is non-null, also snapshots the machine under `label`.
template <class Fn>
RunIo run_sorter(const Config& cfg, const std::vector<std::uint64_t>& keys,
                 Fn&& sort_fn, MetricsSnapshot* snap = nullptr,
                 const std::string& label = "") {
  Machine mach(cfg);
  mach.enable_wear_tracking();
  ExtArray<std::uint64_t> in(mach, keys.size(), "w1.in");
  in.unsafe_host_fill(std::span<const std::uint64_t>(keys));
  ExtArray<std::uint64_t> out(mach, keys.size(), "w1.out");
  sort_fn(in, out);
  RunIo r;
  r.io = mach.stats();
  r.cost = mach.cost();
  r.horizon = wear_horizon(mach);
  r.out = out.unsafe_host_view();
  if (snap != nullptr) *snap = snapshot_metrics(mach, label);
  return r;
}

struct SortResult {
  RunIo base;     // omega-aware mergesort
  RunIo rf;       // read-favoring samplesort
  RunIo classic;  // aem_sample_sort, filled at omega == 1 for the identity
  bool distributes = false;  // N > base: both sorts actually recurse
  bool lowwrite_path = false;  // variant took the external-splitter path
};

SortResult run_sort_cell(const SortCell& c, harness::PointContext& ctx) {
  const Config cfg = make_config(c.M, kB, c.omega);
  const std::vector<std::uint64_t> keys = util::random_keys(c.N, ctx.rng());

  SortResult r;
  r.base = run_sorter(cfg, keys, [](const auto& in, auto& out) {
    aem_merge_sort(in, out);
  });
  const std::string label = "W1 sort omega=" + std::to_string(c.omega) +
                            " M=" + std::to_string(c.M) +
                            " N=" + std::to_string(c.N);
  MetricsSnapshot snap;
  r.rf = run_sorter(
      cfg, keys,
      [](const auto& in, auto& out) { aem_lowwrite_sample_sort(in, out); },
      &snap, label);
  if (c.omega == 1)
    r.classic = run_sorter(cfg, keys, [](const auto& in, auto& out) {
      aem_sample_sort(in, out);
    });

  {
    Machine probe(cfg);
    const SortBudget budget = SortBudget::from(probe);
    r.distributes = c.N > budget.base;
    const std::size_t resident_cap =
        std::max<std::size_t>(2, budget.out_batch / 4);
    r.lowwrite_path = c.omega != 1 && budget.fanout > resident_cap;
  }

  ctx.snapshot(std::move(snap));
  ctx.row({util::fmt(c.omega), util::fmt(std::uint64_t(c.M)),
           util::fmt(std::uint64_t(c.N)),
           r.lowwrite_path ? (r.distributes ? "lowwrite" : "small") : "delegate",
           util::fmt(r.base.io.reads), util::fmt(r.base.io.writes),
           util::fmt(r.base.cost), util::fmt(r.rf.io.reads),
           util::fmt(r.rf.io.writes), util::fmt(r.rf.cost),
           winner(r.rf.cost, r.base.cost),
           winner(r.rf.io.writes, r.base.io.writes),
           util::fmt(r.rf.horizon), util::fmt(r.base.horizon)});
  return r;
}

// --- pq section ------------------------------------------------------------

struct PqCell {
  std::uint64_t omega;
  std::size_t N;
};

constexpr std::size_t kPqM = 4096;

SortResult run_pq_cell(const PqCell& c, harness::PointContext& ctx) {
  const Config cfg = make_config(kPqM, kB, c.omega);
  const std::vector<std::uint64_t> keys = util::random_keys(c.N, ctx.rng());

  SortResult r;
  r.base = run_sorter(cfg, keys, [](const auto& in, auto& out) {
    aem_heap_sort(in, out, std::less<std::uint64_t>{}, PqTuning::kLegacy);
  });
  const std::string label =
      "W1 pq omega=" + std::to_string(c.omega) + " N=" + std::to_string(c.N);
  MetricsSnapshot snap;
  r.rf = run_sorter(
      cfg, keys,
      [](const auto& in, auto& out) {
        aem_heap_sort(in, out, std::less<std::uint64_t>{},
                      PqTuning::kBuffered);
      },
      &snap, label);
  {
    Machine probe(cfg);
    const SortBudget budget = SortBudget::from(probe);
    r.lowwrite_path = budget.fanout > budget.m_eff;  // no downgrade
  }

  ctx.snapshot(std::move(snap));
  ctx.row({util::fmt(c.omega), util::fmt(std::uint64_t(c.N)),
           r.lowwrite_path ? "buffered" : "downgraded",
           util::fmt(r.base.io.reads), util::fmt(r.base.io.writes),
           util::fmt(r.base.cost), util::fmt(r.rf.io.reads),
           util::fmt(r.rf.io.writes), util::fmt(r.rf.cost),
           winner(r.rf.cost, r.base.cost),
           winner(r.rf.io.writes, r.base.io.writes),
           util::fmt(r.rf.horizon), util::fmt(r.base.horizon)});
  return r;
}

// --- puts section ----------------------------------------------------------

struct PutsCell {
  std::uint64_t omega;
  std::size_t nops;
};

constexpr std::size_t kPutRecords = 2048;

struct PutsWorkload : StoreWorkload {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ops;
};

/// Store of kPutRecords records (~25% spilled, so overwrites orphan payload
/// words) plus `nops` put ops: ~75% against stored keys, ~25% guaranteed
/// misses (odd keys).  Deterministic in (seed, nops).
PutsWorkload make_puts_workload(std::size_t nops, std::uint64_t seed) {
  util::Rng rng(seed);
  PutsWorkload w;
  for (std::size_t i = 0; i < kPutRecords; ++i) {
    Slot s;
    s.key = rng.next() & ~1ull;
    w.keys.push_back(s.key);
    if (rng.below(100) < 25) {
      s.len = 2 + rng.below(2 * kB - 1);
      s.pos = w.payload.size();
      for (std::uint64_t j = 0; j < s.len; ++j) w.payload.push_back(rng.next());
    } else {
      s.len = 1;
      s.pos = rng.next();
    }
    w.slots.push_back(s);
  }
  for (std::size_t i = 0; i < nops; ++i) {
    const std::uint64_t key = rng.below(100) < 75
                                  ? w.keys[rng.below(w.keys.size())]
                                  : (rng.next() | 1);
    w.ops.emplace_back(key, rng.next());
  }
  return w;
}

struct PutsResult {
  store::StoreStats st;        // put counters only (fresh store)
  IoStats put_io;              // machine delta across the put phase
  std::uint64_t put_cost = 0;  // charged Q across the put phase
  std::uint64_t horizon = 0;   // wear across the put phase only
  std::vector<std::optional<std::vector<std::uint64_t>>> gets;
  StoreMetrics sm;
  MetricsSnapshot snap;
};

PutsResult run_puts(const Config& cfg, const PutsWorkload& w, bool batched,
                    const std::string& label) {
  Machine mach(cfg);
  ExtArray<Slot> slots;
  ExtArray<std::uint64_t> payload;
  stage(mach, w, slots, payload);

  KvStore kv(mach, StoreConfig{IndexKind::kFence});
  kv.build(slots, payload);

  mach.enable_wear_tracking();  // wear of the put phase alone
  const IoStats before = mach.stats();
  const std::uint64_t cost_before = mach.cost();
  if (batched) {
    kv.put_inline_batch(std::span<const std::pair<std::uint64_t,
                                                  std::uint64_t>>(w.ops));
  } else {
    for (const auto& [key, value] : w.ops) kv.put_inline(key, value);
  }
  PutsResult r;
  r.st = kv.stats();
  r.put_io = mach.stats() - before;
  r.put_cost = mach.cost() - cost_before;
  r.horizon = wear_horizon(mach);

  // Final-state probe: every op key plus a spread of untouched stored keys
  // must read back identically on both machines.
  for (const auto& [key, value] : w.ops) r.gets.push_back(kv.get(key));
  for (std::size_t i = 0; i < w.keys.size(); i += 7)
    r.gets.push_back(kv.get(w.keys[i]));
  const std::size_t scanned = kv.scan(0, ~0ull, [](auto, auto) {});
  if (scanned != kv.records())
    throw std::logic_error("W1 puts: full scan missed records");

  r.sm = kv.metrics_section();
  r.snap = snapshot_metrics(mach, label);
  r.snap.store = r.sm;
  return r;
}

struct PutsCellResult {
  PutsResult seq;
  PutsResult bat;
};

PutsCellResult run_puts_cell(const PutsCell& c, std::uint64_t seed,
                             harness::PointContext& ctx) {
  const PutsWorkload w =
      make_puts_workload(c.nops, seed * 1000003 + c.nops * 131 + c.omega);
  const Config cfg = make_config(kPqM, kB, c.omega);
  const std::string label = "W1 puts omega=" + std::to_string(c.omega) +
                            " nops=" + std::to_string(c.nops);
  PutsCellResult r;
  r.seq = run_puts(cfg, w, /*batched=*/false, label + " per-op");
  r.bat = run_puts(cfg, w, /*batched=*/true, label + " batched");

  ctx.snapshot(std::move(r.bat.snap));

  ctx.row({util::fmt(c.omega), util::fmt(std::uint64_t(c.nops)),
           util::fmt(r.seq.st.put_log_reads), util::fmt(r.seq.st.put_writes),
           util::fmt(r.bat.st.put_log_reads), util::fmt(r.bat.st.put_writes),
           util::fmt(r.bat.st.put_hits),
           winner(r.bat.put_cost, r.seq.put_cost),
           winner(r.bat.put_io.writes, r.seq.put_io.writes),
           util::fmt(r.bat.horizon), util::fmt(r.seq.horizon)});
  return r;
}

}  // namespace

int main(int argc, char** argv) try {
  util::Cli cli(argc, argv);
  const BenchIo io = bench_io(cli, 29);

  banner("W1",
         "low-write suite phase diagram: read-favoring samplesort, "
         "omega*m_eff-base priority queue, and batched store puts vs their "
         "classical counterparts on Q, writes alone, and wear horizon");

  bool ok = true;

  // --- sort sweep ----------------------------------------------------------
  {
    const std::uint64_t omegas[] = {1, 4, 16, 64};
    const std::size_t Ms[] = {1024, 4096};
    std::vector<std::size_t> Ns = {16384, 65536};
    if (io.full) Ns.push_back(262144);
    std::vector<SortCell> cells;
    for (std::uint64_t omega : omegas)
      for (std::size_t M : Ms)
        for (std::size_t N : Ns) cells.push_back({omega, M, N});

    util::Table t({"omega", "M", "N", "path", "ms_R", "ms_W", "ms_Q", "rf_R",
                   "rf_W", "rf_Q", "q_winner", "w_winner", "rf_horizon",
                   "ms_horizon"});
    std::vector<SortResult> slots(cells.size());
    replay(harness::run_sweep(cells.size(), io.sweep,
                              [&](harness::PointContext& ctx) {
                                slots[ctx.index()] =
                                    run_sort_cell(cells[ctx.index()], ctx);
                              }),
           &t, io.metrics);
    emit(t, "W1 sort phase diagram (B=" + util::fmt(std::uint64_t(kB)) +
                "): read-favoring samplesort vs omega-aware mergesort:",
         io.csv);

    for (std::size_t i = 0; i < cells.size(); ++i) {
      const SortCell& c = cells[i];
      const SortResult& r = slots[i];
      const std::string tag = "sort omega=" + std::to_string(c.omega) +
                              " M=" + std::to_string(c.M) +
                              " N=" + std::to_string(c.N);
      std::vector<std::uint64_t> want = r.base.out;
      if (r.rf.out != want) {
        std::cerr << "FAIL: " << tag
                  << ": variant output differs from mergesort's\n";
        ok = false;
      }
      if (!std::is_sorted(want.begin(), want.end())) {
        std::cerr << "FAIL: " << tag << ": mergesort output not sorted\n";
        ok = false;
      }
      if (c.omega >= 16 && r.distributes) {
        if (r.rf.io.writes >= r.base.io.writes) {
          std::cerr << "FAIL: " << tag << ": variant writes " << r.rf.io.writes
                    << " not strictly below mergesort's " << r.base.io.writes
                    << "\n";
          ok = false;
        }
        if (r.rf.io.reads <= r.base.io.reads) {
          std::cerr << "FAIL: " << tag << ": variant reads " << r.rf.io.reads
                    << " not strictly above mergesort's " << r.base.io.reads
                    << " (the read-for-write trade must show)\n";
          ok = false;
        }
      }
      if (c.omega == 1 &&
          (r.rf.io.reads != r.classic.io.reads ||
           r.rf.io.writes != r.classic.io.writes ||
           r.rf.cost != r.classic.cost || r.rf.out != r.classic.out)) {
        std::cerr << "FAIL: " << tag
                  << ": omega=1 variant not charge-identical to "
                     "aem_sample_sort (reads " << r.rf.io.reads << " vs "
                  << r.classic.io.reads << ", writes " << r.rf.io.writes
                  << " vs " << r.classic.io.writes << ")\n";
        ok = false;
      }
    }
    if (ok)
      std::cout << "sort guards: outputs identical; omega>=16 distributing "
                   "cells trade strictly more reads for strictly fewer "
                   "writes; omega=1 charge-identical to aem_sample_sort\n\n";
  }

  // --- pq sweep ------------------------------------------------------------
  {
    const std::uint64_t omegas[] = {1, 4, 16, 64};
    std::vector<PqCell> cells;
    for (std::uint64_t omega : omegas) cells.push_back({omega, 65536});

    util::Table t({"omega", "N", "tuning", "leg_R", "leg_W", "leg_Q", "buf_R",
                   "buf_W", "buf_Q", "q_winner", "w_winner", "buf_horizon",
                   "leg_horizon"});
    std::vector<SortResult> slots(cells.size());
    replay(harness::run_sweep(cells.size(), io.sweep,
                              [&](harness::PointContext& ctx) {
                                slots[ctx.index()] =
                                    run_pq_cell(cells[ctx.index()], ctx);
                              }),
           &t, io.metrics);
    emit(t, "W1 priority queue (M=" + util::fmt(std::uint64_t(kPqM)) + ", B=" +
                util::fmt(std::uint64_t(kB)) +
                "): buffered (base omega*m_eff) vs legacy (base m_eff):",
         io.csv);

    for (std::size_t i = 0; i < cells.size(); ++i) {
      const PqCell& c = cells[i];
      const SortResult& r = slots[i];
      const std::string tag = "pq omega=" + std::to_string(c.omega) +
                              " N=" + std::to_string(c.N);
      if (r.rf.out != r.base.out ||
          !std::is_sorted(r.base.out.begin(), r.base.out.end())) {
        std::cerr << "FAIL: " << tag << ": tunings popped different streams\n";
        ok = false;
      }
      if (c.omega >= 16 && r.rf.io.writes >= r.base.io.writes) {
        std::cerr << "FAIL: " << tag << ": buffered writes " << r.rf.io.writes
                  << " not strictly below legacy's " << r.base.io.writes
                  << "\n";
        ok = false;
      }
      if (c.omega == 1 &&
          (r.rf.io.reads != r.base.io.reads ||
           r.rf.io.writes != r.base.io.writes || r.rf.cost != r.base.cost)) {
        std::cerr << "FAIL: " << tag
                  << ": omega=1 buffered did not downgrade to the legacy "
                     "charges\n";
        ok = false;
      }
    }
    if (ok)
      std::cout << "pq guards: identical pop streams; omega>=16 buffered "
                   "strictly fewer writes; omega=1 downgrade is "
                   "charge-identical\n\n";
  }

  // --- puts sweep ----------------------------------------------------------
  {
    const std::uint64_t omegas[] = {1, 8, 64};
    const std::size_t nops[] = {1, 64, 256};
    std::vector<PutsCell> cells;
    for (std::uint64_t omega : omegas)
      for (std::size_t n : nops) cells.push_back({omega, n});

    util::Table t({"omega", "nops", "seq_log_R", "seq_log_W", "bat_log_R",
                   "bat_log_W", "hits", "q_winner", "w_winner", "bat_horizon",
                   "seq_horizon"});
    std::vector<PutsCellResult> slots(cells.size());
    replay(harness::run_sweep(cells.size(), io.sweep,
                              [&](harness::PointContext& ctx) {
                                slots[ctx.index()] = run_puts_cell(
                                    cells[ctx.index()], io.seed, ctx);
                              }),
           &t, io.metrics);
    emit(t, "W1 batched puts (fence index, " +
                util::fmt(std::uint64_t(kPutRecords)) +
                " records): per-op vs page-group "
                "absorption:",
         io.csv);

    for (std::size_t i = 0; i < cells.size(); ++i) {
      const PutsCell& c = cells[i];
      const PutsCellResult& r = slots[i];
      const std::string tag = "puts omega=" + std::to_string(c.omega) +
                              " nops=" + std::to_string(c.nops);
      if (r.seq.st.puts != r.bat.st.puts ||
          r.seq.st.put_hits != r.bat.st.put_hits ||
          r.seq.st.orphaned_words != r.bat.st.orphaned_words) {
        std::cerr << "FAIL: " << tag
                  << ": batched put counters diverge from per-op (hits "
                  << r.bat.st.put_hits << " vs " << r.seq.st.put_hits
                  << ", orphaned " << r.bat.st.orphaned_words << " vs "
                  << r.seq.st.orphaned_words << ")\n";
        ok = false;
      }
      if (r.seq.gets != r.bat.gets) {
        std::cerr << "FAIL: " << tag
                  << ": final store contents diverge (a get disagrees)\n";
        ok = false;
      }
      if (r.bat.st.put_log_reads > r.seq.st.put_log_reads ||
          r.bat.st.put_writes > r.seq.st.put_writes) {
        std::cerr << "FAIL: " << tag << ": batched puts charged MORE ("
                  << r.bat.st.put_log_reads << "r+" << r.bat.st.put_writes
                  << "w vs " << r.seq.st.put_log_reads << "r+"
                  << r.seq.st.put_writes << "w)\n";
        ok = false;
      }
      if (r.bat.st.put_writes > r.bat.st.put_log_reads) {
        std::cerr << "FAIL: " << tag << ": " << r.bat.st.put_writes
                  << " page writes exceed " << r.bat.st.put_log_reads
                  << " page groups (each group is <= 1 read + 1 write)\n";
        ok = false;
      }
      if (c.nops >= 64 && (r.bat.st.put_log_reads == 0 ||
                           r.bat.st.put_log_reads >= r.seq.st.put_log_reads)) {
        std::cerr << "FAIL: " << tag << ": no strict absorption ("
                  << r.bat.st.put_log_reads << " batched log reads vs "
                  << r.seq.st.put_log_reads << " per-op)\n";
        ok = false;
      }
      if (c.nops == 1 &&
          (r.bat.put_io.reads != r.seq.put_io.reads ||
           r.bat.put_io.writes != r.seq.put_io.writes ||
           r.bat.put_cost != r.seq.put_cost)) {
        std::cerr << "FAIL: " << tag
                  << ": a batch of one is not charge-identical to "
                     "put_inline\n";
        ok = false;
      }
    }
    if (ok)
      std::cout << "puts guards: counters, orphans, and final contents "
                   "match; <= 1 read + 1 write per absorbed group; strict "
                   "absorption at nops>=64; batch-of-1 identity\n";
  }

  std::cout << "\nPASS criteria: identical outputs everywhere; omega>=16 "
               "strictly fewer writes (sort: also strictly more reads); "
               "omega=1 variants charge-identical to their classical "
               "counterparts; batched puts absorb page groups at <= 1 read "
               "+ 1 omega-write each.\n";
  return ok ? 0 : 1;
}
catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
