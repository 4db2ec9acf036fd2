// K1 — external-memory KV object store (store/kv_store.hpp, MODEL.md
// section 14): construction cost, serving cost per get, and index size per
// log page for the two index flavors.
//
// Four sections:
//
//  * store sweep     — records {1k, 4k} x omega {1, 8, 64} x index {fence,
//                      compact} x cache capacity {0, 64}, every cell its
//                      own Machine through the parallel harness.  Columns:
//                      construction writes and Q, index bits per page,
//                      charged Q per get over a fixed hit/miss mix, and
//                      the log-read profile (avg / worst per get).
//  * inline-get      — the acceptance microbenchmark: an all-inline store
//                      under a fence index at cache capacity 0, where every
//                      get must cost at most 2 charged reads (it measures
//                      1: index lookup is host-side, the record is one log
//                      block).
//  * index shootout  — fence vs compact on the same log: the compact index
//                      must be strictly smaller in bits while keeping the
//                      average get at ~1 log read (quantization-collision
//                      walks are the rare exception, bounded here).
//  * sharded         — the same build + serve on a ShardedMachine (D=4,
//                      round-robin): facade counters and every get result
//                      must equal the plain machine's, and the sequential
//                      log/payload writes must stripe evenly (wear spread).
//
// PASS criteria (hard guards, exit 1 on violation):
//  * every fence get is exactly 1 log read; compact gets average <= 1.25
//    log reads with a bounded worst case (<= 4);
//  * inline-get: per-get charged read delta <= 2 at cache capacity 0;
//  * compact index strictly fewer bits than fence on every shared cell, at
//    the query-cost bound above;
//  * construction I/O is index-flavor-invariant (the index is built
//    host-side from one layout pass);
//  * a 64-block cache never makes serving dearer than cache-off;
//  * every cell builds with writes, a nonempty index, and serves gets;
//  * full scans visit every record;
//  * sharded: facade invariance, device conservation, wear spread <= 1.25.
#include <algorithm>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "store_workload.hpp"
#include "core/sharding.hpp"
#include "store/kv_store.hpp"

namespace {

using namespace aem;
using namespace aem::bench;
using store::IndexKind;
using store::KvStore;
using store::Slot;
using store::StoreConfig;

constexpr std::size_t kM = 4096;
constexpr std::size_t kB = 16;
constexpr std::size_t kGets = 256;  // per cell, alternating hit / miss

struct Cell {
  std::size_t records;
  std::uint64_t omega;
  IndexKind index;
  std::size_t cache_cap;
};

Config cell_config(const Cell& c) {
  Config cfg = make_config(kM, kB, c.omega);
  cfg.cache.capacity_blocks = c.cache_cap;
  return cfg;
}

struct CellResult {
  StoreMetrics sm;
  std::uint64_t get_cost = 0;   // charged Q across the get loop
  std::uint64_t get_reads = 0;  // charged reads across the get loop
  bool full_scan_ok = false;    // full scan visited every record
};

CellResult run_cell(const StoreWorkload& w, const Cell& c,
                    harness::PointContext& ctx) {
  Machine mach(cell_config(c));
  ExtArray<Slot> slots;
  ExtArray<std::uint64_t> payload;
  stage(mach, w, slots, payload);

  KvStore kv(mach, StoreConfig{c.index, 8});
  kv.build(slots, payload);

  // Serve: kGets point queries, alternating present key / absent (odd) key,
  // drawn from the point's private generator.
  util::Rng& rng = ctx.rng();
  const IoStats serve_before = mach.stats();
  const std::uint64_t cost_before = mach.cost();
  for (std::size_t t = 0; t < kGets; ++t) {
    const std::uint64_t key = (t % 2 == 0)
                                  ? w.keys[rng.below(w.keys.size())]
                                  : (rng.next() | 1);
    kv.get(key);
  }
  mach.flush_cache();
  CellResult r;
  r.get_cost = mach.cost() - cost_before;
  r.get_reads = mach.stats().reads - serve_before.reads;

  // Scans: one full pass plus one random window.
  const std::size_t full = kv.scan(0, ~0ull, [](auto, auto) {});
  r.full_scan_ok = full == kv.records();
  std::uint64_t lo = rng.next(), hi = rng.next();
  if (lo > hi) std::swap(lo, hi);
  kv.scan(lo, hi, [](auto, auto) {});
  mach.flush_cache();

  r.sm = kv.metrics_section();
  const std::string label =
      "K1 records=" + std::to_string(c.records) +
      " omega=" + std::to_string(c.omega) + " index=" + to_string(c.index) +
      " cache=" + std::to_string(c.cache_cap);
  MetricsSnapshot snap = snapshot_metrics(mach, label);
  snap.store = r.sm;
  ctx.snapshot(std::move(snap));

  ctx.row({util::fmt(std::uint64_t(c.records)), util::fmt(c.omega),
           to_string(c.index), util::fmt(std::uint64_t(c.cache_cap)),
           util::fmt(r.sm.build.writes), util::fmt(r.sm.build_cost),
           util::fmt(r.sm.index_bits_per_page, 2),
           util::fmt(static_cast<double>(r.get_cost) / kGets, 3),
           util::fmt(static_cast<double>(r.sm.stats.get_log_reads) / kGets, 3),
           util::fmt(r.sm.stats.max_get_log_reads), util::fmt(r.sm.stats.get_hits)});
  return r;
}

}  // namespace

int main(int argc, char** argv) try {
  util::Cli cli(argc, argv);
  const BenchIo io = bench_io(cli, 21);

  banner("K1",
         "external-memory KV store: construction writes, bits per page, and "
         "charged Q per get — fence vs Elias-Fano compact index");

  std::vector<std::size_t> record_sizes = {1024, 4096};
  if (io.full) record_sizes.push_back(16384);
  const std::uint64_t omegas[] = {1, 8, 64};
  const IndexKind kinds[] = {IndexKind::kFence, IndexKind::kCompact};
  const std::size_t caps[] = {0, 64};

  // One workload per records size, shared by every cell of that size.
  std::map<std::size_t, StoreWorkload> workloads;
  for (std::size_t n : record_sizes)
    workloads.emplace(n, make_store_workload(n, io.seed * 1000003 + n, kB));

  std::vector<Cell> cells;
  for (std::size_t n : record_sizes)
    for (std::uint64_t omega : omegas)
      for (IndexKind k : kinds)
        for (std::size_t cap : caps) cells.push_back({n, omega, k, cap});

  util::Table t({"records", "omega", "index", "cache", "build_W", "build_Q",
                 "bits/page", "Q/get", "log_reads/get", "max_log_reads",
                 "hits"});
  std::vector<CellResult> slots(cells.size());
  replay(harness::run_sweep(cells.size(), io.sweep,
                            [&](harness::PointContext& ctx) {
                              const Cell& c = cells[ctx.index()];
                              slots[ctx.index()] =
                                  run_cell(workloads.at(c.records), c, ctx);
                            }),
         &t, io.metrics);
  emit(t, "K1 store sweep (M=" + util::fmt(std::uint64_t(kM)) + ", B=" +
              util::fmt(std::uint64_t(kB)) + ", " +
              util::fmt(std::uint64_t(kGets)) +
              " gets/cell, alternating hit/miss): serving cost by index:",
       io.csv);

  bool ok = true;
  // Per-cell guards + the fence/compact pairing by (records, omega, cap).
  std::map<std::tuple<std::size_t, std::uint64_t, std::size_t>,
           std::pair<const CellResult*, const CellResult*>>
      pairs;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    const CellResult& r = slots[i];
    const std::string tag = "records=" + std::to_string(c.records) +
                            " omega=" + std::to_string(c.omega) +
                            " index=" + to_string(c.index) +
                            " cache=" + std::to_string(c.cache_cap);
    if (!r.full_scan_ok) {
      std::cerr << "FAIL: " << tag << ": full scan missed records\n";
      ok = false;
    }
    if (r.sm.build.writes == 0) {
      std::cerr << "FAIL: " << tag << ": construction reported zero writes\n";
      ok = false;
    }
    if (r.sm.stats.gets == 0 || r.sm.index_bits == 0) {
      std::cerr << "FAIL: " << tag << ": served no gets or built an empty "
                << "index\n";
      ok = false;
    }
    if (c.index == IndexKind::kFence && r.sm.stats.max_get_log_reads > 1) {
      std::cerr << "FAIL: " << tag << ": a fence get took "
                << r.sm.stats.max_get_log_reads << " log reads (bound: 1)\n";
      ok = false;
    }
    if (c.index == IndexKind::kCompact) {
      if (r.sm.stats.max_get_log_reads > 4) {
        std::cerr << "FAIL: " << tag << ": compact probe walk reached "
                  << r.sm.stats.max_get_log_reads << " log reads (bound: 4)\n";
        ok = false;
      }
      if (r.sm.stats.get_log_reads * 4 > r.sm.stats.gets * 5) {
        std::cerr << "FAIL: " << tag << ": compact gets average "
                  << static_cast<double>(r.sm.stats.get_log_reads) / r.sm.stats.gets
                  << " log reads (bound: 1.25)\n";
        ok = false;
      }
    }
    auto& slot = pairs[{c.records, c.omega, c.cache_cap}];
    (c.index == IndexKind::kFence ? slot.first : slot.second) = &r;
  }
  for (const auto& [key, pr] : pairs) {
    const auto& [fence, compact] = pr;
    const std::string tag =
        "records=" + std::to_string(std::get<0>(key)) +
        " omega=" + std::to_string(std::get<1>(key)) +
        " cache=" + std::to_string(std::get<2>(key));
    if (compact->sm.index_bits >= fence->sm.index_bits) {
      std::cerr << "FAIL: " << tag << ": compact index ("
                << compact->sm.index_bits << " bits) not smaller than fence ("
                << fence->sm.index_bits << " bits)\n";
      ok = false;
    }
    if (compact->sm.build.reads != fence->sm.build.reads ||
        compact->sm.build.writes != fence->sm.build.writes) {
      std::cerr << "FAIL: " << tag << ": construction I/O depends on the "
                << "index flavor (host-side index build must be I/O-free)\n";
      ok = false;
    }
  }
  // The cache can only help a read-only serving phase.
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    if (c.cache_cap == 0) continue;
    for (std::size_t j = 0; j < cells.size(); ++j) {
      const Cell& o = cells[j];
      if (o.cache_cap == 0 && o.records == c.records && o.omega == c.omega &&
          o.index == c.index && slots[i].get_cost > slots[j].get_cost) {
        std::cerr << "FAIL: records=" << c.records << " omega=" << c.omega
                  << " index=" << to_string(c.index) << ": cache=64 serving Q "
                  << slots[i].get_cost << " exceeds cache-off "
                  << slots[j].get_cost << "\n";
        ok = false;
      }
    }
  }
  if (ok)
    std::cout << "store-sweep guards: fence gets = 1 log read, compact <= "
                 "1.25 avg / 4 worst; compact strictly smaller on every "
                 "cell; construction flavor-invariant; cache never dearer; "
                 "scans complete\n\n";

  // --- inline-get acceptance microbenchmark --------------------------------
  {
    const std::size_t n = 2048;
    util::Rng rng(io.seed + 77);
    StoreWorkload w;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t key = rng.next() & ~1ull;
      w.keys.push_back(key);
      w.slots.push_back(Slot{key, 1, rng.next()});
    }
    Machine mach(make_config(kM, kB, 8));  // cache capacity 0: every read bills
    ExtArray<Slot> slots_arr;
    ExtArray<std::uint64_t> payload_arr;
    stage(mach, w, slots_arr, payload_arr);
    KvStore kv(mach, StoreConfig{IndexKind::kFence, 8});
    kv.build(slots_arr, payload_arr);

    std::uint64_t worst = 0;
    for (std::size_t t = 0; t < 256; ++t) {
      const std::uint64_t key = w.keys[rng.below(w.keys.size())];
      const std::uint64_t before = mach.stats().reads;
      kv.get(key);
      worst = std::max(worst, mach.stats().reads - before);
    }
    util::Table it({"records", "index", "cache", "gets", "worst_reads/get"});
    it.add_row({util::fmt(std::uint64_t(n)), "fence", "0", "256",
                util::fmt(worst)});
    emit(it, "K1 inline-value store (fence index, no cache): charged reads "
             "per get:",
         io.csv);
    emit_metrics(mach, "K1 inline fence cache=0", io.metrics);
    if (worst > 2) {
      std::cerr << "FAIL: inline-get: a get cost " << worst
                << " charged reads at cache capacity 0 (bound: 2)\n";
      ok = false;
    } else {
      std::cout << "inline-get guard: worst get = " << worst
                << " charged read(s), within the 2-read bound\n\n";
    }
  }

  // --- sharded build + serve ----------------------------------------------
  {
    const StoreWorkload& w = workloads.at(record_sizes.front());
    auto serve = [&](Machine& mach, KvStore& kv,
                     std::vector<std::optional<std::vector<std::uint64_t>>>&
                         out) {
      ExtArray<Slot> slots_arr;
      ExtArray<std::uint64_t> payload_arr;
      stage(mach, w, slots_arr, payload_arr);
      kv.build(slots_arr, payload_arr);
      util::Rng rng(io.seed + 99);
      for (std::size_t t = 0; t < 128; ++t)
        out.push_back(kv.get(w.keys[rng.below(w.keys.size())]));
    };

    Machine plain(make_config(kM, kB, 8));
    KvStore pkv(plain, StoreConfig{IndexKind::kFence, 8});
    std::vector<std::optional<std::vector<std::uint64_t>>> plain_out;
    serve(plain, pkv, plain_out);

    ShardConfig sc;
    sc.frontend = make_config(kM, kB, 8);
    sc.devices.assign(4, make_config(kM, kB, 8));
    sc.placement = Placement::kRoundRobin;
    ShardedMachine sharded(sc);
    KvStore skv(sharded, StoreConfig{IndexKind::kFence, 8});
    std::vector<std::optional<std::vector<std::uint64_t>>> shard_out;
    serve(sharded, skv, shard_out);

    util::Table st({"machine", "reads", "writes", "Q", "wear_spread"});
    st.add_row({"plain", util::fmt(plain.stats().reads),
                util::fmt(plain.stats().writes), util::fmt(plain.cost()),
                "-"});
    st.add_row({"sharded D=4", util::fmt(sharded.stats().reads),
                util::fmt(sharded.stats().writes), util::fmt(sharded.cost()),
                util::fmt(sharded.wear_spread(), 3)});
    emit(st, "K1 sharded serving (fence, round-robin, D=4): facade vs plain:",
         io.csv);
    MetricsSnapshot snap =
        snapshot_metrics(sharded, "K1 sharded fence D=4 omega=8");
    snap.store = skv.metrics_section();
    append_metrics(snap, io.metrics);

    if (!(plain.stats() == sharded.stats()) || plain.cost() != sharded.cost() ||
        plain_out != shard_out || !(pkv.stats() == skv.stats())) {
      std::cerr << "FAIL: sharded store diverged from the plain machine "
                << "(Q " << sharded.cost() << " vs " << plain.cost() << ")\n";
      ok = false;
    }
    if (!(sharded.devices_stats() == sharded.stats())) {
      std::cerr << "FAIL: sharded store: device transfers not conserved\n";
      ok = false;
    }
    const double spread = sharded.wear_spread();
    if (spread > 1.25) {
      std::cerr << "FAIL: sharded store: wear spread " << util::fmt(spread, 3)
                << " above the 1.25 ceiling (sequential log writes must "
                << "stripe evenly)\n";
      ok = false;
    }
    if (ok)
      std::cout << "sharded guard: facade counters, get results, and device "
                   "conservation hold; wear spread "
                << util::fmt(spread, 3) << " <= 1.25\n";
  }

  std::cout << "\nPASS criteria: fence gets = 1 log read; inline gets <= 2 "
               "charged reads at cache 0; compact index strictly smaller at "
               "<= 1.25 avg log reads; construction flavor-invariant; cache "
               "never dearer; full scans complete; sharded facade invariance "
               "with even wear.\n";
  return ok ? 0 : 1;
}
catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
