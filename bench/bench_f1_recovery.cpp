// F1 — crash-consistent store builds and degraded serving (store/kv_store
// manifest discipline + core/faults crash points + core/sharding outage
// windows; MODEL.md section 15).
//
// Three sections:
//
//  * crash sweep      — omega {1, 8, 64} x index {fence, compact} x crash
//                       point {2%, 35%, 75%, 100%} of the uncrashed build's
//                       write count.  Each cell builds an uncrashed durable
//                       reference, repeats the build on a machine armed
//                       with AEM-style "power cut after N charged writes"
//                       (FaultConfig::crash_after_writes), catches the
//                       CrashError, runs KvStore::recover(), and checks the
//                       result against the reference.
//  * checkpoint cost  — durable vs non-durable builds of the same store at
//                       manifest intervals {2, 8}: what the crash insurance
//                       costs in charged writes and Q when nothing crashes.
//  * degraded serving — the same store on a ShardedMachine (D=4) with one
//                       device down for a 120-op window mid-build: reads
//                       wait out the window (charged backoff polls), writes
//                       queue and drain on recovery, and the run must end
//                       with the same served results as the outage-free run.
//
// PASS criteria (hard guards, exit 1 on violation):
//  * every crash cell recovers to a store whose log and payload arrays are
//    BYTE-IDENTICAL to the uncrashed reference (and serves identically);
//  * the recovery write bill is honest and bounded: total writes of the
//    crashed-then-recovered run exceed the uncrashed run by at most
//    2 x (crash point - write clock at the last committed manifest) plus a
//    fixed manifest slack;
//  * a 2% crash point recovers by restart, a 100% one by reindex only, and
//    the sweep exercises resume as well;
//  * the metrics reliability section is live: 1 crash, 1 recovery scan,
//    and the recovery bill of the report (at least one read);
//  * unarmed durable builds serve identically to non-durable ones, with
//    checkpoint overhead under 2x in Q;
//  * degraded serving: identical results, identical charged writes, reads
//    exceed the outage-free run by exactly the charged backoff polls, and
//    every queued write drains by the end.
#include <algorithm>
#include <iostream>
#include <optional>
#include <string>
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
using store::RecoveryReport;
using store::Slot;
using store::StoreConfig;

constexpr std::size_t kM = 4096;
constexpr std::size_t kB = 16;
constexpr std::size_t kRecords = 2048;
constexpr std::size_t kInterval = 4;  // manifest checkpoint, in log pages

struct Cell {
  std::uint64_t omega;
  IndexKind index;
  std::uint64_t pct;  // crash point as % of the uncrashed build's writes
};

StoreConfig durable_cfg(IndexKind index, std::size_t interval = kInterval) {
  StoreConfig cfg;
  cfg.index = index;
  cfg.compact_extra_bits = 8;
  cfg.manifest_interval = interval;
  return cfg;
}

std::vector<std::optional<std::vector<std::uint64_t>>> serve(
    KvStore& kv, const std::vector<std::uint64_t>& keys) {
  std::vector<std::optional<std::vector<std::uint64_t>>> out;
  out.reserve(keys.size());
  for (std::uint64_t k : keys) out.push_back(kv.get(k));
  return out;
}

struct CellResult {
  RecoveryReport::Outcome outcome = RecoveryReport::Outcome::kRestarted;
  bool crashed = false;
  bool identical = false;       // log + payload bytes match the reference
  bool serves_equal = false;    // sampled gets match the reference
  bool metrics_live = false;    // reliability section reflects the episode
  std::uint64_t crash_at = 0;   // armed crash point (charged writes)
  std::uint64_t ckpt_writes = 0;
  std::uint64_t extra_writes = 0;
  std::uint64_t bound = 0;
  std::uint64_t rec_reads = 0;
  std::uint64_t rec_writes = 0;
};

CellResult run_cell(const StoreWorkload& w, const Cell& c,
                    harness::PointContext& ctx) {
  CellResult r;

  // Uncrashed durable reference.
  Machine ref(make_config(kM, kB, c.omega));
  ExtArray<Slot> ref_slots;
  ExtArray<std::uint64_t> ref_payload;
  stage(ref, w, ref_slots, ref_payload);
  KvStore ref_kv(ref, durable_cfg(c.index));
  ref_kv.build(ref_slots, ref_payload);
  const std::uint64_t ref_writes = ref.stats().writes;

  // The same build under a power cut after pct% of those writes.
  Machine mach(make_config(kM, kB, c.omega));
  FaultConfig fc;
  fc.crash_after_writes = std::max<std::uint64_t>(1, ref_writes * c.pct / 100);
  mach.install_faults(fc);
  r.crash_at = fc.crash_after_writes;

  ExtArray<Slot> slots;
  ExtArray<std::uint64_t> payload;
  stage(mach, w, slots, payload);
  KvStore kv(mach, durable_cfg(c.index));
  try {
    kv.build(slots, payload);
  } catch (const CrashError&) {
    r.crashed = true;
  }
  if (!r.crashed) return r;

  const RecoveryReport rep = kv.recover(slots, payload);
  r.outcome = rep.outcome;
  r.ckpt_writes = rep.writes_at_checkpoint;
  r.rec_reads = rep.reads;
  r.rec_writes = rep.writes;

  // Honest-bill bound: the crashed run may redo at most the work between
  // the surviving checkpoint and the cut, twice over (redone writes plus
  // their checkpoint commits), plus the manifest slots and partial-block
  // resyncs of recovery itself.
  r.extra_writes = mach.stats().writes - ref_writes;
  const std::uint64_t redone = r.crash_at - rep.writes_at_checkpoint;
  r.bound = 2 * redone + kv.manifest_blocks() + 8;

  r.identical = kv.log_array().unsafe_host_view() ==
                    ref_kv.log_array().unsafe_host_view() &&
                kv.payload_array().unsafe_host_view() ==
                    ref_kv.payload_array().unsafe_host_view() &&
                kv.records() == ref_kv.records() &&
                kv.payload_words() == ref_kv.payload_words() &&
                kv.index_bits() == ref_kv.index_bits();

  std::vector<std::uint64_t> probe;
  util::Rng& rng = ctx.rng();
  for (std::size_t t = 0; t < 64; ++t)
    probe.push_back(t % 2 == 0 ? w.keys[rng.below(w.keys.size())]
                               : (rng.next() | 1));
  r.serves_equal = serve(kv, probe) == serve(ref_kv, probe);

  const std::string label = "F1 omega=" + std::to_string(c.omega) +
                            " index=" + to_string(c.index) +
                            " crash_pct=" + std::to_string(c.pct);
  MetricsSnapshot snap = snapshot_metrics(mach, label);
  snap.store = kv.metrics_section();
  r.metrics_live = snap.reliability.enabled && snap.reliability.crashes == 1 &&
                   snap.reliability.crash_after_writes == r.crash_at &&
                   snap.reliability.recovery.scans == 1 &&
                   snap.reliability.recovery.reads > 0 &&
                   snap.reliability.recovery.reads == rep.reads &&
                   snap.reliability.recovery.writes == rep.writes &&
                   snap.reliability.recovery.cost == rep.cost;
  ctx.snapshot(std::move(snap));

  ctx.row({util::fmt(c.omega), to_string(c.index), util::fmt(c.pct),
           util::fmt(r.crash_at), to_string(r.outcome),
           util::fmt(r.ckpt_writes), util::fmt(r.extra_writes),
           util::fmt(r.bound), util::fmt(r.rec_reads),
           util::fmt(r.rec_writes), r.identical ? "yes" : "NO"});
  return r;
}

}  // namespace

int main(int argc, char** argv) try {
  util::Cli cli(argc, argv);
  const BenchIo io = bench_io(cli, 29);

  banner("F1",
         "crash-consistent store builds: power cut after N charged writes, "
         "manifest recovery at a bounded write bill, and outage-degraded "
         "serving");

  const StoreWorkload w =
      make_store_workload(kRecords, io.seed * 1000003 + kRecords, kB);

  const std::uint64_t omegas[] = {1, 8, 64};
  const IndexKind kinds[] = {IndexKind::kFence, IndexKind::kCompact};
  const std::uint64_t pcts[] = {2, 35, 75, 100};
  std::vector<Cell> cells;
  for (std::uint64_t omega : omegas)
    for (IndexKind k : kinds)
      for (std::uint64_t pct : pcts) cells.push_back({omega, k, pct});

  util::Table t({"omega", "index", "crash%", "crash_at", "outcome", "ckpt_W",
                 "extra_W", "bound", "rec_R", "rec_W", "identical"});
  std::vector<CellResult> results(cells.size());
  replay(harness::run_sweep(cells.size(), io.sweep,
                            [&](harness::PointContext& ctx) {
                              results[ctx.index()] =
                                  run_cell(w, cells[ctx.index()], ctx);
                            }),
         &t, io.metrics);
  emit(t, "F1 crash sweep (records=" + util::fmt(std::uint64_t(kRecords)) +
              ", B=" + util::fmt(std::uint64_t(kB)) + ", manifest every " +
              util::fmt(std::uint64_t(kInterval)) +
              " pages): recovery outcome and write bill:",
       io.csv);

  bool ok = true;
  bool saw_resumed = false;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    const CellResult& r = results[i];
    const std::string tag = "omega=" + std::to_string(c.omega) +
                            " index=" + to_string(c.index) +
                            " crash%=" + std::to_string(c.pct);
    if (!r.crashed) {
      std::cerr << "FAIL: " << tag << ": armed crash point never fired\n";
      ok = false;
      continue;
    }
    if (!r.identical) {
      std::cerr << "FAIL: " << tag << ": recovered store is not "
                << "byte-identical to the uncrashed build\n";
      ok = false;
    }
    if (!r.serves_equal) {
      std::cerr << "FAIL: " << tag << ": recovered store served different "
                << "results\n";
      ok = false;
    }
    if (!r.metrics_live) {
      std::cerr << "FAIL: " << tag << ": reliability metrics section does "
                << "not reflect the crash/recovery episode\n";
      ok = false;
    }
    if (r.extra_writes > r.bound) {
      std::cerr << "FAIL: " << tag << ": recovery write bill " << r.extra_writes
                << " exceeds 2 x redone + slack = " << r.bound << "\n";
      ok = false;
    }
    if (c.pct == 2 && r.outcome != RecoveryReport::Outcome::kRestarted) {
      std::cerr << "FAIL: " << tag << ": a pre-checkpoint crash must restart "
                << "(got " << to_string(r.outcome) << ")\n";
      ok = false;
    }
    if (c.pct == 100 && r.outcome != RecoveryReport::Outcome::kReindexed) {
      std::cerr << "FAIL: " << tag << ": a post-commit crash must only "
                << "reindex (got " << to_string(r.outcome) << ")\n";
      ok = false;
    }
    if (r.outcome == RecoveryReport::Outcome::kResumed) saw_resumed = true;
  }
  if (!saw_resumed) {
    std::cerr << "FAIL: no cell exercised checkpoint resume\n";
    ok = false;
  }
  if (ok)
    std::cout << "crash-sweep guards: every cell recovered byte-identical "
                 "within the write-bill bound; restart/resume/reindex all "
                 "exercised; reliability metrics live\n\n";

  // --- checkpoint cost when nothing crashes --------------------------------
  {
    util::Table ct({"interval", "build_W", "build_Q", "commits", "overhead_Q"});
    std::uint64_t plain_cost = 0;
    std::vector<std::optional<std::vector<std::uint64_t>>> plain_out;
    util::Rng rng(io.seed + 7);
    std::vector<std::uint64_t> probe;
    for (std::size_t t = 0; t < 64; ++t)
      probe.push_back(w.keys[rng.below(w.keys.size())]);
    for (const std::size_t interval : {std::size_t{0}, std::size_t{2},
                                       std::size_t{8}}) {
      Machine mach(make_config(kM, kB, 8));
      ExtArray<Slot> slots;
      ExtArray<std::uint64_t> payload;
      stage(mach, w, slots, payload);
      KvStore kv(mach, durable_cfg(IndexKind::kFence, interval));
      kv.build(slots, payload);
      const auto out = serve(kv, probe);
      if (interval == 0) {
        plain_cost = kv.build_cost();
        plain_out = out;
      } else if (out != plain_out) {
        std::cerr << "FAIL: interval=" << interval
                  << ": durable store served different results\n";
        ok = false;
      }
      const double overhead =
          plain_cost == 0 ? 0.0
                          : static_cast<double>(kv.build_cost()) /
                                    static_cast<double>(plain_cost) -
                                1.0;
      ct.add_row({util::fmt(std::uint64_t(interval)),
                  util::fmt(kv.build_writes()), util::fmt(kv.build_cost()),
                  util::fmt(kv.manifest_commits()), util::fmt(overhead, 3)});
      emit_metrics(mach, "F1 checkpoint interval=" + std::to_string(interval),
                   io.metrics);
      if (interval != 0 && kv.build_cost() >= 2 * plain_cost) {
        std::cerr << "FAIL: interval=" << interval << ": checkpointing "
                  << "doubled the build cost (" << kv.build_cost() << " vs "
                  << plain_cost << ")\n";
        ok = false;
      }
    }
    emit(ct, "F1 checkpoint cost (fence, omega=8, uncrashed): durable-build "
             "overhead by manifest interval (0 = non-durable):",
         io.csv);
    if (ok)
      std::cout << "checkpoint-cost guards: unarmed durable builds serve "
                   "identically at < 2x build Q\n\n";
  }

  // --- degraded serving under a device outage ------------------------------
  {
    const auto shard_cfg = [&](std::vector<OutageSpec> outages) {
      ShardConfig sc;
      sc.frontend = make_config(kM, kB, 8);
      sc.devices.assign(4, make_config(kM, kB, 8));
      sc.placement = Placement::kRoundRobin;
      sc.outages = std::move(outages);
      return sc;
    };
    util::Rng rng(io.seed + 13);
    std::vector<std::uint64_t> probe;
    for (std::size_t t = 0; t < 128; ++t)
      probe.push_back(w.keys[rng.below(w.keys.size())]);

    const auto run = [&](ShardedMachine& mach) {
      ExtArray<Slot> slots;
      ExtArray<std::uint64_t> payload;
      stage(mach, w, slots, payload);
      KvStore kv(mach, durable_cfg(IndexKind::kFence));
      kv.build(slots, payload);
      auto out = serve(kv, probe);
      mach.drain_recovered();
      return out;
    };

    ShardedMachine calm(shard_cfg({}));
    const auto calm_out = run(calm);

    // One device goes dark for a 120-op window in the middle of the build.
    const std::uint64_t down_at = calm.op_clock() / 4;
    const std::uint64_t up_at = down_at + 120;
    ShardedMachine dark(shard_cfg({OutageSpec{1, down_at, up_at}}));
    const auto dark_out = run(dark);

    const OutageStats& ost = dark.outage_stats(1);
    util::Table ot({"machine", "reads", "writes", "wait_rounds", "backoff_R",
                    "queued_W", "drained_W"});
    ot.add_row({"calm", util::fmt(calm.stats().reads),
                util::fmt(calm.stats().writes), "0", "0", "0", "0"});
    ot.add_row({"dev1 down [" + util::fmt(down_at) + "," + util::fmt(up_at) +
                    ")",
                util::fmt(dark.stats().reads), util::fmt(dark.stats().writes),
                util::fmt(ost.wait_rounds), util::fmt(ost.backoff_ios),
                util::fmt(ost.queued_writes), util::fmt(ost.drained_writes)});
    emit(ot, "F1 degraded serving (fence, D=4 round-robin, dev1 outage "
             "mid-build): waiting reads and deferred writes:",
         io.csv);
    emit_metrics(dark, "F1 outage D=4 dev1", io.metrics);

    if (dark_out != calm_out) {
      std::cerr << "FAIL: outage run served different results\n";
      ok = false;
    }
    if (dark.stats().writes != calm.stats().writes) {
      std::cerr << "FAIL: outage run changed the charged write count ("
                << dark.stats().writes << " vs " << calm.stats().writes
                << ")\n";
      ok = false;
    }
    if (dark.stats().reads != calm.stats().reads + ost.backoff_ios) {
      std::cerr << "FAIL: outage run's extra reads (" << dark.stats().reads
                << " vs " << calm.stats().reads << ") are not exactly the "
                << "charged backoff polls (" << ost.backoff_ios << ")\n";
      ok = false;
    }
    if (ost.wait_rounds == 0 || ost.queued_writes == 0) {
      std::cerr << "FAIL: the outage window was never hit (wait_rounds="
                << ost.wait_rounds << ", queued=" << ost.queued_writes
                << ")\n";
      ok = false;
    }
    if (ost.drained_writes != ost.queued_writes ||
        dark.pending_writes(1) != 0) {
      std::cerr << "FAIL: " << dark.pending_writes(1) << " deferred writes "
                << "never drained (queued " << ost.queued_writes
                << ", drained " << ost.drained_writes << ")\n";
      ok = false;
    }
    if (dark.devices_stats().writes != dark.stats().writes) {
      std::cerr << "FAIL: device writes not conserved after the drain\n";
      ok = false;
    }
    if (ok)
      std::cout << "degraded-serving guards: identical results and writes; "
                   "extra reads = backoff polls (" << ost.backoff_ios
                << "); all " << ost.queued_writes
                << " deferred writes drained\n";
  }

  std::cout << "\nPASS criteria: byte-identical recovery within the "
               "2 x redone + slack write bound; restart/resume/reindex all "
               "exercised; unarmed durable builds < 2x Q; outage runs serve "
               "identically with reads inflated by exactly the charged "
               "backoff polls.\n";
  return ok ? 0 : 1;
}
catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
