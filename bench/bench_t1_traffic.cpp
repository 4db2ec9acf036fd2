// T1 — deterministic request-stream serving (traffic/engine.hpp, MODEL.md
// section 16): per-request charged-Q percentiles, placement-invariant
// frontend cost vs placement-DEPENDENT device load, and SLO admission
// control over a skewed open-loop stream.
//
// Three sections:
//
//  * traffic sweep      — dist {zipf, hotset} (+uniform under --full) x
//                         write mix {read-only, 50% puts} x placement
//                         {round-robin, range} x cache policy {lru,
//                         clean-first}, every cell its own ShardedMachine
//                         (D=4, omega=16) through the parallel harness.
//                         Columns: served Q, requests per 1000 Q, the
//                         p50/p99/p999/max/mean of per-request charged Q,
//                         device-load imbalance, and the wear-out horizon.
//                         The stream seed depends only on (dist, mix), so
//                         placement/policy cells serve the byte-identical
//                         request sequence.
//  * admission control  — a per-window Q budget on a plain machine: the
//                         engine rejects batches once a window's budget is
//                         spent (each rejection charging nothing), and an
//                         unbudgeted twin serves the whole stream.
//  * degraded serving   — the same stream against a calm array and one with
//                         a device outage window armed mid-stream: waiting
//                         reads charge backoff polls into the served tail.
//
// PASS criteria (hard guards, exit 1 on violation):
//  * served + rejected == generated on every cell; the unbudgeted sweep
//    rejects nothing;
//  * placement invariance: frontend engine counters and the whole
//    per-request Q histogram are byte-identical rr vs range on every
//    (dist, mix, policy) pair — placement moves cost between devices, never
//    into the stream;
//  * hot prefix: on every zipf pair, range placement's device-load
//    imbalance is STRICTLY worse than round-robin's;
//  * q percentiles are monotone (p50 <= p99 <= p999 <= max) and the wear
//    horizon is reported on every cell (endurance armed, wear tracked);
//  * admission control: the budgeted run rejects some batches and serves
//    the rest, identity intact; the unbudgeted twin rejects zero;
//  * degraded serving: the outage run charges at least the calm run's Q,
//    the surplus is exactly the charged backoff polls, and hit counts
//    match (rejections/waits never change WHAT is served).
#include <algorithm>
#include <iostream>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "bench_common.hpp"
#include "store_workload.hpp"
#include "core/sharding.hpp"
#include "store/kv_store.hpp"
#include "traffic/engine.hpp"

namespace {

using namespace aem;
using namespace aem::bench;
using store::IndexKind;
using store::KvStore;
using store::Slot;
using store::StoreConfig;
using traffic::EngineConfig;
using traffic::KeyDist;
using traffic::TrafficConfig;
using traffic::TrafficEngine;

constexpr std::size_t kM = 4096;
constexpr std::size_t kB = 16;
constexpr std::uint64_t kOmega = 16;
constexpr std::size_t kRecords = 2048;      // keys 0, 2, 4, ... (stride 2)
constexpr std::uint64_t kRequests = 2048;   // per sweep cell
constexpr std::uint64_t kEndurance = 100000;

struct Cell {
  KeyDist dist;
  double write_fraction;
  Placement placement;
  CachePolicy policy;
};

/// The served store: kRecords records at keys {0, 2, ..., 2*(kRecords-1)}
/// — the generator's slot * stride mapping lands every request on a present
/// key.  ~10% of values spill (2..8 words) so puts orphan payload words;
/// the rest are inline.  Deterministic in `seed` alone: every sweep cell
/// serves the identical store.
StoreWorkload make_workload(std::uint64_t seed) {
  util::Rng rng(seed);
  StoreWorkload w;
  w.slots.reserve(kRecords);
  for (std::size_t i = 0; i < kRecords; ++i) {
    Slot s;
    s.key = 2 * i;
    if (rng.below(100) < 10) {
      s.len = 2 + rng.below(7);
      s.pos = w.payload.size();
      for (std::uint64_t j = 0; j < s.len; ++j) w.payload.push_back(rng.next());
    } else {
      s.len = 1;
      s.pos = rng.next();
    }
    w.slots.push_back(s);
  }
  return w;
}

TrafficConfig stream_config(KeyDist dist, double write_fraction) {
  TrafficConfig tc;
  tc.requests = kRequests;
  tc.dist = dist;
  tc.zipf_theta = 0.99;
  tc.key_space = kRecords;
  tc.key_stride = 2;
  tc.write_fraction = write_fraction;
  tc.scan_fraction = 0.05;
  tc.scan_len = 8;
  tc.batch_size = 4;
  tc.hot_fraction = 0.1;
  tc.hot_weight = 0.9;
  tc.drift_every = 256;
  return tc;
}

/// The stream seed is a function of (dist, mix) ONLY — placement and cache
/// policy cells replay the byte-identical request sequence, which is what
/// the placement-invariance and imbalance guards compare.
std::uint64_t stream_seed(std::uint64_t base, const Cell& c) {
  return base * 1000003 +
         static_cast<std::uint64_t>(c.dist) * 16 +
         (c.write_fraction > 0.0 ? 1 : 0);
}

struct CellResult {
  traffic::EngineStats es;
  traffic::QHistogram hist;
  TrafficMetrics tm;
};

CellResult run_cell(const StoreWorkload& w, const Cell& c, std::uint64_t seed,
                    harness::PointContext& ctx) {
  ShardConfig sc;
  sc.frontend = make_config(kM, kB, kOmega);
  sc.frontend.cache.capacity_blocks = 16;
  sc.frontend.cache.policy = c.policy;
  sc.devices.assign(4, make_config(kM, kB, kOmega));
  sc.placement = c.placement;
  sc.range_chunk_blocks = 8;  // 128 log blocks / 8 = 16 chunks over D=4
  ShardedMachine mach(sc);
  mach.enable_device_wear_tracking();

  ExtArray<Slot> slots;
  ExtArray<std::uint64_t> payload;
  stage(mach, w, slots, payload);
  KvStore kv(mach, StoreConfig{IndexKind::kFence, 8});
  kv.build(slots, payload);
  mach.flush_cache();  // the build's write-backs are the build's, not ours

  EngineConfig ec;
  ec.traffic = stream_config(c.dist, c.write_fraction);
  ec.endurance = kEndurance;
  TrafficEngine eng(kv, mach, ec, stream_seed(seed, c));
  eng.run();

  CellResult r;
  r.es = eng.stats();
  r.hist = eng.histogram();
  r.tm = eng.metrics_section();

  const std::string label =
      "T1 dist=" + std::string(to_string(c.dist)) +
      " wmix=" + util::fmt(c.write_fraction, 2) +
      " placement=" + to_string(c.placement) +
      " policy=" + to_string(c.policy);
  MetricsSnapshot snap = snapshot_metrics(mach, label);
  snap.store = kv.metrics_section();
  snap.traffic = r.tm;
  ctx.snapshot(std::move(snap));

  ctx.row({to_string(c.dist), util::fmt(c.write_fraction, 2),
           to_string(c.placement), to_string(c.policy),
           util::fmt(r.es.cost), util::fmt(eng.throughput_mille()),
           util::fmt(r.tm.q_p50), util::fmt(r.tm.q_p99),
           util::fmt(r.tm.q_p999), util::fmt(r.tm.q_max),
           util::fmt(r.tm.q_mean, 2), util::fmt(r.tm.imbalance, 3),
           util::fmt(r.tm.wear_horizon)});
  return r;
}

}  // namespace

int main(int argc, char** argv) try {
  util::Cli cli(argc, argv);
  const BenchIo io = bench_io(cli, 29);

  banner("T1",
         "request-stream serving: per-request charged-Q percentiles, "
         "placement-invariant frontend cost vs device-load imbalance, and "
         "per-window SLO admission control");

  const StoreWorkload w = make_workload(io.seed * 7919 + 5);

  std::vector<KeyDist> dists = {KeyDist::kZipf, KeyDist::kHotSet};
  if (io.full) dists.push_back(KeyDist::kUniform);
  const double mixes[] = {0.0, 0.5};
  const Placement placements[] = {Placement::kRoundRobin, Placement::kRange};
  const CachePolicy policies[] = {CachePolicy::kLru, CachePolicy::kCleanFirst};

  std::vector<Cell> cells;
  for (KeyDist d : dists)
    for (double m : mixes)
      for (Placement p : placements)
        for (CachePolicy pol : policies) cells.push_back({d, m, p, pol});

  util::Table t({"dist", "wmix", "placement", "policy", "Q", "req/kQ", "p50",
                 "p99", "p999", "max", "mean", "imbalance", "horizon"});
  std::vector<CellResult> slots(cells.size());
  replay(harness::run_sweep(cells.size(), io.sweep,
                            [&](harness::PointContext& ctx) {
                              slots[ctx.index()] = run_cell(
                                  w, cells[ctx.index()], io.seed, ctx);
                            }),
         &t, io.metrics);
  emit(t, "T1 traffic sweep (D=4, omega=" + util::fmt(kOmega) + ", " +
              util::fmt(kRequests) + " requests/cell, cache 16 blocks): "
              "per-request charged Q by placement and policy:",
       io.csv);

  bool ok = true;
  // Per-cell identity + percentile monotonicity + wear horizon.
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    const CellResult& r = slots[i];
    const std::string tag = "dist=" + std::string(to_string(c.dist)) +
                            " wmix=" + util::fmt(c.write_fraction, 2) +
                            " placement=" + to_string(c.placement) +
                            " policy=" + to_string(c.policy);
    if (r.es.served + r.es.rejected != r.es.generated ||
        r.es.generated != kRequests || r.es.rejected != 0) {
      std::cerr << "FAIL: " << tag << ": served " << r.es.served
                << " + rejected " << r.es.rejected << " != generated "
                << r.es.generated << " (no budget: rejected must be 0)\n";
      ok = false;
    }
    if (r.tm.q_p50 > r.tm.q_p99 || r.tm.q_p99 > r.tm.q_p999 ||
        r.tm.q_p999 > r.tm.q_max) {
      std::cerr << "FAIL: " << tag << ": non-monotone percentiles p50="
                << r.tm.q_p50 << " p99=" << r.tm.q_p99 << " p999="
                << r.tm.q_p999 << " max=" << r.tm.q_max << "\n";
      ok = false;
    }
    if (r.tm.wear_horizon == 0) {
      std::cerr << "FAIL: " << tag << ": wear horizon unreported (endurance "
                << "armed and device wear tracked)\n";
      ok = false;
    }
  }

  // Placement invariance + the hot-prefix imbalance contrast, per
  // (dist, mix, policy) pair.
  std::map<std::tuple<int, int, int>,
           std::pair<const CellResult*, const CellResult*>>
      pairs;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    auto& slot = pairs[{static_cast<int>(c.dist),
                        c.write_fraction > 0.0 ? 1 : 0,
                        static_cast<int>(c.policy)}];
    (c.placement == Placement::kRoundRobin ? slot.first : slot.second) =
        &slots[i];
  }
  for (const auto& [key, pr] : pairs) {
    const auto& [rr, range] = pr;
    const std::string tag =
        "dist=" + std::string(to_string(static_cast<KeyDist>(
                      std::get<0>(key)))) +
        " wmix=" + std::to_string(std::get<1>(key)) +
        " policy=" + to_string(static_cast<CachePolicy>(std::get<2>(key)));
    if (!(rr->es == range->es) || !(rr->hist == range->hist)) {
      std::cerr << "FAIL: " << tag << ": frontend serving diverged between "
                << "placements (Q " << rr->es.cost << " vs " << range->es.cost
                << ") — placement may move cost between devices, never "
                << "change the stream's charged Q\n";
      ok = false;
    }
    if (static_cast<KeyDist>(std::get<0>(key)) == KeyDist::kZipf &&
        range->tm.imbalance <= rr->tm.imbalance) {
      std::cerr << "FAIL: " << tag << ": range imbalance "
                << util::fmt(range->tm.imbalance, 3)
                << " not strictly worse than round-robin "
                << util::fmt(rr->tm.imbalance, 3)
                << " under a zipf hot prefix\n";
      ok = false;
    }
  }
  if (ok)
    std::cout << "sweep guards: served+rejected==generated on every cell; "
                 "frontend counters and Q histogram placement-invariant; "
                 "range strictly worse than round-robin on zipf device "
                 "imbalance; percentiles monotone; wear horizon reported\n\n";

  // --- admission control ----------------------------------------------------
  {
    const auto serve = [&](std::uint64_t q_budget, std::uint64_t window) {
      Machine mach(make_config(kM, kB, kOmega));  // cache 0: every I/O bills
      ExtArray<Slot> slots_arr;
      ExtArray<std::uint64_t> payload_arr;
      stage(mach, w, slots_arr, payload_arr);
      KvStore kv(mach, StoreConfig{IndexKind::kFence, 8});
      kv.build(slots_arr, payload_arr);

      EngineConfig ec;
      ec.traffic = stream_config(KeyDist::kZipf, 0.25);
      ec.traffic.requests = 1024;
      ec.q_budget = q_budget;
      ec.window_requests = window;
      TrafficEngine eng(kv, mach, ec, io.seed * 1000003 + 777);
      eng.run();
      MetricsSnapshot snap = snapshot_metrics(
          mach, "T1 admission budget=" + util::fmt(q_budget) +
                    " window=" + util::fmt(window));
      snap.store = kv.metrics_section();
      snap.traffic = eng.metrics_section();
      append_metrics(snap, io.metrics);
      return std::pair<traffic::EngineStats, double>(eng.stats(),
                                                     eng.rejection_rate());
    };

    const auto [open, open_rate] = serve(0, 0);
    const std::uint64_t budget = 256;
    const auto [gated, gated_rate] = serve(budget, 256);

    util::Table at({"q_budget", "window", "generated", "served", "rejected",
                    "reject_rate", "windows", "Q"});
    at.add_row({"off", "-", util::fmt(open.generated), util::fmt(open.served),
                util::fmt(open.rejected), util::fmt(open_rate, 3),
                util::fmt(open.windows), util::fmt(open.cost)});
    at.add_row({util::fmt(budget), "256", util::fmt(gated.generated),
                util::fmt(gated.served), util::fmt(gated.rejected),
                util::fmt(gated_rate, 3), util::fmt(gated.windows),
                util::fmt(gated.cost)});
    emit(at, "T1 admission control (plain machine, zipf 25% puts, 1024 "
             "requests): per-window Q budget vs open serving:",
         io.csv);

    if (open.rejected != 0 || open.served != open.generated) {
      std::cerr << "FAIL: admission: the unbudgeted run rejected "
                << open.rejected << " of " << open.generated << "\n";
      ok = false;
    }
    if (gated.rejected == 0 || gated.served == 0 ||
        gated.served + gated.rejected != gated.generated) {
      std::cerr << "FAIL: admission: budget=" << budget << " served "
                << gated.served << " rejected " << gated.rejected
                << " of " << gated.generated
                << " (expect both nonzero, identity intact)\n";
      ok = false;
    }
    if (gated.cost >= open.cost) {
      std::cerr << "FAIL: admission: the gated run charged " << gated.cost
                << " Q, not less than the open run's " << open.cost
                << " (rejected batches must charge nothing)\n";
      ok = false;
    }
    if (ok)
      std::cout << "admission guards: open run serves everything; budget="
                << budget << "/window rejects " << gated.rejected
                << " requests (rate " << util::fmt(gated_rate, 3)
                << ") and charges " << gated.cost << " < " << open.cost
                << " Q\n\n";
  }

  // --- degraded serving under a device outage -------------------------------
  {
    const auto run = [&](std::vector<OutageSpec> outages,
                         std::uint64_t* clock_after_build) {
      ShardConfig sc;
      sc.frontend = make_config(kM, kB, kOmega);
      sc.devices.assign(4, make_config(kM, kB, kOmega));
      sc.placement = Placement::kRoundRobin;
      sc.outages = std::move(outages);
      auto mach = std::make_unique<ShardedMachine>(sc);
      ExtArray<Slot> slots_arr;
      ExtArray<std::uint64_t> payload_arr;
      stage(*mach, w, slots_arr, payload_arr);
      auto kv = std::make_unique<KvStore>(*mach, StoreConfig{IndexKind::kFence, 8});
      kv->build(slots_arr, payload_arr);
      if (clock_after_build != nullptr) *clock_after_build = mach->op_clock();

      EngineConfig ec;
      ec.traffic = stream_config(KeyDist::kZipf, 0.25);
      ec.traffic.requests = 512;
      TrafficEngine eng(*kv, *mach, ec, io.seed * 1000003 + 888);
      eng.run();
      mach->drain_recovered();
      return std::tuple<traffic::EngineStats, OutageStats, std::uint64_t>(
          eng.stats(), mach->outage_stats(1), mach->op_clock());
    };

    std::uint64_t build_clock = 0;
    const auto [calm, calm_ost, calm_clock] = run({}, &build_clock);
    // Device 1 goes dark for a 120-op window in the middle of the serving
    // phase (the build is already durable by then).  The window must stay
    // below the default outage-retry backoff budget (~191 polls) so a read
    // arriving right at down_at can still wait the outage out.
    const std::uint64_t down_at = (build_clock + calm_clock) / 2;
    const std::uint64_t up_at = down_at + 120;
    const auto [dark, dark_ost, dark_clock] =
        run({OutageSpec{1, down_at, up_at}}, nullptr);
    (void)calm_ost;
    (void)dark_clock;

    util::Table ot({"machine", "served", "Q", "wait_rounds", "backoff_R",
                    "queued_W", "drained_W"});
    ot.add_row({"calm", util::fmt(calm.served), util::fmt(calm.cost), "0", "0",
                "0", "0"});
    ot.add_row({"dev1 down [" + util::fmt(down_at) + "," + util::fmt(up_at) +
                    ")",
                util::fmt(dark.served), util::fmt(dark.cost),
                util::fmt(dark_ost.wait_rounds),
                util::fmt(dark_ost.backoff_ios),
                util::fmt(dark_ost.queued_writes),
                util::fmt(dark_ost.drained_writes)});
    emit(ot, "T1 degraded serving (D=4 round-robin, zipf 25% puts, dev1 "
             "outage mid-stream): backoff polls charged into the stream:",
         io.csv);

    if (dark_ost.wait_rounds == 0 || dark_ost.backoff_ios == 0) {
      std::cerr << "FAIL: degraded: the outage window was never hit "
                << "(wait_rounds=" << dark_ost.wait_rounds << ")\n";
      ok = false;
    }
    if (dark.cost != calm.cost + dark_ost.backoff_ios) {
      std::cerr << "FAIL: degraded: outage Q " << dark.cost
                << " != calm Q " << calm.cost << " + backoff polls "
                << dark_ost.backoff_ios << "\n";
      ok = false;
    }
    if (dark.get_hits != calm.get_hits || dark.put_hits != calm.put_hits ||
        dark.served != calm.served) {
      std::cerr << "FAIL: degraded: the outage changed WHAT was served "
                << "(hits " << dark.get_hits << "/" << dark.put_hits
                << " vs " << calm.get_hits << "/" << calm.put_hits << ")\n";
      ok = false;
    }
    if (ok)
      std::cout << "degraded-serving guards: identical served results; "
                   "outage Q = calm Q + " << dark_ost.backoff_ios
                << " charged backoff polls\n";
  }

  std::cout << "\nPASS criteria: served+rejected==generated everywhere; "
               "frontend Q placement-invariant while zipf device imbalance "
               "is strictly worse under range placement; monotone Q "
               "percentiles with a reported wear horizon; budgeted windows "
               "reject (charging nothing) where open serving pays; outage "
               "surplus = charged backoff polls.\n";
  return ok ? 0 : 1;
}
catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
