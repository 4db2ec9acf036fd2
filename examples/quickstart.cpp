// Quickstart: sort an array on a simulated NVM-style asymmetric memory and
// see where the cost goes.
//
//   ./quickstart [--n=65536] [--memory=1024] [--block=16] [--omega=8]
//                [--metrics=snapshot.json]
//
// Walks through the core API: configure an (M,B,omega)-AEM machine, stage
// an input array, run the paper's omega-aware mergesort, and read back the
// I/O counters, the per-phase attribution, and the distance to the
// theoretical bound.  Then the same sort on a fault-injected device (what
// the recovery layer's retries cost in Q), behind a buffer pool, and
// finally a KV store serving a budgeted Zipf request stream through a
// TrafficEngine.
#include <fstream>
#include <iostream>
#include <span>
#include <vector>

#include "bounds/sort_bounds.hpp"
#include "core/ext_array.hpp"
#include "core/faults.hpp"
#include "core/machine.hpp"
#include "core/metrics.hpp"
#include "sort/mergesort.hpp"
#include "store/kv_store.hpp"
#include "traffic/engine.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) try {
  using namespace aem;
  util::Cli cli(argc, argv);
  const std::size_t N = cli.u64("n", 1 << 16);
  const std::size_t M = cli.u64("memory", 1024);
  const std::size_t B = cli.u64("block", 16);
  const std::uint64_t omega = cli.u64("omega", 8);
  const std::string metrics_path = cli.str("metrics", "");
  cli.reject_unknown_flags();

  // 1. An (M,B,omega)-AEM machine: M elements of fast symmetric memory,
  //    block transfers of B elements, writes omega times pricier than reads.
  Config cfg;
  cfg.memory_elems = M;
  cfg.block_elems = B;
  cfg.write_cost = omega;
  Machine mach(cfg);
  std::cout << "machine: M=" << M << " elements, B=" << B
            << " elements/block, omega=" << omega << " (m=" << mach.m()
            << " blocks of memory)\n";

  // 2. Stage the input.  Staging is uncharged — the input living in
  //    external memory is the problem statement, not part of the cost.
  util::Rng rng(42);
  ExtArray<std::uint64_t> input(mach, N, "input");
  input.unsafe_host_fill(util::random_keys(N, rng));
  ExtArray<std::uint64_t> output(mach, N, "output");

  // 3. Sort with the paper's Section 3 mergesort (d = omega*m way, valid
  //    for ANY omega — no omega < B assumption).
  aem_merge_sort(input, output);

  // 4. Inspect the costs.
  const IoStats s = mach.stats();
  std::cout << "\nsorted " << N << " elements:\n"
            << "  reads  : " << s.reads << " block I/Os\n"
            << "  writes : " << s.writes << " block I/Os (x" << omega
            << " cost)\n"
            << "  Q      : " << mach.cost() << "  (Q = reads + omega*writes)\n"
            << "  peak internal memory: " << mach.ledger().high_water()
            << " / " << M << " elements\n";

  std::cout << "\nper-phase attribution:\n";
  for (const auto& [phase, stats] : mach.phase_stats())
    std::cout << "  " << phase << ": " << to_string(stats) << "\n";

  // Machine-readable form of everything above: one JSON snapshot in the
  // same schema as the bench --metrics output (MetricsSnapshot::kSchema).
  if (!metrics_path.empty()) {
    std::ofstream os(metrics_path);
    write_json(os, snapshot_metrics(mach, "quickstart"));
    os << "\n";
    std::cout << "\nmetrics snapshot written to " << metrics_path << "\n";
  }

  bounds::AemParams p{.N = N, .M = M, .B = B, .omega = omega};
  const double bound = bounds::aem_sort_upper_bound(p);
  std::cout << "\ntheory: O(omega n log_{omega m} n) = " << bound
            << "  -> measured/bound = "
            << static_cast<double>(mach.cost()) / bound << "\n";

  // 5. Verify the result the cheap way (host-side, uncharged).
  const auto& view = output.unsafe_host_view();
  for (std::size_t i = 1; i < view.size(); ++i) {
    if (view[i - 1] > view[i]) {
      std::cerr << "FAIL: output not sorted at " << i << "\n";
      return 1;
    }
  }
  std::cout << "output verified sorted.\n";

  // 6. The same sort on a FAULTY device.  Real NVM is why writes cost
  //    omega: cells wear out, writes tear or silently corrupt.  Installing
  //    a FaultPolicy turns those failure modes on (deterministically, from
  //    a seed); the ExtArray recovery layer — checked reads,
  //    verify-after-write, bounded retries — keeps the algorithm oblivious,
  //    and every extra read and omega-priced rewrite lands in Q.
  Machine faulty(cfg);
  FaultConfig fc;
  fc.seed = 7;
  fc.read_fault_rate = 0.01;
  fc.silent_write_rate = 0.005;
  fc.torn_write_rate = 0.005;
  fc.max_retries = 64;
  faulty.install_faults(fc);
  ExtArray<std::uint64_t> fin(faulty, N, "input");
  {
    util::Rng rng2(42);  // identical input
    fin.unsafe_host_fill(util::random_keys(N, rng2));
  }
  ExtArray<std::uint64_t> fout(faulty, N, "output");
  aem_merge_sort(fin, fout);

  const FaultStats& fs = faulty.faults()->stats();
  std::cout << "\nsame sort, 1% injected fault rate (seed " << fc.seed
            << "):\n"
            << "  Q      : " << faulty.cost() << "  (clean run: "
            << mach.cost() << ", overhead "
            << static_cast<double>(faulty.cost()) /
                   static_cast<double>(mach.cost())
            << "x)\n"
            << "  faults injected : " << fs.read_faults << " read, "
            << fs.silent_write_faults << " silent-write, "
            << fs.torn_write_faults << " torn-write\n"
            << "  recovery        : " << fs.read_retries << " read retries, "
            << fs.write_retries << " write retries, "
            << fs.verify_failures << " verify failures\n";
  for (std::size_t i = 1; i < fout.unsafe_host_view().size(); ++i) {
    if (fout.unsafe_host_view()[i - 1] > fout.unsafe_host_view()[i]) {
      std::cerr << "FAIL: faulty-device output not sorted at " << i << "\n";
      return 1;
    }
  }
  std::cout << "faulty-device output verified sorted — every retry paid "
               "for in Q.\n";

  // 7. The same sort WITH a device-side buffer pool.  A BlockCache absorbs
  //    repeat block traffic (hits are free) and coalesces rewrites into one
  //    omega-priced write-back at eviction or flush.  The clean-first
  //    policy is asymmetry-aware: it prefers evicting clean blocks (cost 1
  //    to read back) over dirty ones (cost omega to write back).  The
  //    measured protocol ends with flush_cache() so every dirty block is
  //    charged — see docs/MODEL.md section 11.
  Config ccfg = cfg;
  ccfg.cache.capacity_blocks = 64;
  ccfg.cache.policy = CachePolicy::kCleanFirst;
  Machine cached(ccfg);
  ExtArray<std::uint64_t> cin_(cached, N, "input");
  {
    util::Rng rng3(42);  // identical input again
    cin_.unsafe_host_fill(util::random_keys(N, rng3));
  }
  ExtArray<std::uint64_t> cout_(cached, N, "output");
  aem_merge_sort(cin_, cout_);
  cached.flush_cache();

  const CacheStats& cs = cached.cache()->stats();
  std::cout << "\nsame sort behind a " << ccfg.cache.capacity_blocks
            << "-block clean-first pool:\n"
            << "  Q      : " << cached.cost() << "  (uncached: " << mach.cost()
            << ", " << 100.0 * (1.0 - static_cast<double>(cached.cost()) /
                                          static_cast<double>(mach.cost()))
            << "% absorbed)\n"
            << "  hits   : " << cs.read_hits << " read, " << cs.write_hits
            << " write (free)\n"
            << "  write-backs: " << cs.write_backs << " vs " << s.writes
            << " uncached writes\n";
  if (cout_.unsafe_host_view() != output.unsafe_host_view()) {
    std::cerr << "FAIL: cached output differs from uncached output\n";
    return 1;
  }
  std::cout << "cached output identical to uncached output — the pool may "
               "only change Q, never results.\n";

  // 8. Serve a request stream.  Batch programs end with one total Q; a
  //    SERVING workload cares about the per-request distribution.  Build a
  //    small KV store over the sorted data, then drive a deterministic
  //    Zipf-skewed get/put stream through it with a TrafficEngine: every
  //    request's charged Q lands in a histogram (p50/p99/p999), and a
  //    per-window Q budget is admission control — rejected requests charge
  //    nothing.  See docs/MODEL.md section 16.
  Machine serving(cfg);
  {
    const std::size_t records = 1024;
    std::vector<store::Slot> slots;
    util::Rng rng4(42);
    for (std::size_t i = 0; i < records; ++i)
      slots.push_back(store::Slot{2 * i, 1, rng4.next()});
    ExtArray<store::Slot> sslots(serving, slots.size(), "input.slots");
    sslots.unsafe_host_fill(std::span<const store::Slot>(slots));
    ExtArray<std::uint64_t> nopay(serving, 0, "input.payload");
    store::KvStore kv(serving,
                      store::StoreConfig{store::IndexKind::kFence, 8});
    kv.build(sslots, nopay);

    traffic::EngineConfig ec;
    ec.traffic.requests = 2048;
    ec.traffic.dist = traffic::KeyDist::kZipf;
    ec.traffic.key_space = records;
    ec.traffic.key_stride = 2;       // every request hits a present key
    ec.traffic.write_fraction = 0.25;
    ec.traffic.batch_size = 4;
    ec.q_budget = 512;               // per-window charged-Q budget
    ec.window_requests = 512;
    traffic::TrafficEngine engine(kv, serving, ec, /*stream_seed=*/7);
    engine.run();

    const TrafficMetrics tm = engine.metrics_section();
    const traffic::EngineStats& es = tm.stats;
    std::cout << "\nserving a zipf request stream (25% puts, Q budget "
              << ec.q_budget << " per " << ec.window_requests
              << "-request window):\n"
              << "  served : " << es.served << " / " << es.generated
              << " requests (" << es.rejected << " rejected, rate "
              << tm.rejection_rate << ")\n"
              << "  Q      : " << es.cost << " charged ("
              << engine.throughput_mille() << " served per 1000 Q)\n"
              << "  per-request Q: p50=" << tm.q_p50 << " p99=" << tm.q_p99
              << " p999=" << tm.q_p999 << " max=" << tm.q_max << "\n";
    if (es.served + es.rejected != es.generated) {
      std::cerr << "FAIL: served + rejected != generated\n";
      return 1;
    }
    std::cout << "admission books balance: served + rejected == generated "
                 "— rejected batches charged nothing.\n";
  }
  return 0;
}
catch (const std::exception& e) {
  // CLI/env parse errors (and any other unhandled failure) exit with a
  // one-line diagnostic instead of an uncaught-exception abort.
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
