// TrafficEngine: drives a deterministic request stream through the full
// serving stack — KvStore -> BlockCache -> (Sharded)Machine -> FaultPolicy
// — measuring per-request charged Q and enforcing an SLO budget
// (traffic/engine.hpp; docs/MODEL.md section 16; measured by
// bench/bench_t1_traffic).
//
// The engine is OPEN-LOOP: requests arrive on a fixed schedule (the
// generated stream) regardless of how expensive earlier requests were.
// Each served request's cost is the CHARGED frontend Q delta around its
// store call — index lookups are host-side and free, cache hits charge
// nothing, backoff polls against a down device charge like any other read —
// recorded into a fixed-bucket QHistogram (p50/p99/p999 exact below Q=4096).
// Deferred cache write-backs are charged when they happen (eviction inside
// a later request, or the final flush), which is exactly how a write-back
// pool bills a real stream: the histogram prices what each request WAITED
// for.
//
// Admission control (EngineConfig::q_budget > 0): the stream is cut into
// windows of window_requests generated requests; once a window's served
// requests have spent q_budget of charged Q, run() rejects the window's
// remaining batches — each rejected batch charges NOTHING (the whole point
// of admission control is refusing work the budget cannot cover) and the
// next window starts fresh.  The invariant served + rejected == generated
// is the identity every consumer (metrics validation, bench guards)
// checks; rejected / generated is the SLO rejection rate.
//
// Determinism: request i is a pure function of (stream seed, i)
// (traffic/request_gen.hpp), the engine's control flow depends only on
// charged counters, and nothing here reads the wall clock — so a sweep of
// engines through harness::run_sweep is byte-identical for any --jobs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/machine.hpp"
#include "core/metrics.hpp"
#include "core/sharding.hpp"
#include "core/stats.hpp"
#include "store/kv_store.hpp"
#include "traffic/histogram.hpp"
#include "traffic/request_gen.hpp"

namespace aem::traffic {

struct EngineConfig {
  TrafficConfig traffic;

  /// Per-window charged-Q budget for admission control; 0 disables it
  /// (nothing is ever rejected).
  std::uint64_t q_budget = 0;

  /// Window length in GENERATED requests (admitted or not), so windows
  /// advance on the arrival schedule, not on the served count; 0 = the
  /// whole stream is one window.
  std::uint64_t window_requests = 0;

  /// Per-block endurance used by wear_horizon(); 0 leaves the horizon
  /// unreported.  Meaningful when the machine tracks wear (device wear on a
  /// ShardedMachine, Machine::enable_wear_tracking otherwise).
  std::uint64_t endurance = 0;
};

class TrafficEngine {
 public:
  /// Binds the engine to a BUILT store and the machine it lives on.
  /// Construction performs no I/O (TrafficEngineTest.IdleEngineChargesNothing
  /// holds it to that): it only records the per-device cost baseline
  /// imbalance() measures serving deltas against.
  TrafficEngine(store::KvStore& store, Machine& mach, EngineConfig cfg,
                std::uint64_t stream_seed)
      : store_(&store), mach_(&mach), cfg_(cfg), gen_(cfg.traffic, stream_seed) {
    sharded_ = dynamic_cast<ShardedMachine*>(&mach);
    if (sharded_ != nullptr)
      for (std::size_t d = 0; d < sharded_->device_count(); ++d)
        dev_cost_base_.push_back(sharded_->device(d).cost());
  }

  /// Serves (or rejects) the configured stream once.  One-shot: a second
  /// call throws.  A zero-request stream charges nothing and leaves the
  /// machine byte-identical.
  void run() {
    if (ran_) throw std::logic_error("TrafficEngine::run: already ran");
    ran_ = true;
    const std::uint64_t n = cfg_.traffic.requests;
    const std::uint64_t batch = cfg_.traffic.batch_size;
    const std::uint64_t window = cfg_.window_requests;
    const IoStats before = mach_->stats();
    const std::uint64_t cost_before = mach_->cost();
    stats_.generated = n;

    std::uint64_t cur_window = ~std::uint64_t{0};
    std::uint64_t i = 0;
    while (i < n) {
      const std::uint64_t w = window == 0 ? 0 : i / window;
      if (w != cur_window) {
        cur_window = w;
        window_spent_ = 0;
        ++stats_.windows;
      }
      // A batch never straddles a window: the admission decision belongs to
      // exactly one budget.
      std::uint64_t end = std::min(n, i + batch);
      if (window != 0) end = std::min(end, (w + 1) * window);
      // The admission gate: the window's served requests have spent the
      // budget.
      if (cfg_.q_budget != 0 && window_spent_ >= cfg_.q_budget) {
        stats_.rejected += end - i;
      } else {
        serve_batch(i, end);
      }
      i = end;
    }

    // Deferred write-backs belong to the stream that dirtied them, not to
    // whatever runs next.  A stream that served nothing flushed nothing.
    if (stats_.served != 0) mach_->flush_cache();
    stats_.io = mach_->stats() - before;
    stats_.cost = mach_->cost() - cost_before;
  }

  /// Run counters (EngineStats is declared in core/metrics.hpp).
  const EngineStats& stats() const { return stats_; }
  const QHistogram& histogram() const { return hist_; }
  const RequestGen& generator() const { return gen_; }

  /// rejected / generated — the SLO metric admission control trades tail
  /// latency for.  0 on an empty stream.
  double rejection_rate() const {
    return stats_.generated == 0
               ? 0.0
               : static_cast<double>(stats_.rejected) /
                     static_cast<double>(stats_.generated);
  }

  /// Served requests per 1000 charged Q — the deterministic throughput
  /// figure (wall clocks are banned from byte-identical tables).  0 when
  /// the run charged nothing.
  std::uint64_t throughput_mille() const {
    return stats_.cost == 0 ? 0 : stats_.served * 1000 / stats_.cost;
  }

  /// max/mean of per-device charged cost SINCE ENGINE CONSTRUCTION — the
  /// serving-load imbalance placement produced, excluding the build the
  /// baseline was taken after.  1.0 on a plain machine or when no device
  /// cost accrued; D when one device took everything.
  double imbalance() const {
    if (sharded_ == nullptr) return 1.0;
    std::uint64_t max_delta = 0;
    std::uint64_t sum = 0;
    for (std::size_t d = 0; d < sharded_->device_count(); ++d) {
      const std::uint64_t delta =
          sharded_->device(d).cost() - dev_cost_base_[d];
      max_delta = std::max(max_delta, delta);
      sum += delta;
    }
    if (sum == 0) return 1.0;
    return static_cast<double>(max_delta) *
           static_cast<double>(sharded_->device_count()) /
           static_cast<double>(sum);
  }

  /// How many times this stream's lifetime could replay before the hottest
  /// tracked block reaches EngineConfig::endurance: endurance / max
  /// per-block writes observed (device wear on a ShardedMachine, frontend
  /// wear otherwise; the count includes pre-engine wear such as the build).
  /// 0 when endurance is unset, wear tracking is off, or nothing was
  /// written.
  std::uint64_t wear_horizon() const {
    if (cfg_.endurance == 0) return 0;
    std::uint64_t max_writes = 0;
    if (sharded_ != nullptr) {
      for (std::size_t d = 0; d < sharded_->device_count(); ++d) {
        const Machine& dev = sharded_->device(d);
        if (dev.wear_tracking())
          max_writes = std::max(max_writes, dev.wear_stats().max_writes);
      }
    } else if (mach_->wear_tracking()) {
      max_writes = mach_->wear_stats().max_writes;
    }
    return max_writes == 0 ? 0 : cfg_.endurance / max_writes;
  }

  /// The metrics-snapshot `traffic` section.  Attach it to a
  /// snapshot taken from the same machine:
  ///   auto snap = snapshot_metrics(mach, label);
  ///   snap.traffic = engine.metrics_section();
  TrafficMetrics metrics_section() const {
    TrafficMetrics m;
    m.enabled = true;
    m.dist = to_string(cfg_.traffic.dist);
    m.stats = stats_;
    m.rejection_rate = rejection_rate();
    m.q_p50 = hist_.percentile(5000);
    m.q_p99 = hist_.percentile(9900);
    m.q_p999 = hist_.percentile(9990);
    m.q_max = hist_.max();
    m.q_mean = hist_.mean();
    m.imbalance = imbalance();
    m.wear_horizon = wear_horizon();
    m.q_budget = cfg_.q_budget;
    return m;
  }

 private:
  /// Serves the admitted requests [i, end) of one batch.  Each request's
  /// charged Q still comes from its own cost() delta (the histogram prices
  /// individual requests), but the window budget and served counter settle
  /// ONCE per batch — the per-request deltas telescope to the batch delta,
  /// so the accounting is numerically identical to per-request settlement
  /// at half the cost() polls (admission is decided between batches).
  void serve_batch(std::uint64_t i, std::uint64_t end) {
    const std::uint64_t count = end - i;
    std::uint64_t mark = mach_->cost();
    const std::uint64_t batch_cost_before = mark;
    for (; i < end; ++i) {
      dispatch(gen_.at(i));
      const std::uint64_t now = mach_->cost();
      hist_.record(now - mark);
      mark = now;
    }
    window_spent_ += mark - batch_cost_before;
    stats_.served += count;
  }

  void dispatch(const Request& r) {
    switch (r.op) {
      case OpKind::kGet:
        ++stats_.gets;
        if (store_->get(r.key)) ++stats_.get_hits;
        break;
      case OpKind::kPut:
        ++stats_.puts;
        if (store_->put_inline(r.key, r.value)) ++stats_.put_hits;
        break;
      case OpKind::kScan: {
        ++stats_.scans;
        const std::uint64_t span =
            r.scan_len * cfg_.traffic.key_stride - 1;
        const std::uint64_t hi =
            r.key > ~std::uint64_t{0} - span ? ~std::uint64_t{0}
                                             : r.key + span;
        store_->scan(r.key, hi, [](std::uint64_t, auto) {});
        break;
      }
    }
  }

  store::KvStore* store_;
  Machine* mach_;
  ShardedMachine* sharded_ = nullptr;
  EngineConfig cfg_;
  RequestGen gen_;
  std::vector<std::uint64_t> dev_cost_base_;

  bool ran_ = false;
  std::uint64_t window_spent_ = 0;
  EngineStats stats_;
  QHistogram hist_;
};

}  // namespace aem::traffic
