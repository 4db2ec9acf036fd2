#include "harness/parallel_sweep.hpp"

#include <atomic>
#include <cassert>
#include <exception>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/machine.hpp"

namespace aem::harness {

std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t index) {
  // The base seed goes through a full SplitMix64 avalanche BEFORE the index
  // is folded in.  A linear fold (`base ^ index * K`) admits structural
  // collisions under two's-complement wraparound — for odd K,
  //   (-n) ^ (n*K) == n ^ ((-n)*K)   whenever n*K is odd,
  // so e.g. derive_seed(-1, 1) == derive_seed(1, -1), which is exactly the
  // swapped-argument family seed_streams_independent() audits (a --seed near
  // 0 wraps into that range).  Mixing the base first destroys every such
  // XOR-linear identity; a second round then separates adjacent indices.
  // util::Rng re-expands the result through its own SplitMix64 seeding, so
  // even residual collisions across sweeps cannot correlate beyond the
  // first word.
  std::uint64_t state = base_seed;
  state = util::splitmix64(state) ^ index;
  return util::splitmix64(state);
}

bool seed_streams_independent(std::uint64_t base_seed, std::size_t points,
                              std::uint64_t base_radius) {
  // Map each derived seed back to the arguments that produced it; a repeat
  // from DIFFERENT arguments is a collision.  (The same (base, index) pair
  // reached twice — e.g. via the swapped family when base == index — is of
  // course the same stream, not a collision.)
  using Args = std::pair<std::uint64_t, std::uint64_t>;
  std::unordered_map<std::uint64_t, Args> seen;
  seen.reserve(points * (2 * static_cast<std::size_t>(base_radius) + 1) * 2);
  auto probe = [&](std::uint64_t base, std::uint64_t index) {
    const std::uint64_t seed = derive_seed(base, index);
    auto [it, inserted] = seen.emplace(seed, Args{base, index});
    return inserted || it->second == Args{base, index};
  };
  for (std::uint64_t off = 0; off <= 2 * base_radius; ++off) {
    const std::uint64_t base = base_seed - base_radius + off;  // wraps; fine
    for (std::uint64_t i = 0; i < points; ++i) {
      if (!probe(base, i)) return false;
      if (!probe(i, base)) return false;  // the swapped-argument family
    }
  }
  return true;
}

std::size_t resolve_jobs(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

void PointContext::metrics(const Machine& mach, std::string label) {
  out_->snapshots.push_back(snapshot_metrics(mach, std::move(label)));
}

std::vector<PointResult> run_sweep(
    std::size_t points, const SweepConfig& cfg,
    const std::function<void(PointContext&)>& fn) {
  std::vector<PointResult> results(points);
  if (points == 0) return results;

  // Debug builds audit the exact seed family this grid will draw from:
  // per-point streams must be pairwise independent, also against adjacent
  // bases and swapped (base, index) pairs (see seed_streams_independent).
  assert(seed_streams_independent(cfg.base_seed, points) &&
         "derive_seed collision inside the sweep's seed family");

  // One slot per point for results and failures: workers touch only their
  // claimed indices, so no cross-thread synchronization is needed beyond
  // the claim counter and the joins.
  std::vector<std::exception_ptr> errors(points);

  auto run_point = [&](std::size_t i) {
    PointContext ctx(i, derive_seed(cfg.base_seed, i), results[i]);
    try {
      fn(ctx);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };

  std::size_t workers = resolve_jobs(cfg.jobs);
  if (workers > points) workers = points;

  if (workers <= 1) {
    // Reference serial execution: same claiming order, no pool.
    for (std::size_t i = 0; i < points; ++i) run_point(i);
  } else {
    std::atomic<std::size_t> next{0};
    auto drain = [&] {
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < points; i = next.fetch_add(1, std::memory_order_relaxed))
        run_point(i);
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t t = 0; t < workers; ++t) pool.emplace_back(drain);
    for (std::thread& t : pool) t.join();
  }

  // Deterministic failure: the lowest-indexed error wins regardless of
  // which worker hit it first.
  for (std::size_t i = 0; i < points; ++i)
    if (errors[i]) std::rethrow_exception(errors[i]);
  return results;
}

}  // namespace aem::harness
