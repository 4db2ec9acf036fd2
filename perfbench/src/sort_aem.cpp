// sort_aem: the paper's Section 3 AEM mergesort (base case: the Lemma 4.2
// selection sort) of N = 2^20 uniform uint64 keys on a plain Machine with
// M = 2^15, B = 64, omega = 16.  No cache, faults, sharding, store or
// traffic: serving-layer changes should leave it unchanged.
//
// Every call is timed on its own (one call per pass: two clock reads per
// ~1.5 s call cost nothing), and every output is checked after its timed
// call: sorted, and equal to the input under order-independent checksums.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common.hpp"
#include "core/ext_array.hpp"
#include "core/machine.hpp"
#include "harness/parallel_sweep.hpp"
#include "replay.hpp"
#include "sort/mergesort.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kN = std::size_t{1} << 20;
constexpr int kSetups = 15;  // setup repetitions; setup_s is their median
constexpr int kMinCalls = 5;
constexpr int kMinTracedCalls = 3;
constexpr int kReplayReps = 9;

aem::Config sort_config() {
  aem::Config cfg;
  cfg.memory_elems = std::size_t{1} << 15;
  cfg.block_elems = 64;
  cfg.write_cost = 16;
  return cfg;
}

/// Order-independent fingerprint of a multiset of keys.
struct Checksum {
  std::uint64_t sum = 0;
  std::uint64_t mixed = 0;
  void add(std::uint64_t x) {
    sum += x;
    mixed += mix64(x);
  }
  friend bool operator==(const Checksum&, const Checksum&) = default;
};

struct SortSetup {
  std::unique_ptr<aem::Machine> mach;  // declared first: outlives the arrays
  aem::ExtArray<std::uint64_t> in;
  aem::ExtArray<std::uint64_t> out;
  Checksum input_sum;
};

std::unique_ptr<SortSetup> setup(std::uint64_t seed) {
  auto s = std::make_unique<SortSetup>();
  s->mach = std::make_unique<aem::Machine>(sort_config());
  aem::util::Rng rng(aem::harness::derive_seed(seed, 1));
  std::vector<std::uint64_t> keys(kN);
  for (std::uint64_t& k : keys) {
    k = rng.next();
    s->input_sum.add(k);
  }
  s->in = aem::ExtArray<std::uint64_t>(*s->mach, kN, "sort.in");
  s->in.unsafe_host_fill(keys);
  s->out = aem::ExtArray<std::uint64_t>(*s->mach, kN, "sort.out");
  return s;
}

/// Checks the last sort's output; counts one failure per bad output.
void check_output(const SortSetup& s, Report& rep) {
  const std::vector<std::uint64_t>& v = s.out.unsafe_host_view();
  Checksum got;
  for (std::uint64_t x : v) got.add(x);
  if (!std::is_sorted(v.begin(), v.end())) {
    rep.fail("sort output is not sorted");
  } else if (!(got == s.input_sum)) {
    rep.fail("sort output is not a permutation of the input");
  }
}

/// One aem_merge_sort call: host ns and charged Q.
struct Call {
  double ns = 0.0;
  std::uint64_t q = 0;
};

Call timed_sort(SortSetup& s) {
  const std::uint64_t q0 = s.mach->cost();
  const std::int64_t t0 = now_ns();
  aem::aem_merge_sort(s.in, s.out, std::less<std::uint64_t>{});
  const std::int64_t t1 = now_ns();
  return Call{static_cast<double>(t1 - t0), s.mach->cost() - q0};
}

/// aem_merge_sort rebuilt from its public parts (make_chunks, small_sort,
/// merge_level) so the base pass and the merge levels can be timed apart.
/// It charges exactly what aem_merge_sort charges; the caller checks that.
struct Decomposed {
  double total_ns = 0.0;
  double base_ns = 0.0;
  double merge_ns = 0.0;
  std::uint64_t base_q = 0;
  std::uint64_t merge_q = 0;
};

Decomposed traced_sort(SortSetup& s, SpanLog& log, std::uint64_t req) {
  aem::Machine& mach = *s.mach;
  const std::less<std::uint64_t> less;
  Decomposed d;
  log.open("sort", req);
  const aem::SortBudget budget = aem::SortBudget::from(mach);
  aem::ExtArray<std::uint64_t> scratch(mach, kN, "mergesort.scratch");
  auto runs = aem::make_chunks(kN, budget.base);
  const unsigned levels = aem::util::ilog_base_ceil(runs.size(), budget.fanout);
  aem::ExtArray<std::uint64_t>* first = (levels % 2 == 1) ? &scratch : &s.out;
  aem::ExtArray<std::uint64_t>* other = (levels % 2 == 1) ? &s.out : &scratch;
  const std::uint64_t q0 = mach.cost();
  {
    auto base_phase = mach.phase("sort.base");
    for (const aem::RunBounds& r : runs) {
      log.open("sort.base", req);
      aem::small_sort(s.in, r.begin, r.end, *first, r.begin, less);
      d.base_ns += static_cast<double>(log.close());
    }
  }
  const std::uint64_t q1 = mach.cost();
  {
    auto merge_phase = mach.phase("sort.merge");
    aem::ExtArray<std::uint64_t>* cur = first;
    aem::ExtArray<std::uint64_t>* next = other;
    while (runs.size() > 1) {
      log.open("sort.merge", req);
      runs = aem::merge_level(*cur, std::span<const aem::RunBounds>(runs), *next,
                              budget.fanout, less);
      d.merge_ns += static_cast<double>(log.close());
      std::swap(cur, next);
    }
  }
  d.base_q = q1 - q0;
  d.merge_q = mach.cost() - q1;
  d.total_ns = static_cast<double>(log.close());
  return d;
}

}  // namespace

void run_sort_aem(const RunArgs& args, Report& rep, SpanLog* log) {
  std::vector<double> setup_s;
  std::unique_ptr<SortSetup> s;
  for (int i = 0; i < kSetups; ++i) {
    s.reset();
    SpanScope sp(log, "setup", static_cast<std::uint64_t>(i));
    const std::int64_t t0 = now_ns();
    s = setup(args.seed);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  rep.inputs_digest = mix64(s->input_sum.sum ^ mix64(s->input_sum.mixed));

  // Warm-up call: first-touch page faults and allocator growth stay out of
  // the timed calls.
  timed_sort(*s);
  check_output(*s, rep);
  ++rep.attempted;

  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);

  if (!args.trace) {
    // Peak RSS is read after set-up and warm-up, before the probe's buffer
    // exists, so it is the workload's own.
    rep.add("peak_rss_mb", peak_rss_mib());
    // Raw and probe-scaled per-call times; the probe runs before each call.
    HostProbe probe;
    std::vector<double> call_ns, call_raw, probe_ns, call_q;
    std::uint64_t first_q = 0;
    while (now_ns() < deadline || static_cast<int>(call_ns.size()) < kMinCalls) {
      const double pr = probe.run();
      const Call c = timed_sort(*s);
      check_output(*s, rep);
      ++rep.attempted;
      if (call_ns.empty()) first_q = c.q;
      probe_ns.push_back(pr);
      call_raw.push_back(c.ns);
      call_ns.push_back(c.ns * HostProbe::kReferenceNs / pr);
      call_q.push_back(static_cast<double>(c.q));
    }
    if (probe.sink() == 0) rep.fail("host probe copied only zeros");
    const double p50 = median(call_ns);
    rep.add("setup_s", median(setup_s), setup_s.size());
    rep.add("ops_per_s", static_cast<double>(kN) / (p50 / 1e9), call_ns.size());
    rep.add("call_p50_ns", p50, call_ns.size());
    rep.add("ops_per_s_raw", static_cast<double>(kN) / (median(call_raw) / 1e9), call_raw.size());
    rep.add("call_p50_ns_raw", median(call_raw), call_raw.size());
    rep.add("probe_ms", median(probe_ns) / 1e6, probe_ns.size());
    rep.add("charged_q", static_cast<double>(first_q));
    // Every call charges the same Q, so the p99 of per-call Q is exact.
    rep.add("q_per_op_p99", percentile(call_q, 0.99), call_q.size());
    return;
  }

  // Traced run: untraced aem_merge_sort calls alternate with the traced,
  // decomposed sort; both must charge the same Q.
  std::vector<double> untraced_ns, traced_ns, base_ns, merge_ns, base_share, merge_share;
  Decomposed last{};
  std::uint64_t sort_q = 0;
  std::uint64_t req = 0;
  while (now_ns() < deadline || static_cast<int>(traced_ns.size()) < kMinTracedCalls) {
    const Call c = timed_sort(*s);
    check_output(*s, rep);
    ++rep.attempted;
    untraced_ns.push_back(c.ns);
    sort_q = c.q;

    last = traced_sort(*s, *log, req++);
    check_output(*s, rep);
    ++rep.attempted;
    if (last.base_q + last.merge_q != sort_q)
      rep.fail("decomposed sort charged other than aem_merge_sort");
    traced_ns.push_back(last.total_ns);
    base_ns.push_back(last.base_ns);
    merge_ns.push_back(last.merge_ns);
    base_share.push_back(last.base_ns / last.total_ns);
    merge_share.push_back(last.merge_ns / last.total_ns);
  }

  // Record the sort's block-op stream once and replay it layer by layer.
  Stream stream;
  {
    SpanScope sp(log, "record", 0);
    s->mach->enable_trace();
    timed_sort(*s);
    stream = to_stream(*s->mach->take_trace());
    check_output(*s, rep);
    ++rep.attempted;
  }
  Stack stack;
  stack.plain = sort_config();
  const LayerTimes lt = replay_layers<std::uint64_t>(stack, stream, kReplayReps, log);

  const auto n = static_cast<double>(kN);
  rep.add("core.machine_ns_per_op", lt.machine, kReplayReps);
  rep.add("core.submit_ns_per_op", lt.submit, kReplayReps);
  rep.add("core.extarray_ns_per_block", lt.extarray, kReplayReps);
  io_layers<std::uint64_t>(sort_config(), kN, kReplayReps, rep, log);
  rep.add("sort.base_ns_per_elem", median(base_ns) / n, base_ns.size());
  rep.add("sort.merge_ns_per_elem", median(merge_ns) / n, merge_ns.size());
  // Shares of the decomposed sort's own host time, call by call: base +
  // merge + the root's self time (scratch allocation) make up the whole.
  rep.add("sort.base_share", median(base_share), base_share.size());
  rep.add("sort.merge_share", median(merge_share), merge_share.size());
  rep.add("sort.base_q", static_cast<double>(last.base_q));
  rep.add("sort.merge_q", static_cast<double>(last.merge_q));
  // Paired per call: each traced call runs right after an untraced one.
  std::vector<double> traced_over_untraced;
  for (std::size_t r = 0; r < traced_ns.size(); ++r)
    traced_over_untraced.push_back(traced_ns[r] / untraced_ns[r]);
  rep.add("trace.overhead_ratio", median(traced_over_untraced), traced_ns.size());
}

}  // namespace perfbench
