// serve_zipf_read and serve_hotset_write: the KV store served through the
// traffic engine on a D = 4 round-robin ShardedMachine (M = 2^16, B = 64,
// omega = 16) with a 2048-block cache, one eighth of the 16384 log pages.
// The store holds 2^20 records (shuffled keys 0..2^20-1, ~10% of values
// spilled to 2..8 words, fence index).  One client, closed loop, no
// admission control.
//
//   serve_zipf_read     LRU cache; zipf(0.99) gets only.
//   serve_hotset_write  clean-first cache; transient faults (read 1e-4,
//                       silent write 5e-5, torn write 5e-5) installed before
//                       the build; a hot set of 10% of the keys takes 90% of
//                       requests and slides every 10^5 requests; 50% puts,
//                       5% scans of 8 keys, the rest gets.
//
// A run alternates two kinds of equal passes after a warm-up:
//
//   throughput  TrafficEngine::run over a fixed request count, no per-call
//               clocks; ops_per_s is the median over these passes, each
//               scaled to the HostProbe's reference speed (common.hpp);
//   latency     a direct loop of KvStore calls that continues the stream of
//               the throughput pass before it (so it sees the same warm
//               cache and hot-set window), each call timed on its own and
//               checked against the host-side reference after its clock
//               stops; call_p50_ns / call_p99_ns are medians of the
//               per-pass percentiles, scaled the same way.
//
// The puts of every pass are applied to the reference, and the store's whole
// log is compared with it after the warm-up and at the end of the run (reads
// of the host view charge nothing and leave the simulated cache alone; doing
// it between passes would start every pass with cold host caches).
#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/ext_array.hpp"
#include "core/faults.hpp"
#include "core/sharding.hpp"
#include "harness/parallel_sweep.hpp"
#include "replay.hpp"
#include "store/kv_store.hpp"
#include "traffic/engine.hpp"
#include "traffic/request_gen.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using aem::store::KvStore;
using aem::store::Slot;
namespace traffic = aem::traffic;

constexpr std::uint64_t kRecords = std::uint64_t{1} << 20;
constexpr std::size_t kDevices = 4;
constexpr int kSetups = 3;  // setup repetitions; setup_s is their median
constexpr int kMinPasses = 5;
constexpr int kMinTracedRounds = 3;
constexpr int kReplayReps = 9;
constexpr std::uint64_t kRecordedRequests = std::uint64_t{1} << 16;

struct ServeSpec {
  const char* name;
  aem::CachePolicy policy;
  bool faults;
  traffic::KeyDist dist;
  double write_fraction;
  double scan_fraction;
  std::uint64_t pass_requests;     // per throughput pass
  std::uint64_t latency_requests;  // per latency pass
};

constexpr ServeSpec kZipf{"serve_zipf_read", aem::CachePolicy::kLru, false,
                          traffic::KeyDist::kZipf, 0.0, 0.0,
                          std::uint64_t{1} << 18, std::uint64_t{1} << 15};
constexpr ServeSpec kHotset{"serve_hotset_write", aem::CachePolicy::kCleanFirst, true,
                            traffic::KeyDist::kHotSet, 0.5, 0.05,
                            std::uint64_t{1} << 18, std::uint64_t{1} << 14};

aem::Config plain_config() {
  aem::Config cfg;
  cfg.memory_elems = std::size_t{1} << 16;
  cfg.block_elems = 64;
  cfg.write_cost = 16;
  return cfg;
}

aem::CacheConfig cache_config(const ServeSpec& spec) {
  aem::CacheConfig c;
  c.capacity_blocks = 2048;
  c.policy = spec.policy;
  return c;
}

aem::FaultConfig fault_config(std::uint64_t seed) {
  aem::FaultConfig f;
  f.seed = aem::harness::derive_seed(seed, 2);
  f.read_fault_rate = 1e-4;
  f.silent_write_rate = 5e-5;
  f.torn_write_rate = 5e-5;
  return f;
}

traffic::TrafficConfig traffic_config(const ServeSpec& spec, std::uint64_t requests) {
  traffic::TrafficConfig t;
  t.requests = requests;
  t.dist = spec.dist;
  t.zipf_theta = 0.99;
  t.key_space = kRecords;
  t.write_fraction = spec.write_fraction;
  t.scan_fraction = spec.scan_fraction;
  t.scan_len = 8;
  t.hot_fraction = 0.1;
  t.hot_weight = 0.9;
  t.drift_every = 100000;
  return t;
}

/// Host-side reference of the store's contents: per key, its value length
/// and either the inline word (len 1) or an offset into `payload`.
struct Reference {
  std::vector<std::uint64_t> len;
  std::vector<std::uint64_t> word;
  std::vector<std::uint64_t> payload;

  std::span<const std::uint64_t> value(std::uint64_t key) const {
    if (len[key] == 1) return {&word[key], 1};
    return {payload.data() + word[key], len[key]};
  }
  void put(std::uint64_t key, std::uint64_t value) {
    len[key] = 1;
    word[key] = value;
  }
};

struct Input {
  std::vector<Slot> slots;  // in a fixed shuffled order
  std::vector<std::uint64_t> payload;
  Reference ref;
};

Input make_input(std::uint64_t seed) {
  aem::util::Rng rng(aem::harness::derive_seed(seed, 1));
  Input in;
  in.slots.reserve(kRecords);
  in.ref.len.resize(kRecords);
  in.ref.word.resize(kRecords);
  for (std::uint64_t key = 0; key < kRecords; ++key) {
    Slot s;
    s.key = key;
    // Which keys spill, and how far, is the same for every seed: under zipf
    // a handful of the lowest keys take a large share of the requests, and
    // letting the seed decide whether they spill would make throughput
    // depend on the seed.  The seed draws the values.
    const std::uint64_t h = mix64(key);
    if (h % 10 == 0) {
      s.len = 2 + (h >> 32) % 7;
      s.pos = in.payload.size();
      for (std::uint64_t j = 0; j < s.len; ++j) in.payload.push_back(rng.next());
    } else {
      s.len = 1;
      s.pos = rng.next();
    }
    in.ref.len[key] = s.len;
    in.ref.word[key] = s.pos;
    in.slots.push_back(s);
  }
  in.ref.payload = in.payload;
  // The input order is one fixed shuffle for every seed.  The build's order
  // of cache inserts and evictions follows it, and what that history leaves
  // behind in memory moved serving throughput by ~18% from seed to seed (see
  // NOTES.md), which would swamp the changes this benchmark is meant to show.
  aem::util::Rng order(1);
  order.shuffle(in.slots);
  return in;
}

/// A built store and the machine it lives on (declared first, so it
/// outlives the store's arrays).
struct Served {
  std::unique_ptr<aem::Machine> mach;
  std::unique_ptr<KvStore> store;
  Reference ref;
  double build_ns = 0.0;
};

/// Stages `in` on `mach` and builds the store; returns the build time.
double build_store(aem::Machine& mach, KvStore& store, const Input& in, SpanLog* log,
                   std::uint64_t req) {
  aem::ExtArray<Slot> slots(mach, in.slots.size(), "input.slots");
  slots.unsafe_host_fill(in.slots);
  aem::ExtArray<std::uint64_t> payload(mach, in.payload.size(), "input.payload");
  payload.unsafe_host_fill(in.payload);
  SpanScope sp(log, "store.build", req);
  const std::int64_t t0 = now_ns();
  store.build(slots, payload);
  return static_cast<double>(now_ns() - t0);
}

std::unique_ptr<Served> setup(const ServeSpec& spec, std::uint64_t seed, SpanLog* log,
                              std::uint64_t req) {
  auto s = std::make_unique<Served>();
  Input in;
  {
    SpanScope sp(log, "setup.input", req);
    in = make_input(seed);
  }
  aem::ShardConfig sc;
  sc.frontend = plain_config();
  sc.frontend.cache = cache_config(spec);
  sc.devices.assign(kDevices, plain_config());
  s->mach = std::make_unique<aem::ShardedMachine>(sc);
  if (spec.faults) s->mach->install_faults(fault_config(seed));
  s->store = std::make_unique<KvStore>(*s->mach);
  s->build_ns = build_store(*s->mach, *s->store, in, log, req);
  s->ref = std::move(in.ref);
  return s;
}

/// Compares every log slot (and spilled payload) with the reference.
void check_state(const Served& s, Report& rep) {
  const std::vector<Slot>& log = s.store->log_array().unsafe_host_view();
  const std::vector<std::uint64_t>& pay = s.store->payload_array().unsafe_host_view();
  if (log.size() != kRecords) {
    rep.fail("store log has the wrong size");
    return;
  }
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    const Slot& slot = log[i];
    const std::span<const std::uint64_t> want = s.ref.value(i);
    bool ok = slot.key == i && slot.len == want.size();
    if (ok && slot.len == 1) ok = slot.pos == want[0];
    if (ok && slot.len >= 2)
      ok = slot.pos + slot.len <= pay.size() &&
           std::equal(want.begin(), want.end(), pay.begin() + static_cast<std::ptrdiff_t>(slot.pos));
    if (!ok) {
      rep.fail("store slot " + std::to_string(i) + " differs from the reference");
      return;
    }
  }
}

std::uint64_t scan_hi(const traffic::Request& r) { return r.key + r.scan_len - 1; }

/// Applies the puts of a served stream to the reference.
void apply_puts(const traffic::RequestGen& gen, std::uint64_t n, Reference& ref) {
  for (std::uint64_t i = 0; i < n; ++i) {
    const traffic::Request r = gen.at(i);
    if (r.op == traffic::OpKind::kPut) ref.put(r.key, r.value);
  }
}

struct EnginePass {
  double ns = 0.0;
  aem::traffic::EngineStats stats;
  std::uint64_t q_p99 = 0;
  aem::CacheStats cache0, cache1;
  aem::FaultStats faults0, faults1;
  aem::store::StoreStats store0, store1;
};

/// One throughput pass through TrafficEngine::run (admission off).
EnginePass engine_pass(const ServeSpec& spec, Served& s, std::uint64_t stream_seed,
                       Report& rep) {
  traffic::EngineConfig ec;
  ec.traffic = traffic_config(spec, spec.pass_requests);
  traffic::TrafficEngine engine(*s.store, *s.mach, ec, stream_seed);
  EnginePass p;
  p.cache0 = s.mach->cache()->stats();
  if (s.mach->faults() != nullptr) p.faults0 = s.mach->faults()->stats();
  p.store0 = s.store->stats();
  const std::int64_t t0 = now_ns();
  engine.run();
  p.ns = static_cast<double>(now_ns() - t0);
  p.cache1 = s.mach->cache()->stats();
  if (s.mach->faults() != nullptr) p.faults1 = s.mach->faults()->stats();
  p.store1 = s.store->stats();
  p.stats = engine.stats();
  p.q_p99 = engine.histogram().percentile(9900);

  rep.attempted += p.stats.generated;
  const auto& st = p.stats;
  if (st.served != st.generated || st.get_hits != st.gets || st.put_hits != st.puts) {
    rep.fail("engine pass: a request was not served or missed its key");
  }
  apply_puts(engine.generator(), spec.pass_requests, s.ref);
  return p;
}

/// Serves one request directly through the store, as the engine would,
/// keeping a get's value in *got unless `got` is null.  Returns whether the
/// store found the key.
template <class Visit>
bool serve_direct(KvStore& store, const traffic::Request& r,
                  std::optional<std::vector<std::uint64_t>>* got, const Visit& visit) {
  switch (r.op) {
    case traffic::OpKind::kGet:
      if (got == nullptr) return store.get(r.key).has_value();
      *got = store.get(r.key);
      return got->has_value();
    case traffic::OpKind::kPut:
      return store.put_inline(r.key, r.value);
    case traffic::OpKind::kScan:
      return store.scan(r.key, scan_hi(r), visit) > 0;
  }
  return false;
}

/// Checks one latency-pass result against the reference (and applies a put).
void check_result(const traffic::Request& r, bool found,
                  const std::optional<std::vector<std::uint64_t>>& got,
                  const std::vector<std::uint64_t>& scan_keys,
                  const std::vector<std::uint64_t>& scan_words, Reference& ref,
                  Report& rep) {
  if (r.op == traffic::OpKind::kPut) {
    if (!found) rep.fail("put missed key " + std::to_string(r.key));
    ref.put(r.key, r.value);
    return;
  }
  if (r.op == traffic::OpKind::kGet) {
    const auto want = ref.value(r.key);
    if (!got || !std::equal(want.begin(), want.end(), got->begin(), got->end()))
      rep.fail("get(" + std::to_string(r.key) + ") differs from the reference");
    return;
  }
  const std::uint64_t hi = std::min(scan_hi(r), kRecords - 1);
  std::size_t w = 0;
  bool ok = scan_keys.size() == hi - r.key + 1;
  for (std::size_t i = 0; ok && i < scan_keys.size(); ++i) {
    const auto want = ref.value(r.key + i);
    ok = scan_keys[i] == r.key + i && w + want.size() <= scan_words.size() &&
         std::equal(want.begin(), want.end(), scan_words.begin() + static_cast<std::ptrdiff_t>(w));
    w += want.size();
  }
  if (!ok || w != scan_words.size())
    rep.fail("scan(" + std::to_string(r.key) + ") differs from the reference");
}

/// Per-call samples of one latency pass.  With a span log, each request
/// gets a root span with the generator and store calls as children, and
/// calls are classified by their cache-stats delta.
struct LatencyPass {
  double wall_ns = 0.0;
  std::vector<double> call_ns;
  std::vector<double> get_ns, put_ns, scan_ns, hit_ns, evict_ns;
};

const char* store_span(traffic::OpKind op) {
  switch (op) {
    case traffic::OpKind::kGet: return "store.get";
    case traffic::OpKind::kPut: return "store.put_inline";
    case traffic::OpKind::kScan: return "store.scan";
  }
  return "store";
}

LatencyPass latency_pass(const ServeSpec& spec, Served& s, std::uint64_t stream_seed,
                         Report& rep, SpanLog* log, std::uint64_t& req) {
  const traffic::RequestGen gen(traffic_config(spec, spec.pass_requests), stream_seed);
  LatencyPass p;
  p.call_ns.reserve(spec.latency_requests);
  std::vector<std::uint64_t> scan_keys, scan_words;
  const auto visit = [&](std::uint64_t key, std::span<const std::uint64_t> value) {
    scan_keys.push_back(key);
    scan_words.insert(scan_words.end(), value.begin(), value.end());
  };
  std::optional<std::vector<std::uint64_t>> got;
  const aem::BlockCache& cache = *s.mach->cache();
  const std::int64_t start = now_ns();
  const std::uint64_t first = spec.pass_requests;
  for (std::uint64_t i = first; i < first + spec.latency_requests; ++i) {
    scan_keys.clear();
    scan_words.clear();
    got.reset();
    traffic::Request r;
    bool found = false;
    double ns = 0.0;
    if (log == nullptr) {
      r = gen.at(i);
      const std::int64_t t0 = now_ns();
      found = serve_direct(*s.store, r, &got, visit);
      ns = static_cast<double>(now_ns() - t0);
    } else {
      // Spans: a root per request, with the generator call and the store
      // call as its children, built from three clock reads.
      const aem::CacheStats c0 = cache.stats();
      const std::int64_t t0 = now_ns();
      r = gen.at(i);
      const std::int64_t t1 = now_ns();
      found = serve_direct(*s.store, r, &got, visit);
      const std::int64_t t2 = now_ns();
      ns = static_cast<double>(t2 - t1);
      const std::int32_t root = log->record("request", t0, t2, req);
      if (root >= 0) {
        log->record("traffic.gen", t0, t1, req, root);
        log->record(store_span(r.op), t1, t2, req, root);
      }
      ++req;
      const aem::CacheStats c1 = cache.stats();
      const std::uint64_t misses = (c1.read_misses - c0.read_misses) +
                                   (c1.write_misses - c0.write_misses);
      const std::uint64_t hits =
          (c1.read_hits - c0.read_hits) + (c1.write_hits - c0.write_hits);
      const std::uint64_t evictions = (c1.evictions_clean - c0.evictions_clean) +
                                      (c1.evictions_dirty - c0.evictions_dirty);
      if (misses == 0 && hits > 0) p.hit_ns.push_back(ns);
      if (evictions > 0) p.evict_ns.push_back(ns);
      if (r.op == traffic::OpKind::kGet) p.get_ns.push_back(ns);
      if (r.op == traffic::OpKind::kPut) p.put_ns.push_back(ns);
      if (r.op == traffic::OpKind::kScan) p.scan_ns.push_back(ns);
    }
    p.call_ns.push_back(ns);
    ++rep.attempted;
    check_result(r, found, got, scan_keys, scan_words, s.ref, rep);
  }
  p.wall_ns = static_cast<double>(now_ns() - start);
  return p;
}

/// The engine's request loop without the engine: generator + store calls,
/// no histogram or cost polls.  Timed as a whole, results discarded like
/// the engine does (the state check after the pass covers the puts).
double direct_pass(const ServeSpec& spec, Served& s, std::uint64_t stream_seed,
                   Report& rep) {
  const traffic::RequestGen gen(traffic_config(spec, spec.pass_requests), stream_seed);
  const auto visit = [](std::uint64_t, std::span<const std::uint64_t>) {};
  std::uint64_t found = 0;
  const std::int64_t t0 = now_ns();
  for (std::uint64_t i = 0; i < spec.pass_requests; ++i)
    found += serve_direct(*s.store, gen.at(i), nullptr, visit) ? 1 : 0;
  s.mach->flush_cache();
  const double ns = static_cast<double>(now_ns() - t0);
  rep.attempted += spec.pass_requests;
  if (found != spec.pass_requests) rep.fail("direct pass: a request missed its key");
  apply_puts(gen, spec.pass_requests, s.ref);
  return ns;
}

/// RequestGen::at alone over one pass of requests: ns per request.
double gen_pass(const ServeSpec& spec, std::uint64_t stream_seed, std::uint64_t& sink) {
  const traffic::RequestGen gen(traffic_config(spec, spec.pass_requests), stream_seed);
  const std::int64_t t0 = now_ns();
  for (std::uint64_t i = 0; i < spec.pass_requests; ++i) {
    const traffic::Request r = gen.at(i);
    sink += r.key ^ r.value;
  }
  return static_cast<double>(now_ns() - t0) / static_cast<double>(spec.pass_requests);
}

double per_call_median(const std::vector<LatencyPass>& passes,
                       std::vector<double> LatencyPass::*field, std::uint64_t& samples) {
  std::vector<double> medians;
  samples = 0;
  for (const LatencyPass& p : passes) {
    const std::vector<double>& v = p.*field;
    if (v.empty()) continue;
    medians.push_back(median(v));
    samples += v.size();
  }
  return median(medians);
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// The deterministic per-layer counts of one throughput pass.
void pass_counts(const EnginePass& p, Report& rep) {
  const aem::CacheStats& a = p.cache0;
  const aem::CacheStats& b = p.cache1;
  const std::uint64_t hits = (b.read_hits - a.read_hits) + (b.write_hits - a.write_hits);
  const std::uint64_t accesses = hits + (b.read_misses - a.read_misses) +
                                 (b.write_misses - a.write_misses);
  const std::uint64_t n = p.stats.generated;
  rep.add("cache.hit_ratio", ratio(hits, accesses));
  rep.add("cache.dirty_evictions_per_op", ratio(b.evictions_dirty - a.evictions_dirty, n));
  const std::uint64_t retries = (p.faults1.read_retries - p.faults0.read_retries) +
                                (p.faults1.write_retries - p.faults0.write_retries);
  rep.add("faults.retries_per_op", ratio(retries, n));
  const aem::store::StoreStats& s0 = p.store0;
  const aem::store::StoreStats& s1 = p.store1;
  const std::uint64_t gets = s1.gets - s0.gets;
  const std::uint64_t puts = s1.puts - s0.puts;
  rep.add("store.log_reads_per_get", ratio(s1.get_log_reads - s0.get_log_reads, gets));
  rep.add("store.payload_reads_per_get",
          ratio(s1.get_payload_reads - s0.get_payload_reads, gets));
  rep.add("store.io_per_put", ratio((s1.put_log_reads - s0.put_log_reads) +
                                        (s1.put_writes - s0.put_writes),
                                    puts));
}

/// Records the workload's block-op stream: a second store built from the
/// same input on a plain machine (no cache, no faults, not sharded) serves
/// kRecordedRequests requests with the trace on.  The store issues the
/// same block calls whatever the machine below it does, so this is the
/// stream every layer of the real stack sees.
Stream record_stream(const ServeSpec& spec, std::uint64_t seed, std::uint64_t stream_seed) {
  const Input in = make_input(seed);
  aem::Machine mach(plain_config());
  KvStore store(mach);
  build_store(mach, store, in, nullptr, 0);
  const traffic::RequestGen gen(traffic_config(spec, kRecordedRequests), stream_seed);
  const auto visit = [](std::uint64_t, std::span<const std::uint64_t>) {};
  mach.enable_trace();
  for (std::uint64_t i = 0; i < kRecordedRequests; ++i)
    serve_direct(store, gen.at(i), nullptr, visit);
  return to_stream(*mach.take_trace());
}

}  // namespace

void run_serve(const RunArgs& args, Report& rep, SpanLog* log) {
  const ServeSpec& spec = args.workload == kZipf.name ? kZipf : kHotset;

  std::vector<double> setup_s, build_s;
  std::unique_ptr<Served> s;
  for (int i = 0; i < kSetups; ++i) {
    s.reset();
    const auto req = static_cast<std::uint64_t>(i);
    SpanScope sp(log, "setup", req);
    const std::int64_t t0 = now_ns();
    s = setup(spec, args.seed, log, req);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    build_s.push_back(s->build_ns / 1e9);
  }

  // Stream seeds: the k-th stream of a run is derive_seed(seed, 100 + k), so
  // every throughput pass draws fresh requests, identical at a fixed seed; a
  // latency pass continues the stream of the throughput pass before it.
  std::uint64_t pass = 0;
  const auto next_stream = [&] { return aem::harness::derive_seed(args.seed, 100 + pass++); };
  std::uint64_t req = 0;

  const std::uint64_t warm = next_stream();
  {
    const traffic::RequestGen first(traffic_config(spec, 1024), warm);
    std::uint64_t d = 0;
    for (std::uint64_t i = 0; i < 1024; ++i) {
      const traffic::Request r = first.at(i);
      d = mix64(d ^ r.key ^ mix64(r.value) ^ s->ref.word[i]);
    }
    rep.inputs_digest = d;
  }

  // Warm-up: one pass of each kind, untimed.
  engine_pass(spec, *s, warm, rep);
  latency_pass(spec, *s, warm, rep, nullptr, req);
  check_state(*s, rep);

  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  const auto n = static_cast<double>(spec.pass_requests);

  if (!args.trace) {
    // Peak RSS is read after set-up and warm-up, before the probe's buffer
    // exists, so it is the workload's own.
    rep.add("peak_rss_mb", peak_rss_mib());
    // Raw and probe-scaled figures per pass; the probe runs right before
    // each throughput pass, and its latency pass follows directly.
    HostProbe probe;
    std::vector<double> ops, p50, p99, ops_raw, p50_raw, probe_ns;
    std::uint64_t charged_q = 0, q_p99 = 0;
    while (now_ns() < deadline || static_cast<int>(ops.size()) < kMinPasses) {
      const std::uint64_t stream = next_stream();
      const double pr = probe.run();
      const double slow = pr / HostProbe::kReferenceNs;
      const EnginePass e = engine_pass(spec, *s, stream, rep);
      if (ops.empty()) {
        charged_q = e.stats.cost;
        q_p99 = e.q_p99;
      }
      LatencyPass l = latency_pass(spec, *s, stream, rep, nullptr, req);
      const double rate = n / (e.ns / 1e9);
      const double l50 = percentile(l.call_ns, 0.50);
      probe_ns.push_back(pr);
      ops_raw.push_back(rate);
      p50_raw.push_back(l50);
      ops.push_back(rate * slow);
      p50.push_back(l50 / slow);
      p99.push_back(percentile(l.call_ns, 0.99) / slow);
    }
    if (probe.sink() == 0) rep.fail("host probe copied only zeros");
    rep.add("setup_s", median(setup_s), setup_s.size());
    rep.add("ops_per_s", median(ops), ops.size());
    rep.add("call_p50_ns", median(p50), p50.size() * spec.latency_requests);
    if (beyond(spec.latency_requests, 0.99) >= 10)
      rep.add("call_p99_ns", median(p99), p99.size() * spec.latency_requests);
    rep.add("ops_per_s_raw", median(ops_raw), ops_raw.size());
    rep.add("call_p50_ns_raw", median(p50_raw), p50_raw.size() * spec.latency_requests);
    rep.add("probe_ms", median(probe_ns) / 1e6, probe_ns.size());
    rep.add("charged_q", static_cast<double>(charged_q));
    rep.add("q_per_op_p99", static_cast<double>(q_p99), spec.pass_requests);
    check_state(*s, rep);
    return;
  }

  // Traced run.  The first throughput pass gives the deterministic counts.
  pass_counts(engine_pass(spec, *s, next_stream(), rep), rep);

  std::vector<double> engine_ns, direct_ns, gen_ns, traced_ns, untraced_ns;
  std::vector<LatencyPass> traced;
  std::uint64_t sink = 0;
  const auto l = static_cast<double>(spec.latency_requests);
  const auto engine_then_traced = [&] {
    const std::uint64_t stream = next_stream();
    engine_ns.push_back(engine_pass(spec, *s, stream, rep).ns / n);
    traced.push_back(latency_pass(spec, *s, stream, rep, log, req));
    traced_ns.push_back(traced.back().wall_ns / l);
  };
  const auto direct_then_untraced = [&] {
    const std::uint64_t stream = next_stream();
    direct_ns.push_back(direct_pass(spec, *s, stream, rep) / n);
    untraced_ns.push_back(latency_pass(spec, *s, stream, rep, nullptr, req).wall_ns / l);
  };
  while (now_ns() < deadline || static_cast<int>(traced.size()) < kMinTracedRounds) {
    // Alternate which pair goes first, so neither always follows the same
    // kind of pass.
    if (traced.size() % 2 == 0) {
      engine_then_traced();
      direct_then_untraced();
    } else {
      direct_then_untraced();
      engine_then_traced();
    }
    gen_ns.push_back(gen_pass(spec, next_stream(), sink));
  }
  if (sink == 0) rep.fail("generator produced only zero keys and values");
  check_state(*s, rep);

  const Stream stream = record_stream(spec, args.seed, next_stream());
  Stack stack;
  stack.plain = plain_config();
  stack.cache = cache_config(spec);
  const aem::FaultConfig fc = fault_config(args.seed);
  if (spec.faults) stack.faults = &fc;
  stack.devices = kDevices;
  const LayerTimes lt = replay_layers<Slot>(stack, stream, kReplayReps, log);

  rep.add("core.machine_ns_per_op", lt.machine, kReplayReps);
  rep.add("core.submit_ns_per_op", lt.submit, kReplayReps);
  rep.add("core.extarray_ns_per_block", lt.extarray, kReplayReps);
  io_layers<Slot>(plain_config(), kRecords, kReplayReps, rep, log);
  rep.add("cache.replay_ns_per_block", lt.cache, kReplayReps);
  if (spec.faults) rep.add("faults.replay_ns_per_block", lt.faults, kReplayReps);
  rep.add("sharding.replay_ns_per_op", lt.sharding, kReplayReps);

  std::uint64_t samples = 0;
  double v = per_call_median(traced, &LatencyPass::hit_ns, samples);
  rep.add("cache.hit_call_ns", v, samples);
  v = per_call_median(traced, &LatencyPass::evict_ns, samples);
  rep.add("cache.evict_call_ns", v, samples);
  v = per_call_median(traced, &LatencyPass::get_ns, samples);
  rep.add("store.get_call_ns", v, samples);
  v = per_call_median(traced, &LatencyPass::put_ns, samples);
  rep.add("store.put_call_ns", v, samples);
  v = per_call_median(traced, &LatencyPass::scan_ns, samples);
  rep.add("store.scan_call_ns", v, samples);
  rep.add("store.build_s", median(build_s), build_s.size());
  rep.add("store.build_q", static_cast<double>(s->store->build_cost()));
  rep.add("traffic.gen_ns_per_req", median(gen_ns), gen_ns.size());
  // Per-round differences and ratios: the two passes of a round run back to
  // back, at nearly the same host speed.
  std::vector<double> engine_minus_direct, traced_over_untraced;
  for (std::size_t r = 0; r < engine_ns.size(); ++r) {
    engine_minus_direct.push_back(engine_ns[r] - direct_ns[r]);
    traced_over_untraced.push_back(traced_ns[r] / untraced_ns[r]);
  }
  rep.add("traffic.engine_ns_per_req", median(engine_minus_direct), engine_ns.size());
  rep.add("trace.overhead_ratio", median(traced_over_untraced), traced_ns.size());
}

}  // namespace perfbench
