// Shared pieces of the host-time benchmark: clocks, sample statistics, the
// in-memory span log, and the result printer.
//
// Every timing here is taken from OUTSIDE the library: a steady_clock read
// before and after a call into a public function.  Nothing in src/ is
// instrumented.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of `v` (upper median for even sizes would bias; this averages the
/// two middle values).  0 for an empty vector.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(v.begin(), v.begin() + mid);
  return (lo + hi) / 2.0;
}

/// Nearest-rank percentile (p in (0, 1]) of `v`; reorders `v`.
inline double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[rank - 1];
}

/// Samples beyond the nearest-rank p-th percentile of n samples.  A
/// percentile is reported only when at least ten samples lie beyond it.
inline std::size_t beyond(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

/// SplitMix64 finalizer: a well-mixed 64-bit hash of `x`.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// A fixed, memory-bound probe of how fast the host runs right now: 2^17
/// copies of 1.5 KiB blocks out of a 24 MiB buffer, the blocks drawn once
/// from a fixed log-uniform (zipf-like) distribution over 16384 blocks.  It
/// runs no library code, so no change to the library moves it; only the
/// host does.
///
/// On a shared host, memory-heavy code runs in fast and slow phases that
/// can last longer than a run (NOTES.md has the measurements).  The probe
/// slows down with the serving passes, so each pass's host-time figure is
/// scaled by (probe time next to it) / kReferenceNs: the figure the pass
/// would have shown with the host at the reference speed.
class HostProbe {
 public:
  /// The reference probe time.  Scaling is linear in the probe's time, so
  /// this only fixes the scale: figures read as if the probe took 8 ms (it
  /// took 7.5-11.5 ms on a 4-vCPU KVM guest on an Intel Xeon, Sapphire
  /// Rapids, depending on the host's phase).
  static constexpr double kReferenceNs = 8.0e6;

  HostProbe() : buf_(kBlocks * kBlockWords, 1) {
    blocks_.reserve(kCopies);
    for (std::uint64_t i = 0; i < kCopies; ++i) {
      const double u = static_cast<double>(mix64(i) >> 11) * 0x1.0p-53;
      const auto rank = static_cast<std::uint64_t>(std::exp(u * std::log(double{kBlocks})));
      blocks_.push_back(static_cast<std::uint32_t>(std::min(rank, kBlocks) - 1));
    }
  }

  /// Runs the probe once; returns its time in ns.
  double run() {
    std::uint64_t block[kBlockWords];
    const std::int64_t t0 = now_ns();
    for (const std::uint32_t b : blocks_) {
      std::memcpy(block, buf_.data() + std::size_t{b} * kBlockWords, sizeof block);
      sink_ += block[b % kBlockWords];
    }
    return static_cast<double>(now_ns() - t0);
  }

  /// Keeps the copies observable.
  std::uint64_t sink() const { return sink_; }

 private:
  static constexpr std::uint64_t kBlocks = 16384;
  static constexpr std::size_t kBlockWords = 192;
  static constexpr std::uint64_t kCopies = std::uint64_t{1} << 17;
  std::vector<std::uint64_t> buf_;
  std::vector<std::uint32_t> blocks_;
  std::uint64_t sink_ = 0;
};

/// Peak resident set size of this process in MiB (VmHWM).
inline double peak_rss_mib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

// --- spans -------------------------------------------------------------------

/// One traced interval: a call into a layer, made by the benchmark.  Spans
/// of one request share `req`; `parent` is the index of the enclosing span
/// (-1 for a root).
struct Span {
  const char* name = "";
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int32_t parent = -1;
  std::uint64_t req = 0;
};

/// Spans held in memory for the whole run and written out at the end.  A
/// null SpanLog* means tracing is off; SpanScope then costs nothing.
class SpanLog {
 public:
  static constexpr std::int32_t kInnermost = -2;
  static constexpr std::uint64_t kMaxRecorded = std::uint64_t{1} << 16;

  std::int32_t open(const char* name, std::uint64_t req) {
    const auto idx = static_cast<std::int32_t>(spans_.size());
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, 0, 0, parent, req});
    stack_.push_back(idx);
    spans_.back().start = now_ns();  // last, so bookkeeping is not timed
    return idx;
  }

  /// Closes the innermost open span and returns its duration in ns.
  std::int64_t close() {
    const std::int64_t t = now_ns();
    Span& s = spans_[static_cast<std::size_t>(stack_.back())];
    s.end = t;
    stack_.pop_back();
    return s.end - s.start;
  }

  /// Records an already-timed span under the innermost open span (or under
  /// `parent` when given).  Per-request spans go through here, built from
  /// the same clock reads the latency figures use; past kMaxRecorded they
  /// are counted as dropped instead of kept, which bounds the log's size.
  /// Returns the span's index, or -1 when dropped.
  std::int32_t record(const char* name, std::int64_t start, std::int64_t end,
                      std::uint64_t req, std::int32_t parent = kInnermost) {
    if (recorded_ >= kMaxRecorded) {
      ++dropped_;
      return -1;
    }
    ++recorded_;
    if (parent == kInnermost) parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, start, end, parent, req});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  std::uint64_t dropped() const { return dropped_; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span: duration minus the durations of its children.
  /// Throws std::logic_error if a child lies outside its parent or the
  /// children together exceed it.
  std::vector<std::int64_t> self_times() const {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self[i] = spans_[i].end - spans_[i].start;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& c = spans_[i];
      if (c.end < c.start) throw std::logic_error("span ends before it starts");
      if (c.parent < 0) continue;
      const Span& p = spans_[static_cast<std::size_t>(c.parent)];
      if (c.start < p.start || c.end > p.end)
        throw std::logic_error(std::string("span '") + c.name +
                               "' lies outside its parent '" + p.name + "'");
      self[static_cast<std::size_t>(c.parent)] -= c.end - c.start;
    }
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (self[i] < 0)
        throw std::logic_error(std::string("children of span '") +
                               spans_[i].name + "' exceed it");
    return self;
  }

  /// Writes one JSON object per span (times relative to the first span).
  void write_jsonl(const std::string& path,
                   const std::vector<std::int64_t>& self) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"parent\":%d,\"req\":%llu,\"self_ns\":%lld}\n",
                   i, s.name, static_cast<long long>(s.start - t0),
                   static_cast<long long>(s.end - t0), s.parent,
                   static_cast<unsigned long long>(s.req),
                   static_cast<long long>(self[i]));
    }
    if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
};

/// RAII span; a no-op when `log` is null.
class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name, std::uint64_t req) : log_(log) {
    if (log_ != nullptr) log_->open(name, req);
  }
  ~SpanScope() {
    if (log_ != nullptr) log_->close();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
};

// --- results -----------------------------------------------------------------

/// One metric the benchmark can report.  `json` metrics are the ones listed
/// in BENCHMARK.json and printed on the result line; the others are printed
/// in the table only.
struct MetricDef {
  const char* name;
  const char* unit;
  bool json;
};

/// The end-to-end metrics (trace off).  ops_per_s and the call latencies are
/// scaled to the HostProbe's reference speed; the *_raw lines and probe_ms
/// show what was measured.  call_p99_ns is table-only because sort_aem runs
/// too few calls to support a p99, and BENCHMARK.json metrics must be
/// reported by every workload; fail_ratio is table-only because it is 0 on a
/// correct run (the result line carries attempted and failed).
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", true},
    {"ops_per_s", "1/s", true},
    {"call_p50_ns", "ns", true},
    {"call_p99_ns", "ns", false},
    {"charged_q", "count", true},
    {"q_per_op_p99", "count", true},
    {"peak_rss_mb", "MiB", true},
    {"fail_ratio", "ratio", false},
    {"ops_per_s_raw", "1/s", false},
    {"call_p50_ns_raw", "ns", false},
    {"probe_ms", "ms", false},
};

/// The per-layer metrics (trace on).  A workload that does not exercise a
/// layer reports its metrics as 0.
inline constexpr MetricDef kPerLayer[] = {
    {"core.machine_ns_per_op", "ns", true},
    {"core.submit_ns_per_op", "ns", true},
    {"core.extarray_ns_per_block", "ns", true},
    {"io.scan_ns_per_block", "ns", true},
    {"io.writer_ns_per_block", "ns", true},
    {"sort.base_ns_per_elem", "ns", true},
    {"sort.merge_ns_per_elem", "ns", true},
    {"sort.base_share", "ratio", true},
    {"sort.merge_share", "ratio", true},
    {"sort.base_q", "count", true},
    {"sort.merge_q", "count", true},
    {"cache.replay_ns_per_block", "ns", true},
    {"cache.hit_ratio", "ratio", true},
    {"cache.hit_call_ns", "ns", true},
    {"cache.dirty_evictions_per_op", "count", true},
    {"cache.evict_call_ns", "ns", true},
    {"faults.replay_ns_per_block", "ns", true},
    {"faults.retries_per_op", "count", true},
    {"sharding.replay_ns_per_op", "ns", true},
    {"store.get_call_ns", "ns", true},
    {"store.put_call_ns", "ns", true},
    {"store.scan_call_ns", "ns", true},
    {"store.log_reads_per_get", "count", true},
    {"store.payload_reads_per_get", "count", true},
    {"store.io_per_put", "count", true},
    {"store.build_s", "s", true},
    {"store.build_q", "count", true},
    {"traffic.gen_ns_per_req", "ns", true},
    {"traffic.engine_ns_per_req", "ns", true},
    {"trace.overhead_ratio", "ratio", true},
};

struct Metric {
  double value = 0.0;
  std::uint64_t samples = 0;  // 0 = a count, not a sampled timing
  bool set = false;
};

/// What one benchmark invocation reports.
class Report {
 public:
  explicit Report(bool trace) : trace_(trace), values_(schema().size()) {}

  std::span<const MetricDef> schema() const {
    if (trace_) return kPerLayer;
    return kEndToEnd;
  }

  /// Sets metric `name` of the active schema; throws on an unknown name.
  void add(std::string_view name, double value, std::uint64_t samples = 0) {
    const auto defs = schema();
    for (std::size_t i = 0; i < defs.size(); ++i) {
      if (name != defs[i].name) continue;
      values_[i] = Metric{std::isfinite(value) ? value : 0.0, samples, true};
      return;
    }
    throw std::logic_error("metric not in the schema: " + std::string(name));
  }

  const Metric& value(std::size_t i) const { return values_[i]; }

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }

  bool correct() const { return failed == 0 && attempted > 0; }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Fingerprint of the generated inputs, printed so tests can check that
  /// a seed fixes the inputs and another seed changes them.
  std::uint64_t inputs_digest = 0;
  std::vector<std::string> errors;  // the first few failure descriptions

 private:
  bool trace_;
  std::vector<Metric> values_;
};

}  // namespace perfbench
