// Shared scaffolding for the experiment binaries (see DESIGN.md section 3).
//
// Every binary prints a header naming the paper claim it reproduces, one or
// more tables in paper style, and (with --csv=FILE) a machine-readable
// duplicate.  Default grids are sized to finish in seconds on one core;
// --full enlarges them, and --jobs=N runs the sweep grid on N worker threads
// via harness/parallel_sweep with BYTE-IDENTICAL output for every N
// (tables, CSVs, and metrics logs; see docs/MODEL.md section 12).
#pragma once

#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/ext_array.hpp"
#include "core/machine.hpp"
#include "core/metrics.hpp"
#include "harness/parallel_sweep.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace aem::bench {

inline Config make_config(std::size_t M, std::size_t B, std::uint64_t omega) {
  Config cfg;
  cfg.memory_elems = M;
  cfg.block_elems = B;
  cfg.write_cost = omega;
  return cfg;
}

/// Stages n random keys into a fresh external array.  The Rng should be the
/// sweep point's PRIVATE generator (PointContext::rng()): per-point seeds
/// derive from (base seed, point index) alone, so the staged data — and
/// therefore every table — is independent of grid iteration order and of
/// --jobs.  Threading one shared Rng through a sweep would make each
/// point's input depend on how many points ran before it.
inline ExtArray<std::uint64_t> staged_keys(Machine& mach, std::size_t n,
                                           util::Rng& rng,
                                           const char* name = "in") {
  ExtArray<std::uint64_t> arr(mach, n, name);
  arr.unsafe_host_fill(util::random_keys(n, rng));
  return arr;
}

/// Prints the experiment banner.
inline void banner(const std::string& id, const std::string& claim) {
  std::cout << "=== " << id << " — " << claim << " ===\n\n";
}

/// Append-semantics file sink that is also crash-safe: the first append to
/// a path in this process starts its content fresh (so re-running a bench
/// replaces its CSV/metrics log instead of growing it), later appends
/// extend it.  Every append rewrites the file's full accumulated content to
/// `path + ".tmp"` and atomically renames it over `path`, so a reader (or a
/// crash — the failure mode this library spends a whole bench simulating)
/// never observes a half-written file: the old content stays intact until
/// the new content is durably in place.  Mutex-guarded, so concurrent
/// emitters can neither interleave partial payloads nor double-truncate —
/// the hazard the old function-local `static std::vector<std::string>
/// seen` in emit() had baked in.
class CsvSink {
 public:
  void append(const std::string& path, const std::string& payload) {
    if (path.empty()) return;
    const std::lock_guard<std::mutex> lock(mu_);
    std::string& content = files_[path];  // fresh paths start empty
    content += payload;
    const std::string tmp = path + ".tmp";
    {
      std::ofstream os(tmp, std::ios::trunc | std::ios::binary);
      os << content;
      if (!os) return;  // keep the last good version of `path` intact
    }
    std::rename(tmp.c_str(), path.c_str());
  }

 private:
  std::mutex mu_;
  std::map<std::string, std::string> files_;  // accumulated content per path
};

/// The process-wide sink all emit helpers share.
inline CsvSink& csv_sink() {
  static CsvSink sink;
  return sink;
}

/// Prints a table and optionally appends it as CSV to `csv_path` (first
/// emit of a run truncates the file; several tables per binary).
inline void emit(const util::Table& t, const std::string& title,
                 const std::string& csv_path) {
  std::cout << title << "\n";
  t.print(std::cout);
  std::cout << "\n";
  if (!csv_path.empty()) {
    std::ostringstream os;
    os << "# " << title << "\n";
    t.print_csv(os);
    csv_sink().append(csv_path, os.str());
  }
}

/// Checks one already-taken metrics snapshot (check_metrics throws
/// std::logic_error on a broken identity, which the bench's main turns into
/// a nonzero exit) and appends it as one line to `path` through the sink.
/// No-op when `path` is empty, so benches can call it unconditionally and
/// let --metrics=FILE opt in.
inline void append_metrics(const MetricsSnapshot& snap,
                           const std::string& path) {
  if (path.empty()) return;
  check_metrics(snap);
  std::ostringstream os;
  write_json(os, snap);
  os << "\n";
  csv_sink().append(path, os.str());
}

/// Snapshots `mach` now and appends it to `path` (serial convenience for
/// code outside a sweep; inside a sweep use PointContext::metrics so
/// snapshots replay in point order).
inline void emit_metrics(const Machine& mach, const std::string& label,
                         const std::string& path) {
  if (path.empty()) return;
  append_metrics(snapshot_metrics(mach, label), path);
}

/// The flags every experiment binary shares, parsed once.  They are the
/// only flags a bench takes: bench_io rejects any other.
struct BenchIo {
  std::string csv;              ///< --csv=FILE (empty: no CSV)
  std::string metrics;          ///< --metrics=FILE (empty: no metrics log)
  bool full = false;            ///< --full: larger grids
  std::uint64_t seed = 0;       ///< --seed: the sweep's base seed
  harness::SweepConfig sweep;   ///< jobs (--jobs) + base_seed
};

inline BenchIo bench_io(const util::Cli& cli, std::uint64_t default_seed) {
  BenchIo io;
  io.csv = cli.str("csv", "");
  io.metrics = cli.str("metrics", "");
  io.full = cli.flag("full");
  io.seed = cli.u64("seed", default_seed);
  io.sweep.jobs = cli.jobs();
  io.sweep.base_seed = io.seed;
  cli.reject_unknown_flags();
  return io;
}

/// Replays per-point results in point order: rows into `t` (when non-null)
/// and snapshots into the metrics log.  Called after run_sweep drains, on
/// the calling thread — emission order is the grid order, never the
/// scheduling order.
inline void replay(std::vector<harness::PointResult> results, util::Table* t,
                   const std::string& metrics_path) {
  for (harness::PointResult& r : results) {
    if (t != nullptr)
      for (std::vector<std::string>& row : r.rows) t->add_row(std::move(row));
    for (const MetricsSnapshot& s : r.snapshots)
      append_metrics(s, metrics_path);
  }
}

/// Runs `fn` over `points` sweep points on io.sweep.jobs workers and
/// replays rows/metrics in point order.  The one-liner for benches whose
/// rows are computed entirely within a point; benches with cross-point
/// logic call harness::run_sweep directly and post-process the results.
template <class Fn>
void sweep_table(const BenchIo& io, std::size_t points, util::Table& t,
                 Fn&& fn) {
  replay(harness::run_sweep(points, io.sweep, std::forward<Fn>(fn)), &t,
         io.metrics);
}

/// A bench's exit status from its rows' PASS verdicts, one per row in point
/// order (empty: the row passed): prints a `FAIL: <verdict>` line on stderr
/// per failed row, and returns 1 if any row failed.  Stdout is untouched.
inline int report_fails(const std::string& bench,
                        const std::vector<std::string>& fails) {
  bool ok = true;
  for (const std::string& f : fails) {
    if (f.empty()) continue;
    std::cerr << "FAIL: " << f << "\n";
    ok = false;
  }
  if (ok) return 0;
  std::cerr << bench << ": FAILED (a row broke its PASS criterion)\n";
  return 1;
}

}  // namespace aem::bench
