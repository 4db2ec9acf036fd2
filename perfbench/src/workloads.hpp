// The benchmark's workloads.  Each runs in one process on one thread and
// fills a Report: the end-to-end metrics (trace off) or the per-layer
// metrics (trace on).
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_path;  // trace on: where the span log is written
};

/// aem_merge_sort of 2^20 uniform uint64 keys on a plain machine.
void run_sort_aem(const RunArgs& args, Report& rep, SpanLog* log);

/// The KV store behind the traffic engine on a D = 4 sharded machine:
/// zipf gets through an LRU cache, or a drifting hot set of puts, gets and
/// scans through a clean-first cache with transient faults.
void run_serve(const RunArgs& args, Report& rep, SpanLog* log);

}  // namespace perfbench
