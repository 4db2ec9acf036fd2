// perfbench: host-time benchmark of the AEM simulator and the serving stack
// built on it.
//
//   perfbench --workload <sort_aem|serve_zipf_read|serve_hotset_write>
//             --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//
// Prints a table of every metric (name, value, unit, sample count) and, as
// the last line of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, and the span log is written to --spans.  Exits 1 when any
// output was wrong, 2 on bad arguments.
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <map>
#include <string>
#include <string_view>

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

bool parse_u64(std::string_view s, std::uint64_t& out) {
  const auto* end = s.data() + s.size();
  const auto r = std::from_chars(s.data(), end, out);
  return r.ec == std::errc{} && r.ptr == end && !s.empty();
}

bool parse_args(int argc, char** argv, RunArgs& a) {
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return false;
    const std::string_view flag = argv[i];
    const std::string_view val = argv[i + 1];
    std::uint64_t v = 0;
    if (flag == "--workload") {
      a.workload = val;
      have_workload = a.workload == "sort_aem" || a.workload == "serve_zipf_read" ||
                      a.workload == "serve_hotset_write";
    } else if (flag == "--seed") {
      have_seed = parse_u64(val, a.seed);
    } else if (flag == "--seconds") {
      have_seconds = parse_u64(val, v) && v > 0 && v <= 600;
      a.seconds = static_cast<double>(v);
    } else if (flag == "--trace") {
      have_trace = parse_u64(val, v) && v <= 1;
      a.trace = v == 1;
    } else if (flag == "--spans") {
      a.spans_path = val;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds && have_trace &&
         (!a.trace || !a.spans_path.empty());
}

/// Self time per span name, after checking that children never exceed
/// their parents.  Writes the span log.
void finish_spans(const SpanLog& log, const std::string& path, Report& rep) {
  std::vector<std::int64_t> self;
  try {
    self = log.self_times();
  } catch (const std::exception& e) {
    rep.fail(std::string("span check: ") + e.what());
    return;
  }
  log.write_jsonl(path, self);
  struct Agg {
    std::uint64_t count = 0;
    std::int64_t self_ns = 0;
  };
  std::map<std::string, Agg> by_name;
  for (std::size_t i = 0; i < self.size(); ++i) {
    Agg& a = by_name[log.spans()[i].name];
    ++a.count;
    a.self_ns += self[i];
  }
  std::printf("spans: %zu written to %s (%llu per-request spans past the cap not kept)\n",
              self.size(), path.c_str(), static_cast<unsigned long long>(log.dropped()));
  std::printf("  %-28s %10s %14s\n", "span", "count", "self_ms");
  for (const auto& [name, a] : by_name)
    std::printf("  %-28s %10llu %14.3f\n", name.c_str(),
                static_cast<unsigned long long>(a.count),
                static_cast<double>(a.self_ns) / 1e6);
}

void print(const RunArgs& args, Report& rep) {
  if (!args.trace) {
    const double ratio = rep.attempted == 0 ? 1.0
                                            : static_cast<double>(rep.failed) /
                                                  static_cast<double>(rep.attempted);
    rep.add("fail_ratio", ratio, rep.attempted);
  }
  const auto defs = rep.schema();
  std::printf("workload=%s seed=%llu seconds=%g trace=%d inputs=%016llx\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, static_cast<unsigned long long>(rep.inputs_digest));
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const Metric& m = rep.value(i);
    std::printf("  %-30s %18.6f %-6s", defs[i].name, m.value, defs[i].unit);
    if (!m.set) {
      std::printf(" (not reported by this workload)");
    } else if (m.samples != 0) {
      std::printf(" (n=%llu)", static_cast<unsigned long long>(m.samples));
    }
    std::printf("\n");
  }
  for (const std::string& e : rep.errors) std::printf("  FAILED: %s\n", e.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              rep.correct() ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  bool first = true;
  for (std::size_t i = 0; i < defs.size(); ++i) {
    if (!defs[i].json) continue;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                defs[i].name, rep.value(i).value, defs[i].unit);
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <sort_aem|serve_zipf_read|"
                 "serve_hotset_write> --seed <n> --seconds <1..600> --trace <0|1> "
                 "[--spans <file>, required with --trace 1]\n");
    return 2;
  }
  Report rep(args.trace);
  SpanLog spans;
  SpanLog* log = args.trace ? &spans : nullptr;
  try {
    if (args.workload == "sort_aem") {
      run_sort_aem(args, rep, log);
    } else {
      run_serve(args, rep, log);
    }
    if (log != nullptr) finish_spans(spans, args.spans_path, rep);
  } catch (const std::exception& e) {
    rep.fail(std::string("exception: ") + e.what());
  }
  print(args, rep);
  return rep.correct() ? 0 : 1;
}
