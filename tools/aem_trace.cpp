// aem_trace — inspect a recorded AEM program (trace) offline.
//
//   aem_trace --file=prog.trace --omega=8 --m=16 [--rounds] [--rewrite]
//             [--json=out.json]
//
// Reads a trace in the core/trace_io.hpp text format and prints its I/O
// statistics; with --rounds, its Section 4 round decomposition; with
// --rewrite, the Lemma 4.1 round-based rewrite and the measured constant;
// with --json, a machine-metrics snapshot (the schema of the bench
// --metrics output, MetricsSnapshot::kSchema) including the write-wear
// histogram reconstructed from the trace.  Traces are produced by any
// Machine with tracing enabled and write_trace(); see
// examples/permute_pipeline.cpp.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <new>

#include "core/metrics.hpp"
#include "core/trace.hpp"
#include "core/trace_io.hpp"
#include "rounds/rounds.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

// Renders a recorded trace in the machine-metrics schema: I/O counters and
// cost directly, the wear section reconstructed by replaying write targets.
aem::MetricsSnapshot trace_metrics(const aem::Trace& trace,
                                   const std::string& path,
                                   std::uint64_t omega, std::size_t m) {
  using namespace aem;
  MetricsSnapshot s;
  s.label = "trace:" + path;
  s.write_cost = omega;
  s.block_elems = 0;  // unknown from a bare trace
  s.memory_elems = m;  // in blocks here; config section is advisory
  s.io = trace.stats();
  s.cost = trace.cost(omega);
  s.trace_enabled = true;
  s.trace_ops = trace.size();
  s.wear_enabled = true;
  s.wear_arrays = wear_from_trace(trace);
  s.wear = total_wear(s.wear_arrays);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace aem;
  try {
    util::Cli cli(argc, argv);
    const std::string path = cli.str("file", "");
    const std::uint64_t omega = cli.u64("omega", 1);
    const std::size_t m = cli.u64("m", 16);
    const std::string json = cli.str("json", "");
    const bool show_rounds = cli.flag("rounds");
    const bool rewrite = cli.flag("rewrite");
    cli.reject_unknown_flags();
    if (path.empty()) {
      std::cerr << "usage: aem_trace --file=prog.trace --omega=W --m=M_blocks"
                   " [--rounds] [--rewrite] [--json=FILE]\n";
      return 2;
    }

    std::ifstream in(path);
    if (!in) {
      std::cerr << "aem_trace: cannot open " << path << "\n";
      return 2;
    }
    Trace trace = read_trace(in);

    const IoStats s = trace.stats();
    std::uint64_t used_atoms = 0, written_atoms = 0;
    for (const TraceOp& op : trace.ops()) {
      used_atoms += op.used.size();
      written_atoms += op.atoms.size();
    }
    std::cout << "ops            : " << trace.size() << "\n"
              << "reads          : " << s.reads << "\n"
              << "writes         : " << s.writes << "\n"
              << "cost (omega=" << omega << "): " << trace.cost(omega) << "\n"
              << "atoms written  : " << written_atoms << "\n"
              << "atoms consumed : " << used_atoms << "\n";

    if (!json.empty()) {
      std::ofstream os(json);
      if (!os) {
        std::cerr << "aem_trace: cannot write " << json << "\n";
        return 2;
      }
      write_json(os, trace_metrics(trace, path, omega, m));
      os << "\n";
      std::cout << "metrics snapshot written to " << json << "\n";
    }

    if (show_rounds) {
      auto rounds = rounds::split_rounds(trace, m, omega);
      std::cout << "\nround decomposition (budget omega*m = " << omega * m
                << "):\n  rounds: " << rounds.size() << "\n";
      std::uint64_t min_cost = UINT64_MAX, max_cost = 0;
      for (const auto& r : rounds) {
        min_cost = std::min(min_cost, r.cost);
        max_cost = std::max(max_cost, r.cost);
      }
      std::cout << "  round cost range: [" << min_cost << ", " << max_cost
                << "]\n  valid: "
                << (rounds::validate_rounds(trace, rounds, m, omega) ? "yes"
                                                                     : "NO")
                << "\n";
    }

    if (rewrite) {
      auto rb = rounds::make_round_based(trace, m, omega);
      std::cout << "\nLemma 4.1 rewrite (onto the 2M machine):\n"
                << "  cost " << rb.original_cost << " -> "
                << rb.transformed_cost << "  (factor " << rb.cost_factor()
                << ")\n  rounds: " << rb.rounds.size() << "\n";
    }
    return 0;
  } catch (const std::bad_alloc&) {
    // A corrupt trace can still imply absurd per-line id lists; fail with a
    // clear message instead of an unhandled-exception abort.
    std::cerr << "aem_trace: out of memory reading trace (corrupt file?)\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "aem_trace: " << e.what() << "\n";
    return 1;
  }
}
