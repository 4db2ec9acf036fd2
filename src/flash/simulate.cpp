#include "flash/simulate.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace aem::flash {

namespace {

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

/// One written (or initial) image of an external block: its atoms and, for
/// each, the index of the read op that consumes it.
struct BlockInstance {
  std::vector<std::uint64_t> atoms;
  std::vector<std::uint64_t> removal;  // per atom; kNever if unconsumed

  explicit BlockInstance(std::vector<std::uint64_t> a)
      : atoms(std::move(a)), removal(atoms.size(), kNever) {}
};

using BlockKey = std::pair<std::uint32_t, std::uint64_t>;

struct KeyHash {
  std::size_t operator()(const BlockKey& k) const {
    return std::hash<std::uint64_t>()(
        (static_cast<std::uint64_t>(k.first) << 40) ^ k.second);
  }
};

}  // namespace

FlashSimResult simulate_permutation_trace(
    const Trace& trace, std::span<const std::uint64_t> input_atoms,
    std::uint32_t input_array, std::uint64_t B, std::uint64_t omega) {
  const FlashConfig cfg = FlashConfig::for_aem(B, omega);
  FlashMachine flash(cfg);
  FlashSimResult result;
  result.N = input_atoms.size();
  result.aem_cost = trace.cost(omega);

  // Pass 1: replay the trace, building block instances and removal times.
  // A read op belongs to the most recent instance of its (array, block).
  std::unordered_map<BlockKey, std::vector<BlockInstance>, KeyHash> history;
  // For each op index: which instance (key + index) it operates on.
  std::vector<std::pair<BlockKey, std::size_t>> op_instance(trace.size(),
                                                            {{0, 0}, SIZE_MAX});

  // Seed the input array's initial blocks.
  for (std::uint64_t b = 0; b * B < input_atoms.size(); ++b) {
    const std::uint64_t lo = b * B;
    const std::uint64_t hi =
        std::min<std::uint64_t>(input_atoms.size(), lo + B);
    history[{input_array, b}].emplace_back(std::vector<std::uint64_t>(
        input_atoms.begin() + lo, input_atoms.begin() + hi));
  }

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const TraceOp& op = trace.op(i);
    const BlockKey key{op.array, op.block};
    auto& chain = history[key];
    if (op.kind == OpKind::kWrite) {
      if (!op.atoms.empty() && !chain.empty()) {
        // Atoms of the previous image that never got consumed and do not
        // reappear are destroyed (should be none in a permutation program).
        const BlockInstance& prev = chain.back();
        for (std::size_t a = 0; a < prev.atoms.size(); ++a) {
          if (prev.removal[a] != kNever) continue;
          if (std::find(op.atoms.begin(), op.atoms.end(), prev.atoms[a]) ==
              op.atoms.end())
            ++result.destroyed_atoms;
        }
      }
      chain.emplace_back(op.atoms);
      op_instance[i] = {key, chain.size() - 1};
    } else {
      if (op.used.empty()) continue;  // bookkeeping read: no atoms move
      if (chain.empty())
        throw std::logic_error(
            "flash sim: read with use-set from a never-written block");
      BlockInstance& inst = chain.back();
      op_instance[i] = {key, chain.size() - 1};
      for (std::uint64_t id : op.used) {
        bool found = false;
        for (std::size_t a = 0; a < inst.atoms.size(); ++a) {
          if (inst.atoms[a] == id && inst.removal[a] == kNever) {
            inst.removal[a] = i;
            found = true;
            break;
          }
        }
        if (!found)
          throw std::logic_error(
              "flash sim: read consumes an atom its block does not hold");
      }
    }
  }

  // Pass 2: normalize every instance — atom positions sorted by removal
  // time (program writes are free to order this way; the input costs the
  // 2N scan).  Then replay each op against the flash machine.
  for (auto& [key, chain] : history) {
    for (auto& inst : chain) {
      std::vector<std::size_t> order(inst.atoms.size());
      for (std::size_t a = 0; a < order.size(); ++a) order[a] = a;
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t x, std::size_t y) {
                         return inst.removal[x] < inst.removal[y];
                       });
      std::vector<std::uint64_t> atoms(order.size());
      std::vector<std::uint64_t> removal(order.size());
      for (std::size_t a = 0; a < order.size(); ++a) {
        atoms[a] = inst.atoms[order[a]];
        removal[a] = inst.removal[order[a]];
      }
      inst.atoms = std::move(atoms);
      inst.removal = std::move(removal);
    }
  }

  flash.scan(2 * result.N);  // the P'_A input-normalization pre-pass

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const TraceOp& op = trace.op(i);
    if (op.kind == OpKind::kWrite) {
      flash.write_big();
      continue;
    }
    if (op.used.empty()) continue;
    const auto [key, idx] = op_instance[i];
    if (idx == SIZE_MAX) continue;
    const BlockInstance& inst = history[key][idx];
    // The atoms removed by op i occupy a contiguous normalized interval.
    std::size_t lo = inst.atoms.size(), hi = 0;
    for (std::size_t a = 0; a < inst.atoms.size(); ++a) {
      if (inst.removal[a] == i) {
        lo = std::min(lo, a);
        hi = std::max(hi, a + 1);
      }
    }
    if (hi <= lo)
      throw std::logic_error("flash sim: lost removal interval");
    if (hi - lo != op.used.size())
      throw std::logic_error(
          "flash sim: used atoms not contiguous after normalization");
    // Cover [lo, hi) with small blocks of size B/omega.
    const std::uint64_t rb = cfg.read_block;
    const std::uint64_t first = lo / rb;
    const std::uint64_t last = (hi + rb - 1) / rb;
    flash.read_small(last - first);
  }

  static_cast<FlashCounts&>(result) = flash.counts();
  return result;
}

}  // namespace aem::flash
