// I/O trace recording.
//
// A recorded trace is the executable counterpart of the paper's notion of a
// *program* (Section 2): a fixed sequence of block reads and writes.  Traces
// drive two pieces of lower-bound machinery:
//
//  * rounds/   — Lemma 4.1's round decomposition and round-based rewrite
//                only need the op sequence and each op's cost;
//  * flash/    — Lemma 4.3's simulation in the unit-cost flash model
//                additionally needs, per write, the identities of the atoms
//                placed in the block and, per read, which atoms the program
//                *uses* (the copies that eventually reach the output).
//
// Atom identities are opaque uint64 tags supplied by the algorithms that opt
// into atom tracking (the permutation programs do).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/stats.hpp"

namespace aem {

enum class OpKind : std::uint8_t { kRead, kWrite };

struct TraceOp {
  OpKind kind = OpKind::kRead;
  std::uint32_t array = 0;   // machine-assigned array id
  std::uint64_t block = 0;   // block index within the array
  /// For writes: atom ids stored in the block, in block order.  Empty unless
  /// the writing array has an atom extractor and tracing is enabled.
  std::vector<std::uint64_t> atoms;
  /// For reads: ids of atoms this read consumes (the copies kept in internal
  /// memory that eventually reach the output).  Filled by the algorithm via
  /// Trace::mark_used.
  std::vector<std::uint64_t> used;

  std::uint64_t cost(std::uint64_t omega) const {
    return kind == OpKind::kWrite ? omega : 1;
  }
};

/// Ticket identifying a trace entry; invalid() when tracing is off.
struct IoTicket {
  std::size_t index = std::numeric_limits<std::size_t>::max();
  bool valid() const { return index != std::numeric_limits<std::size_t>::max(); }
};

class Trace {
 public:
  IoTicket add(OpKind kind, std::uint32_t array, std::uint64_t block);

  /// Records the atoms written by op `t` (write ops only).
  void set_atoms(IoTicket t, std::vector<std::uint64_t> atoms);

  /// Marks atom `id` as consumed by read op `t`.
  void mark_used(IoTicket t, std::uint64_t id);

  std::size_t size() const { return ops_.size(); }
  const TraceOp& op(std::size_t i) const { return ops_[i]; }
  const std::vector<TraceOp>& ops() const { return ops_; }

  /// Aggregate counters over the whole trace.
  IoStats stats() const;

  /// Total cost sum over ops at the given omega.
  std::uint64_t cost(std::uint64_t omega) const;

  void clear() { ops_.clear(); }

 private:
  std::vector<TraceOp> ops_;
};

/// The write wear of a trace's program, one unnamed row per written array
/// in id order — what Machine::wear_by_array reports for a wear-tracked run
/// of the same program, names aside.  Counts are kept sparse: a rewritten
/// trace (rounds::make_round_based) writes array id 2^32 - 1.
std::vector<ArrayWear> wear_from_trace(const Trace& trace);

}  // namespace aem
