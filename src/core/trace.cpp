#include "core/trace.hpp"

#include <cassert>
#include <map>
#include <ranges>

namespace aem {

IoTicket Trace::add(OpKind kind, std::uint32_t array, std::uint64_t block) {
  ops_.push_back(TraceOp{kind, array, block, {}, {}});
  return IoTicket{ops_.size() - 1};
}

void Trace::set_atoms(IoTicket t, std::vector<std::uint64_t> atoms) {
  assert(t.valid() && t.index < ops_.size());
  assert(ops_[t.index].kind == OpKind::kWrite);
  ops_[t.index].atoms = std::move(atoms);
}

void Trace::mark_used(IoTicket t, std::uint64_t id) {
  assert(t.valid() && t.index < ops_.size());
  assert(ops_[t.index].kind == OpKind::kRead);
  ops_[t.index].used.push_back(id);
}

IoStats Trace::stats() const {
  IoStats s;
  for (const auto& op : ops_) {
    if (op.kind == OpKind::kRead) {
      ++s.reads;
    } else {
      ++s.writes;
    }
  }
  return s;
}

std::uint64_t Trace::cost(std::uint64_t omega) const {
  std::uint64_t q = 0;
  for (const auto& op : ops_) q += op.cost(omega);
  return q;
}

std::vector<ArrayWear> wear_from_trace(const Trace& trace) {
  std::map<std::uint32_t, std::map<std::uint64_t, std::uint64_t>> writes;
  for (const TraceOp& op : trace.ops())
    if (op.kind == OpKind::kWrite) ++writes[op.array][op.block];
  std::vector<ArrayWear> rows;
  for (const auto& [array, blocks] : writes)
    rows.push_back(wear_row(array, std::views::values(blocks)));
  return rows;
}

}  // namespace aem
