#include "core/machine.hpp"

#include <stdexcept>

namespace aem {

Machine::Machine(Config cfg) : cfg_(cfg), ledger_(cfg.memory_elems) {
  cfg_.validate();
  if (cfg_.cache.capacity_blocks != 0)
    cache_ = std::make_unique<BlockCache>(cfg_.cache, cfg_.write_cost);
}

void Machine::reset_stats() {
  stats_ = IoStats{};
  clear_phase_stats();
  ledger_.reset_high_water();
  recovery_ = RecoveryStats{};
  if (wear_) wear_->clear();
  // Rewind the fault schedule too: a measured case that begins with
  // reset_stats() sees the same faults whether or not staging ran before.
  // (This also re-arms a fired crash point — the write clock restarts.)
  if (faults_) faults_->reset();
  // Cache COUNTERS reset; resident blocks and dirtiness are kept (they are
  // real state, and dropping dirtiness would silently lose deferred
  // writes).  Flush before reset for clean per-case accounting.
  if (cache_) cache_->reset_stats();
}

void Machine::install_faults(FaultConfig cfg) {
  faults_ = std::make_unique<FaultPolicy>(cfg);
}

std::uint32_t Machine::intern_phase(std::string_view name) {
  if (auto it = phase_ids_.find(name); it != phase_ids_.end())
    return it->second;
  const auto id = static_cast<std::uint32_t>(phase_names_.size());
  phase_names_.emplace_back(name);
  phase_ids_.emplace(phase_names_.back(), id);
  phase_totals_.emplace_back();
  phase_active_.push_back(0);
  return id;
}

Machine::PhaseScope::PhaseScope(Machine& mach, std::string_view name)
    : mach_(mach) {
  const std::uint32_t id = mach_.intern_phase(name);
  // Dedup decided once, here: a name already active contributes nothing to
  // attribute(), so the hot path never compares names.
  owns_slot_ = (mach_.phase_active_[id] == 0);
  if (owns_slot_) {
    mach_.phase_active_[id] = 1;
    mach_.active_phases_.push_back(id);
  }
}

Machine::PhaseScope::~PhaseScope() {
  if (owns_slot_) {
    // Scopes are strictly nested, so the owned id is the most recent one.
    mach_.phase_active_[mach_.active_phases_.back()] = 0;
    mach_.active_phases_.pop_back();
  }
}

std::map<std::string, IoStats> Machine::phase_stats() const {
  std::map<std::string, IoStats> out;
  for (std::size_t id = 0; id < phase_names_.size(); ++id) {
    const IoStats& s = phase_totals_[id];
    if (s.reads != 0 || s.writes != 0) out.emplace(phase_names_[id], s);
  }
  return out;
}

void Machine::clear_phase_stats() {
  // Zero the totals but keep names interned: ids held by live PhaseScopes
  // stay valid, and re-entered phases reuse their slot without rehashing.
  for (IoStats& s : phase_totals_) s = IoStats{};
}

const std::string& Machine::phase_name(std::uint32_t id) const {
  if (id >= phase_names_.size()) throw std::out_of_range("unknown phase id");
  return phase_names_[id];
}

const IoStats& Machine::phase_io(std::uint32_t id) const {
  if (id >= phase_totals_.size()) throw std::out_of_range("unknown phase id");
  return phase_totals_[id];
}

void Machine::enable_trace() { trace_ = std::make_unique<Trace>(); }

std::unique_ptr<Trace> Machine::take_trace() { return std::move(trace_); }

std::uint32_t Machine::register_array(std::string name) {
  arrays_.push_back(std::move(name));
  return static_cast<std::uint32_t>(arrays_.size() - 1);
}

const std::string& Machine::array_name(std::uint32_t id) const {
  if (id >= arrays_.size()) throw std::out_of_range("unknown array id");
  return arrays_[id];
}

IoTicket Machine::on_read(std::uint32_t array, std::uint64_t block) {
  ++stats_.reads;
  attribute(/*is_write=*/false);
  if (trace_) return trace_->add(OpKind::kRead, array, block);
  return IoTicket{};
}

IoTicket Machine::on_write(std::uint32_t array, std::uint64_t block) {
  ++stats_.writes;
  attribute(/*is_write=*/true);
  if (faults_) faults_->check_budget(stats_);
  if (wear_) record_wear(array, block);
  if (trace_) return trace_->add(OpKind::kWrite, array, block);
  return IoTicket{};
}

void Machine::submit(std::span<const BlockOp> ops) {
  for (const BlockOp& op : ops) {
    if (op.kind == OpKind::kWrite) {
      on_write(op.array, op.block);
    } else {
      on_read(op.array, op.block);
    }
  }
}

std::vector<ArrayWear> Machine::wear_by_array() const {
  std::vector<ArrayWear> out;
  if (!wear_) return out;
  for (std::size_t a = 0; a < wear_->size(); ++a) {
    ArrayWear aw = wear_row(static_cast<std::uint32_t>(a), (*wear_)[a]);
    if (aw.blocks_written == 0) continue;
    if (a < arrays_.size()) aw.name = arrays_[a];
    out.push_back(std::move(aw));
  }
  return out;
}

}  // namespace aem
