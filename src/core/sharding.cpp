#include "core/sharding.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace aem {

const char* to_string(Placement p) {
  switch (p) {
    case Placement::kRoundRobin: return "round-robin";
    case Placement::kRange: return "range";
  }
  return "?";
}

void ShardConfig::validate() const {
  frontend.validate();
  if (devices.empty())
    throw std::invalid_argument("ShardConfig: at least one device required");
  for (std::size_t d = 0; d < devices.size(); ++d) {
    const Config& dev = devices[d];
    try {
      dev.validate();
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("ShardConfig: device " + std::to_string(d) +
                                  ": " + e.what());
    }
    if (dev.cache.capacity_blocks != 0)
      throw std::invalid_argument(
          "ShardConfig: device " + std::to_string(d) +
          " configures a cache; caching lives above placement (put it on the "
          "frontend Config)");
    if (frontend.block_elems % dev.block_elems != 0)
      throw std::invalid_argument(
          "ShardConfig: device " + std::to_string(d) + " block size " +
          std::to_string(dev.block_elems) +
          " does not divide the frontend block size " +
          std::to_string(frontend.block_elems));
  }
  if (range_chunk_blocks == 0)
    throw std::invalid_argument("ShardConfig: range_chunk_blocks must be >= 1");
  std::vector<bool> seen(devices.size(), false);
  for (const OutageSpec& o : outages) {
    if (o.device >= devices.size())
      throw std::invalid_argument("ShardConfig: outage names device " +
                                  std::to_string(o.device) + " but only " +
                                  std::to_string(devices.size()) + " exist");
    if (seen[o.device])
      throw std::invalid_argument(
          "ShardConfig: more than one outage window for device " +
          std::to_string(o.device));
    seen[o.device] = true;
    if (o.up_at != 0 && o.up_at <= o.down_at)
      throw std::invalid_argument(
          "ShardConfig: outage window for device " + std::to_string(o.device) +
          " ends at op " + std::to_string(o.up_at) +
          ", not after it starts at op " + std::to_string(o.down_at));
  }
}

namespace {

// The wait schedule for reads against a down device: at most kOutageWaits
// rounds, round k charging min(2^(k-1), kOutagePollCap) frontend poll reads
// (1, 2, 4, ..., 64, 64: 191 polls before a FaultError).
constexpr std::size_t kOutageWaits = 8;
constexpr std::uint64_t kOutagePollCap = 64;

// ShardConfig::validate() must run BEFORE the Machine base is constructed
// (Machine(frontend) would accept a frontend whose device list is garbage);
// routing it through this helper sequences the check into the base
// initializer.
const Config& validated_frontend(const ShardConfig& cfg) {
  cfg.validate();
  return cfg.frontend;
}

}  // namespace

ShardedMachine::ShardedMachine(ShardConfig cfg)
    : Machine(validated_frontend(cfg)), scfg_(std::move(cfg)) {
  devices_.reserve(scfg_.devices.size());
  amp_.reserve(scfg_.devices.size());
  for (const Config& dev : scfg_.devices) {
    devices_.push_back(std::make_unique<Machine>(dev));
    amp_.push_back(scfg_.frontend.block_elems / dev.block_elems);
  }
  div_devices_ = util::FastDiv64(devices_.size());
  div_chunk_ = util::FastDiv64(scfg_.range_chunk_blocks);
  down_at_.assign(devices_.size(), 0);
  up_at_.assign(devices_.size(), 0);
  queued_.resize(devices_.size());
  ostats_.assign(devices_.size(), OutageStats{});
  for (const OutageSpec& o : scfg_.outages) {
    down_at_[o.device] = o.down_at;
    up_at_[o.device] = o.up_at;
    if (o.down_at != 0) outages_armed_ = true;
  }
}

bool ShardedMachine::device_down(std::size_t d) const {
  const std::uint64_t down = down_at_.at(d);
  if (down == 0) return false;
  const std::uint64_t clock = op_clock();
  return clock >= down && (up_at_[d] == 0 || clock < up_at_[d]);
}

void ShardedMachine::drain_recovered() {
  if (!outages_armed_) return;
  for (std::size_t d = 0; d < devices_.size(); ++d) {
    if (queued_[d].empty() || device_down(d)) continue;
    // FIFO replay at device prices.  Device charges never advance the
    // frontend op clock, so the window state is stable across the drain
    // and the replay is deterministic for any --jobs.
    std::vector<QueuedWrite> q;
    q.swap(queued_[d]);
    for (const QueuedWrite& w : q) devices_[d]->on_write(w.array, w.native);
    ostats_[d].drained_writes += q.size();
  }
}

void ShardedMachine::wait_for_device(std::size_t d, std::uint32_t array,
                                     std::uint64_t block) {
  OutageStats& os = ostats_[d];
  std::size_t attempt = 0;
  while (device_down(d)) {
    if (attempt == kOutageWaits) {
      ++os.failed_reads;
      throw FaultError(/*is_write=*/false, array, block, attempt + 1,
                       "device " + std::to_string(d) +
                           " is down and its outage window did not close "
                           "within the retry budget");
    }
    // Each wait round charges frontend poll reads, which advance the op
    // clock toward up_at.  The polls go through the plain Machine path:
    // phase-attributed and traced like any other read.
    const std::uint64_t polls =
        std::min<std::uint64_t>(std::uint64_t{1} << attempt, kOutagePollCap);
    ++attempt;
    ++os.wait_rounds;
    os.backoff_ios += polls;
    for (std::uint64_t i = 0; i < polls; ++i) Machine::on_read(array, block);
  }
  // The device is back; settle its deferred writes before serving reads
  // that may depend on them.
  drain_recovered();
}

ShardedMachine::Route ShardedMachine::route(std::uint64_t block) const {
  if (devices_.size() == 1) return Route{0, block};
  switch (scfg_.placement) {
    case Placement::kRoundRobin: {
      const auto qr = div_devices_.divmod(block);
      return Route{static_cast<std::size_t>(qr.rem), qr.quot};
    }
    case Placement::kRange: {
      const auto c = static_cast<std::uint64_t>(scfg_.range_chunk_blocks);
      const auto chunk = div_chunk_.divmod(block);  // quot = chunk, rem = off
      const auto dev = div_devices_.divmod(chunk.quot);
      return Route{static_cast<std::size_t>(dev.rem),
                   dev.quot * c + chunk.rem};
    }
  }
  return Route{0, block};
}

IoStats ShardedMachine::devices_stats() const {
  IoStats total;
  for (const auto& dev : devices_) total += dev->stats();
  return total;
}

std::uint64_t ShardedMachine::devices_cost() const {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t total = 0;
  for (const auto& dev : devices_) {
    if (__builtin_add_overflow(total, dev->cost(), &total)) return kMax;
  }
  return total;
}

double ShardedMachine::wear_spread() const {
  std::uint64_t total = 0;
  std::uint64_t max_writes = 0;
  for (const auto& dev : devices_) {
    const std::uint64_t w = dev->stats().writes;
    total += w;
    if (w > max_writes) max_writes = w;
  }
  if (total == 0) return 1.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(devices_.size());
  return static_cast<double>(max_writes) / mean;
}

void ShardedMachine::enable_device_wear_tracking() {
  for (auto& dev : devices_) dev->enable_wear_tracking();
}

std::uint32_t ShardedMachine::register_array(std::string name) {
  // Mirror the registration on every device so array ids line up across the
  // whole array (devices receive arrays only through this override).
  for (auto& dev : devices_) dev->register_array(name);
  return Machine::register_array(std::move(name));
}

void ShardedMachine::reset_stats() {
  Machine::reset_stats();
  for (auto& dev : devices_) dev->reset_stats();
  // The op clock restarts, so the outage windows re-arm; queued-but-
  // undrained deferred writes belong to the discarded measurement and are
  // dropped with it (drain_recovered() first if they must be settled).
  for (auto& q : queued_) q.clear();
  ostats_.assign(devices_.size(), OutageStats{});
}

IoTicket ShardedMachine::on_read(std::uint32_t array, std::uint64_t block) {
  // Facade first: frontend accounting must be byte-identical to a plain
  // Machine.
  const IoTicket ticket = Machine::on_read(array, block);
  const Route r = route(block);
  if (outages_armed_) {
    drain_recovered();
    if (device_down(r.device)) wait_for_device(r.device, array, block);
  }
  Machine& dev = *devices_[r.device];
  const std::uint64_t base = r.local * amp_[r.device];
  for (std::size_t j = 0; j < amp_[r.device]; ++j)
    dev.on_read(array, base + j);
  return ticket;
}

IoTicket ShardedMachine::on_write(std::uint32_t array, std::uint64_t block) {
  const IoTicket ticket = Machine::on_write(array, block);
  const Route r = route(block);
  if (outages_armed_) {
    drain_recovered();
    if (device_down(r.device)) {
      // The logical write is accepted (the frontend charged it — the
      // algorithm's Q is outage-independent); its native device transfers
      // are deferred until the device recovers.
      const std::uint64_t base = r.local * amp_[r.device];
      auto& q = queued_[r.device];
      for (std::size_t j = 0; j < amp_[r.device]; ++j)
        q.push_back(QueuedWrite{array, base + j});
      ostats_[r.device].queued_writes += amp_[r.device];
      return ticket;
    }
  }
  Machine& dev = *devices_[r.device];
  const std::uint64_t base = r.local * amp_[r.device];
  for (std::size_t j = 0; j < amp_[r.device]; ++j)
    dev.on_write(array, base + j);
  return ticket;
}

}  // namespace aem
