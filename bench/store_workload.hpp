// The KV-store input shared by the store benches (K1, F1, T1, W1): record
// headers and payload words built host-side, staged into a machine as the
// "input.slots" / "input.payload" arrays a KvStore::build consumes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/ext_array.hpp"
#include "core/machine.hpp"
#include "store/kv_store.hpp"
#include "util/rng.hpp"

namespace aem::bench {

/// Headers + payload of one store, plus the keys actually present (one
/// entry per record, duplicates included; empty when a bench derives its
/// keys otherwise).
struct StoreWorkload {
  std::vector<store::Slot> slots;
  std::vector<std::uint64_t> payload;
  std::vector<std::uint64_t> keys;
};

/// Mix: ~10% empty values, ~65% inline, ~25% spilled at 2..2B words; ~15%
/// of records overwrite an earlier key.  Keys are even, so odd keys are
/// guaranteed misses.  Deterministic in (records, seed, B).
inline StoreWorkload make_store_workload(std::size_t records,
                                         std::uint64_t seed, std::size_t B) {
  util::Rng rng(seed);
  StoreWorkload w;
  w.slots.reserve(records);
  w.keys.reserve(records);
  for (std::size_t i = 0; i < records; ++i) {
    std::uint64_t key;
    if (i > 0 && rng.below(100) < 15) {
      key = w.keys[rng.below(i)];
    } else {
      key = rng.next() & ~1ull;
    }
    w.keys.push_back(key);
    store::Slot s;
    s.key = key;
    const std::uint64_t kind = rng.below(100);
    if (kind < 10) {
      s.len = 0;
    } else if (kind < 75) {
      s.len = 1;
      s.pos = rng.next();
    } else {
      s.len = 2 + rng.below(2 * B - 1);
      s.pos = w.payload.size();
      for (std::uint64_t j = 0; j < s.len; ++j) w.payload.push_back(rng.next());
    }
    w.slots.push_back(s);
  }
  return w;
}

/// Stages the workload's headers and payload into fresh arrays of `mach`
/// (uncharged host fill).
inline void stage(Machine& mach, const StoreWorkload& w,
                  ExtArray<store::Slot>& slots,
                  ExtArray<std::uint64_t>& payload) {
  slots = ExtArray<store::Slot>(mach, w.slots.size(), "input.slots");
  slots.unsafe_host_fill(std::span<const store::Slot>(w.slots));
  payload = ExtArray<std::uint64_t>(mach, w.payload.size(), "input.payload");
  payload.unsafe_host_fill(std::span<const std::uint64_t>(w.payload));
}

}  // namespace aem::bench
