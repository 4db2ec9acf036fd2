#include "core/cache.hpp"

#include <algorithm>
#include <string>
#include <utility>

namespace aem {

const char* to_string(CachePolicy p) {
  switch (p) {
    case CachePolicy::kLru: return "lru";
    case CachePolicy::kClock: return "clock";
    case CachePolicy::kCleanFirst: return "clean-first";
  }
  return "?";
}

BlockCache::BlockCache(CacheConfig cfg, std::uint64_t omega) : cfg_(cfg) {
  if (cfg_.capacity_blocks == 0)
    throw std::invalid_argument(
        "BlockCache: capacity 0 is bypass mode — install no cache instead");
  if (cfg_.capacity_blocks >= kNil)
    throw std::invalid_argument("BlockCache: capacity too large");
  frames_.resize(cfg_.capacity_blocks);
  // Free slots popped back-to-front, so frame 0 is used first (stable,
  // deterministic layout for tests and the CLOCK hand).
  free_.resize(cfg_.capacity_blocks);
  for (std::size_t i = 0; i < free_.size(); ++i)
    free_[i] = static_cast<std::uint32_t>(free_.size() - 1 - i);
  // omega == 1: the window stays 0 and kCleanFirst is exact LRU.
  if (cfg_.policy == CachePolicy::kCleanFirst && omega > 1) {
    const std::size_t cap = cfg_.capacity_blocks;
    window_ = cap - std::max<std::size_t>(
                        1, cap / static_cast<std::size_t>(
                               std::min<std::uint64_t>(omega, cap)));
  }
}

void BlockCache::list_push_front(std::uint32_t frame) {
  Frame& f = frames_[frame];
  f.prev = kNil;
  f.next = head_;
  if (head_ != kNil) frames_[head_].prev = frame;
  head_ = frame;
  if (tail_ == kNil) tail_ = frame;
}

void BlockCache::list_unlink(std::uint32_t frame) {
  Frame& f = frames_[frame];
  if (f.prev != kNil) {
    frames_[f.prev].next = f.next;
  } else {
    head_ = f.next;
  }
  if (f.next != kNil) {
    frames_[f.next].prev = f.prev;
  } else {
    tail_ = f.prev;
  }
  f.prev = f.next = kNil;
}

void BlockCache::touch(std::uint32_t frame) {
  switch (cfg_.policy) {
    case CachePolicy::kClock:
      frames_[frame].ref = true;
      break;
    case CachePolicy::kLru:
      if (head_ != frame) {
        list_unlink(frame);
        list_push_front(frame);
      }
      break;
    case CachePolicy::kCleanFirst: {
      // Runs even when `frame` is already the head: a write hit may just
      // have dirtied the coldest clean frame.
      Frame& f = frames_[frame];
      if (frame == clean_lru_) {
        advance_clean_lru(f.prev);
      } else if (f.cold && clean_lru_ != kNil) {
        leave_cold_run(f);  // now warmer than clean_lru_
      }
      if (head_ != frame) {
        list_unlink(frame);
        list_push_front(frame);
      }
      if (clean_lru_ == kNil) {
        // Every other frame is dirty: the head is either the coldest clean
        // frame or one more member of the all-dirty cold run.
        if (!f.dirty) {
          clean_lru_ = frame;
        } else if (!f.cold) {
          join_cold_run(f);
        }
      }
      break;
    }
  }
}

void BlockCache::advance_clean_lru(std::uint32_t frame) {
  // Amortized O(1): a frame joins the cold run here at most once per time
  // it left it (touch) or entered the pool (insert).
  while (frame != kNil && frames_[frame].dirty) {
    join_cold_run(frames_[frame]);
    frame = frames_[frame].prev;
  }
  clean_lru_ = frame;
}

void BlockCache::rebuild_cold_run() {
  if (cfg_.policy != CachePolicy::kCleanFirst) return;
  for (Frame& f : frames_) f.cold = false;
  cold_run_ = 0;
  advance_clean_lru(tail_);
}

std::uint32_t BlockCache::pick_victim() {
  switch (cfg_.policy) {
    case CachePolicy::kClock: {
      // Second chance: sweep the frame table circularly, clearing
      // reference bits; the first unreferenced valid frame is the victim.
      // Terminates: one full sweep clears every bit.
      for (;;) {
        Frame& f = frames_[clock_hand_];
        const std::size_t here = clock_hand_;
        clock_hand_ = (clock_hand_ + 1) % frames_.size();
        if (!f.valid) continue;
        if (f.ref) {
          f.ref = false;
          continue;
        }
        return static_cast<std::uint32_t>(here);
      }
    }
    case CachePolicy::kCleanFirst:
      // The coldest clean frame if it lies within window() frames of the
      // cold end — exactly what scanning the window would find; a clean
      // eviction costs at most one future read, a dirty one a certain
      // omega-priced write-back.  No clean frame in the window (or window
      // 0, the omega = 1 degeneration): plain LRU.
      return clean_lru_ != kNil && cold_run_ < window_ ? clean_lru_ : tail_;
    case CachePolicy::kLru:
      return tail_;
  }
  return tail_;
}

BlockCache::Sink& BlockCache::sink_for(std::uint32_t array,
                                       std::uint64_t block,
                                       const char* who) const {
  if (arrays_[array].sink == nullptr)
    throw std::logic_error(
        std::string("BlockCache::") + who + ": dirty block " +
        std::to_string(block) + " of array " + std::to_string(array) +
        " has no write-back sink (array destroyed or never registered)");
  return *arrays_[array].sink;
}

void BlockCache::evict_one() {
  const std::uint32_t v = pick_victim();
  Frame& f = frames_[v];
  if (f.dirty) {
    // May throw (CrashError, FaultError): nothing has been mutated
    // yet, so the victim simply stays resident and dirty.
    sink_for(f.array, f.block, "evict_one").cache_write_back(f.block);
    ++stats_.write_backs;
    ++stats_.evictions_dirty;
    --resident_dirty_;
    f.dirty = false;
  } else {
    ++stats_.evictions_clean;
  }
  if (v == clean_lru_) {
    advance_clean_lru(f.prev);
  } else if (f.cold) {
    leave_cold_run(f);
  }
  ArrayIndex& owner = arrays_[f.array];
  owner.frame_of[f.block] = kNil;
  --owner.resident;
  list_unlink(v);
  f.valid = false;
  f.ref = false;
  --resident_;
  free_.push_back(v);
}

void BlockCache::insert(std::uint32_t array, std::uint64_t block, bool dirty,
                        Sink* sink) {
  if (array >= arrays_.size()) arrays_.resize(array + 1);
  arrays_[array].sink = sink;
  if (free_.empty()) evict_one();
  const std::uint32_t slot = free_.back();
  free_.pop_back();
  Frame& f = frames_[slot];
  f.array = array;
  f.block = block;
  f.valid = true;
  f.dirty = dirty;
  f.ref = true;
  list_push_front(slot);
  if (cfg_.policy == CachePolicy::kCleanFirst && clean_lru_ == kNil) {
    if (dirty) {
      join_cold_run(f);
    } else {
      clean_lru_ = slot;
    }
  }
  ArrayIndex& owner = arrays_[array];
  if (block >= owner.frame_of.size())
    owner.frame_of.resize(
        std::max<std::uint64_t>(block + 1, 2 * owner.frame_of.size()), kNil);
  owner.frame_of[block] = slot;
  ++owner.resident;
  ++resident_;
  if (dirty) ++resident_dirty_;
}

void BlockCache::move_sink(std::uint32_t array, Sink* sink) {
  if (array < arrays_.size()) arrays_[array].sink = sink;
}

std::size_t BlockCache::flush() {
  ++stats_.flushes;
  // Deterministic order regardless of frame placement: collect and sort.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> dirty_blocks;
  dirty_blocks.reserve(resident_dirty_);
  for (const Frame& f : frames_)
    if (f.valid && f.dirty) dirty_blocks.emplace_back(f.array, f.block);
  std::sort(dirty_blocks.begin(), dirty_blocks.end());
  // One charged write-back per block, in sorted (array, block) order.  A
  // block is marked clean only after its write-back returns, so a throw
  // leaves the failing block and every later one dirty for a retry.
  // However the loop exits, the frames it cleaned move the clean-first
  // cursor: rebuild it on the way out (flush is O(capacity) already).
  struct CursorRebuild {
    BlockCache* cache;
    ~CursorRebuild() { cache->rebuild_cold_run(); }
  } rebuild_on_exit{this};
  std::size_t written = 0;
  for (const auto& [array, block] : dirty_blocks) {
    sink_for(array, block, "flush").cache_write_back(block);
    frames_[lookup(array, block)].dirty = false;
    --resident_dirty_;
    ++stats_.write_backs;
    ++written;
  }
  return written;
}

void BlockCache::invalidate_array(std::uint32_t array) {
  // The array's storage — and with it the Sink the array implements — is
  // going away.  Forget the sink FIRST, even when no blocks are resident:
  // leaving the pointer behind would dangle into the destroyed ExtArray,
  // an armed use-after-free for any later evict_one()/flush() that touches
  // this slot.
  if (array >= arrays_.size()) return;
  ArrayIndex& owner = arrays_[array];
  owner.sink = nullptr;
  // Release the table's memory, not just its contents: ids are never
  // reused, so a cleared table would pin host memory for every destroyed
  // temporary.
  std::vector<std::uint32_t>().swap(owner.frame_of);
  if (owner.resident == 0) return;
  owner.resident = 0;
  // Frame-order sweep: the order frames return to free_ decides later
  // placement (and the CLOCK hand's path), so it must be deterministic.
  for (std::uint32_t v = 0; v < frames_.size(); ++v) {
    Frame& f = frames_[v];
    if (!f.valid || f.array != array) continue;
    if (f.dirty) {
      ++stats_.invalidated_dirty;
      --resident_dirty_;
    }
    list_unlink(v);
    f.valid = false;
    f.dirty = false;
    f.ref = false;
    --resident_;
    free_.push_back(v);
  }
  rebuild_cold_run();
}

bool BlockCache::contains(std::uint32_t array, std::uint64_t block) const {
  return lookup(array, block) != kNil;
}

bool BlockCache::has_sink(std::uint32_t array) const {
  return array < arrays_.size() && arrays_[array].sink != nullptr;
}

bool BlockCache::dirty(std::uint32_t array, std::uint64_t block) const {
  const std::uint32_t frame = lookup(array, block);
  return frame != kNil && frames_[frame].dirty;
}

}  // namespace aem
