// Typed external-memory arrays and internal-memory buffers.
//
// ExtArray<T> owns a region of external memory holding `size()` elements in
// blocks of B.  All access is by whole-block reads and writes, each charged
// to the owning Machine.  Host code can never touch the stored elements
// except through these charged transfers — that discipline is what makes the
// machine's counters a faithful implementation of the AEM cost measure.
//
// view_block delivers a block by reference (a BlockView); read_block is
// view_block plus a copy, for read-modify-write, and charges the same.  A
// reader that only looks holds a MemoryReservation of B for its block.
//
// When the machine has a FaultPolicy installed (core/faults.hpp), ExtArray
// is also the device's recovery layer: every block carries a known-corrupt
// flag (a perfect device-side ECC), reads check it and retry on failure,
// writes verify-after-write and rewrite on failure (every retry charged
// through the normal accounting), and retired blocks are transparently
// migrated to spares via a wear-leveling RemapTable (core/remap.hpp).  A
// failed write attempt sets the flag and leaves the stored bytes alone, so
// each block has one copy, in the array's own storage, whatever its
// physical block.  A read that returns delivers the last successfully
// written bytes, by reference like a fault-free one, or it throws
// FaultError.  Algorithms run unmodified; they only see the extra charged
// I/Os.  With no policy installed, the code path is byte-identical to the
// perfect device.
//
// When the machine has a BlockCache installed (core/cache.hpp), ExtArray
// routes every transfer through it: hits are served from the pool (no
// charge, no trace op, no wear), writes dirty their block instead of paying
// omega, and eviction/flush write-backs re-enter the charged device path —
// including the full fault/recovery machinery — via the Sink interface.
// With no cache installed (capacity 0), the path is again byte-identical.
//
// Buffer<T> is the internal-memory counterpart: an RAII allocation
// registered with the machine's MemoryLedger, so the ledger's high-water
// mark bounds the algorithm's true internal-memory footprint.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#if __has_include(<sys/mman.h>)
#include <sys/mman.h>  // madvise, for ExtArray's huge-page advice
#endif

#include "core/cache.hpp"
#include "core/faults.hpp"
#include "core/machine.hpp"
#include "core/remap.hpp"

namespace aem {

/// Result of a block transfer: element count plus the trace ticket (invalid
/// when tracing is off).  The ticket lets atom-tracking algorithms annotate
/// the recorded op (Lemma 4.3 needs per-read use-sets).  Under fault
/// injection the ticket is that of the final (successful) attempt.
struct BlockIo {
  std::size_t count = 0;
  IoTicket ticket;
};

#ifndef NDEBUG
namespace detail {
/// Assert-enabled builds: an array's change counters, stamped into and
/// re-checked by each BlockView, which shares their ownership.
struct ViewGuard {
  std::uint64_t epoch = 0;  // unsafe_host_fill, move, destruction
  std::unordered_map<std::uint64_t, std::uint64_t> writes;  // per block

  std::array<std::uint64_t, 2> stamp(std::uint64_t bi) const {
    const auto w = writes.find(bi);
    return {epoch, w == writes.end() ? 0 : w->second};
  }
};
}  // namespace detail
#endif

/// One charged block read, delivered by reference (ExtArray::view_block):
/// the block's elements and the read's trace ticket (invalid for a pool hit
/// or with tracing off; under fault injection, the final attempt's).  Valid
/// until a write to the same block, or the array's unsafe_host_fill / move /
/// destruction; assert-enabled builds check that on every element access.
template <class T>
class BlockView {
 public:
  BlockView() = default;

  std::size_t size() const { return elems_.size(); }
  const T& operator[](std::size_t i) const {
    assert(i < elems_.size() && fresh());
    return elems_[i];
  }
  std::span<const T> span() const {
    assert(fresh());
    return elems_;
  }
  IoTicket ticket() const { return ticket_; }

 private:
  template <class>
  friend class ExtArray;
  BlockView(const T* data, std::size_t count, IoTicket t)
      : elems_(data, count), ticket_(t) {}

  std::span<const T> elems_;
  IoTicket ticket_;
#ifndef NDEBUG
  bool fresh() const {
    return guard_ == nullptr || guard_->stamp(block_) == stamp_;
  }
  std::shared_ptr<const detail::ViewGuard> guard_;
  std::uint64_t block_ = 0;
  std::array<std::uint64_t, 2> stamp_{};
#endif
};

template <class T>
class ExtArray : private BlockCache::Sink {
 public:
  /// An empty, machine-less array (useful as a moved-from placeholder).
  /// Any block operation on it throws std::logic_error.
  ExtArray() = default;

  /// Allocates external storage for `elems` elements, zero-filled.
  /// Allocation itself is free in the model (external memory is unbounded);
  /// only transfers cost.  The host buffer's 2 MiB-aligned interior is
  /// advised for transparent huge pages before the fill touches it, so a
  /// large array costs a few faults instead of one per 4 KiB page; the
  /// advice changes no byte and no charge.
  ExtArray(Machine& mach, std::size_t elems, std::string name)
      : mach_(&mach), id_(mach.register_array(std::move(name))) {
    data_.reserve(elems);
    advise_huge_pages(data_.data(), elems * sizeof(T));
    data_.resize(elems);
  }

  /// Moved-from arrays become machine-less placeholders (operations throw
  /// std::logic_error) instead of silently aliasing the old machine.  The
  /// machine's block cache (if any) is re-pointed at the new object, so
  /// pending write-backs of this array's blocks keep working.
  ExtArray(ExtArray&& o) noexcept { *this = std::move(o); }

  ExtArray& operator=(ExtArray&& o) noexcept {
    if (this != &o) {
      drop_cache_entries();  // this object's storage is being replaced
      mach_ = std::exchange(o.mach_, nullptr);
      id_ = std::exchange(o.id_, 0);
      data_ = std::move(o.data_);
      atom_of_ = std::move(o.atom_of_);
      rec_ = std::move(o.rec_);
      repoint_cache_sink();
      stale_all_views();
      o.stale_all_views();
    }
    return *this;
  }

  /// Dirty cached blocks of a dying array are dropped WITHOUT write-backs
  /// (there is no storage left to persist to); the drop is counted in
  /// CacheStats::invalidated_dirty.  Flush the machine's cache first if
  /// full Q accounting matters.  Arrays must not outlive their machine.
  ~ExtArray() {
    drop_cache_entries();
    stale_all_views();
  }

  ExtArray(const ExtArray&) = delete;
  ExtArray& operator=(const ExtArray&) = delete;

  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }
  std::size_t blocks() const {
    return mach_ == nullptr ? 0 : mach_->n_of(data_.size());
  }
  std::uint32_t id() const { return id_; }
  Machine& machine() const {
    check_attached();
    return *mach_;
  }

  /// Number of elements in block `bi` (the last block may be partial).
  std::size_t block_elems(std::uint64_t bi) const {
    check_block(bi);
    const std::size_t B = mach_->B();
    const std::size_t begin = static_cast<std::size_t>(bi) * B;
    return std::min(B, data_.size() - begin);
  }

  /// Reads block `bi` by reference: a view of the block's one stored copy
  /// (its native region, which is also its pool frame and, once remapped,
  /// its spare's data).  Charges one read I/O — plus, under fault
  /// injection, one read per failed check; a block-cache hit charges
  /// nothing.
  BlockView<T> view_block(std::uint64_t bi) const {
    BlockView<T> v = deliver(bi, block_elems(bi));
#ifndef NDEBUG
    v.guard_ = guard_;
    v.block_ = bi;
    v.stamp_ = guard_->stamp(bi);
#endif
    return v;
  }

  /// Reads block `bi` into `dst` (which must hold >= block_elems(bi)
  /// elements), charging exactly what view_block charges.
  BlockIo read_block(std::uint64_t bi, std::span<T> dst) const {
    const std::size_t count = block_elems(bi);
    if (dst.size() < count)
      throw std::invalid_argument("read_block: destination too small");
    const BlockView<T> v = deliver(bi, count);
    std::copy(v.elems_.begin(), v.elems_.end(), dst.begin());
    return BlockIo{count, v.ticket_};
  }

  /// Overwrites block `bi` with `src` (which must hold exactly
  /// block_elems(bi) elements).  Charges one write I/O (cost omega) — plus,
  /// under fault injection, omega per rewrite and one read per
  /// verify-after-write attempt.  With a block cache the write only dirties
  /// the resident block; the (single) device write is charged at eviction
  /// or flush, however many times the block was rewritten meanwhile.
  BlockIo write_block(std::uint64_t bi, std::span<const T> src) {
    const std::size_t count = block_elems(bi);
    if (src.size() != count)
      throw std::invalid_argument("write_block: source size mismatch");
#ifndef NDEBUG
    ++guard_->writes[bi];
#endif
    if (BlockCache* bc = mach_->cache()) {
      // A rewrite of a resident block, or a write-allocate without fetching
      // (the whole block is overwritten): no device I/O yet.  Insert first
      // — if the eviction's write-back throws, the stored data is untouched.
      if (!bc->find_write(id_, bi)) bc->insert(id_, bi, /*dirty=*/true, this);
      std::copy(src.begin(), src.end(), native(bi));
      return BlockIo{count, IoTicket{}};
    }
    FaultPolicy* fp = mach_->faults();
    if (fp != nullptr && fp->injects_faults())
      return faulty_write(*fp, bi, src, count);
    std::copy(src.begin(), src.end(), native(bi));
    const IoTicket t = mach_->on_write(id_, bi);
    annotate_atoms(t, src, count);
    return BlockIo{count, t};
  }

  /// Registers an atom-id extractor used to annotate traced writes
  /// (Lemma 4.3 machinery).  Pass nullptr to disable.
  void set_atom_extractor(std::function<std::uint64_t(const T&)> fn) {
    atom_of_ = std::move(fn);
  }

  bool has_atom_extractor() const { return static_cast<bool>(atom_of_); }
  const std::function<std::uint64_t(const T&)>& atom_extractor() const {
    return atom_of_;
  }
  /// Atom id of a value under this array's extractor (which must be set).
  std::uint64_t atom_id(const T& v) const { return atom_of_(v); }

  /// Debug/verification access to the raw contents.  NOT charged — only for
  /// test assertions and host-side conformation metadata, never inside a
  /// measured algorithm.  Under fault injection a block whose last write
  /// failed keeps its old bytes here while reads of it throw, so measured
  /// reads remain the one honest access path.
  const std::vector<T>& unsafe_host_view() const { return data_; }

  /// Uncharged bulk initialization, used to stage problem inputs before a
  /// measured run begins (the input's presence in external memory is the
  /// problem statement, not part of the algorithm's cost).  Restaging drops
  /// any cached blocks of this array (uncharged — it replaces them) and
  /// clears every block's known-corrupt flag; remapped blocks stay remapped.
  void unsafe_host_fill(std::span<const T> src) {
    if (src.size() != data_.size())
      throw std::invalid_argument("unsafe_host_fill: size mismatch");
    drop_cache_entries();
    stale_all_views();
    for (std::size_t i = 0; i < src.size(); ++i) data_[i] = src[i];
    if (rec_ != nullptr) rec_->bad.assign(blocks(), 0);
  }

  // --- fault-injection observability --------------------------------------
  /// Logical blocks currently redirected to spares (0 when no faults).
  std::size_t remapped_blocks() const {
    return rec_ == nullptr ? 0 : rec_->remap.active();
  }
  std::size_t spares_used() const {
    return rec_ == nullptr ? 0 : rec_->remap.spares_used();
  }

 private:
  /// Per-array device-side recovery state, created lazily on the first
  /// transfer under an installed FaultPolicy.
  struct Recovery {
    Recovery(std::size_t spare_capacity, std::size_t blocks)
        : remap(spare_capacity), bad(blocks, 0) {}
    RemapTable remap;
    std::vector<std::uint8_t> bad;  // per logical block: last write failed
  };

  void check_attached() const {
    if (mach_ == nullptr)
      throw std::logic_error(
          "ExtArray: no machine attached (default-constructed or moved-from "
          "array)");
  }

  void check_block(std::uint64_t bi) const {
    check_attached();
    if (bi >= blocks())
      throw std::out_of_range("ExtArray: block index " + std::to_string(bi) +
                              " out of range (array has " +
                              std::to_string(blocks()) + " blocks)");
  }

  void annotate_atoms(IoTicket t, std::span<const T> src, std::size_t count) {
    if (t.valid() && atom_of_) {
      std::vector<std::uint64_t> atoms(count);
      for (std::size_t i = 0; i < count; ++i) atoms[i] = atom_of_(src[i]);
      mach_->trace()->set_atoms(t, std::move(atoms));
    }
  }

  // --- block-cache plumbing ------------------------------------------------
  // The cached bytes live in the NATIVE region of data_ (the pool's RAM
  // copy); the cache itself holds only metadata.  Invariant: while a block
  // is resident, data_'s native region holds its current contents — writes
  // store their payload there, and write-backs read it back out.  The
  // native region is also the device copy of the block, remapped or not:
  // a failed write-back attempt changes no bytes, so the frame survives it.

  T* native(std::uint64_t bi) const {
    return const_cast<T*>(data_.data()) +
           static_cast<std::size_t>(bi) * mach_->B();
  }

  /// Advises the 2 MiB-aligned interior of [p, p + bytes), if there is
  /// one, for transparent huge pages (a no-op where the host lacks them).
  static void advise_huge_pages([[maybe_unused]] void* p,
                                [[maybe_unused]] std::size_t bytes) {
#ifdef MADV_HUGEPAGE
    constexpr std::uintptr_t kHuge = std::uintptr_t{1} << 21;
    const auto lo = reinterpret_cast<std::uintptr_t>(p);
    const std::uintptr_t begin = (lo + kHuge - 1) & ~(kHuge - 1);
    const std::uintptr_t end = (lo + bytes) & ~(kHuge - 1);
    if (begin < end)
      (void)::madvise(reinterpret_cast<void*>(begin), end - begin,
                      MADV_HUGEPAGE);
#endif
  }

  void stale_all_views() {
#ifndef NDEBUG
    ++guard_->epoch;
#endif
  }

  void drop_cache_entries() {
    if (mach_ == nullptr) return;
    if (BlockCache* bc = mach_->cache()) bc->invalidate_array(id_);
  }

  void repoint_cache_sink() {
    if (mach_ == nullptr) return;
    if (BlockCache* bc = mach_->cache()) bc->move_sink(id_, this);
  }

  /// The one read dispatch behind view_block and read_block.
  BlockView<T> deliver(std::uint64_t bi, std::size_t count) const {
    T* base = native(bi);
    BlockCache* bc = mach_->cache();
    if (bc != nullptr && bc->find_read(id_, bi))  // pool hit: no device I/O
      return BlockView<T>(base, count, IoTicket{});
    FaultPolicy* fp = mach_->faults();
    const BlockView<T> v =
        fp == nullptr || !fp->injects_faults()
            ? BlockView<T>(base, count, mach_->on_read(id_, bi))
            : faulty_read(*fp, bi, count);
    // May evict (and write back) a victim; on a write-back exception the
    // read stands — delivered and charged — and the block is just not cached.
    if (bc != nullptr)
      bc->insert(id_, bi, /*dirty=*/false, const_cast<ExtArray*>(this));
    return v;
  }

  /// BlockCache::Sink: push a dirty pool frame back to the device through
  /// the normal charged write path (including fault injection / recovery /
  /// remap when a policy is installed).
  void cache_write_back(std::uint64_t bi) override {
    const std::size_t count = block_elems(bi);
    const std::span<const T> payload(native(bi), count);  // already stored
    FaultPolicy* fp = mach_->faults();
    if (fp != nullptr && fp->injects_faults()) {
      faulty_write(*fp, bi, payload, count);
      return;
    }
    annotate_atoms(mach_->on_write(id_, bi), payload, count);
  }

  Recovery& recovery(const FaultPolicy& fp) const {
    if (rec_ == nullptr)
      rec_ = std::make_unique<Recovery>(fp.config().spare_blocks, blocks());
    return *rec_;
  }

  /// The physical block the machine charges for logical block `bi`: its
  /// own id, or spare slot s's id blocks() + s once remapped.
  std::uint64_t charge_id(std::uint64_t bi) const {
    if (rec_ != nullptr && !rec_->remap.empty()) {
      const std::uint64_t slot = rec_->remap.slot_of(bi);
      if (slot != RemapTable::npos) return blocks() + slot;
    }
    return bi;
  }

  // faulty_read and faulty_write stay out of line: inlined, they grow the
  // fault-free dispatch in deliver and write_block, which perfbench's
  // fault-free workloads measure as a few percent slower per call.

  /// A verified read: a view of the stored block once one attempt passes
  /// the check, one charged read per attempt.  An attempt fails if the
  /// block's last write failed, or if a transient fault hits the transfer
  /// (it would flip one byte at an offset the next draw picks; the device
  /// ECC catches any flip, so nothing is flipped, but the draw is made).
  [[gnu::noinline]] BlockView<T> faulty_read(FaultPolicy& fp,
                                             std::uint64_t bi,
                                             std::size_t count) const {
    const Recovery& rec = recovery(fp);
    for (std::size_t attempt = 0;; ++attempt) {
      const IoTicket t = mach_->on_read(id_, charge_id(bi));
      const bool transient = fp.draw_read_fault();
      if (transient) (void)fp.draw_u64();
      if (!transient && rec.bad[bi] == 0)
        return BlockView<T>(native(bi), count, t);
      fp.note_checksum_failure();
      if (attempt >= fp.config().max_retries)
        throw FaultError(/*is_write=*/false, id_, bi, attempt + 1,
                         "read check keeps failing (stored block corrupt "
                         "or fault rate too high for the retry budget)");
      fp.note_read_retry();
    }
  }

  /// A verified write.  Only an attempt that stores the payload changes
  /// bytes (`src` may be the native region itself, from a write-back); a
  /// silent, torn or retired attempt marks the block bad instead.  Silent
  /// and torn attempts still draw the corruption offset / torn prefix
  /// length they would apply, so the fault schedule does not move.
  [[gnu::noinline]] BlockIo faulty_write(FaultPolicy& fp, std::uint64_t bi,
                                         std::span<const T> src,
                                         std::size_t count) {
    Recovery& rec = recovery(fp);
    std::size_t attempt = 0;  // failures on the current physical block
    for (;;) {
      const std::uint64_t charge = charge_id(bi);
      const IoTicket t = mach_->on_write(id_, charge);
      annotate_atoms(t, src, count);
      const bool on_retired = fp.record_write(id_, charge);
      const FaultKind fault =
          on_retired ? FaultKind::kRetiredBlock : fp.draw_write_fault();
      if (fault == FaultKind::kSilentWrite || fault == FaultKind::kTornWrite)
        (void)fp.draw_u64();
      const bool stored = fault == FaultKind::kNone;
      if (stored && src.data() != native(bi))
        std::copy(src.begin(), src.end(), native(bi));
      rec.bad[bi] = stored ? 0 : 1;

      // Verify-after-write: one charged read-back, itself subject to
      // transient read faults.
      mach_->on_read(id_, charge);
      const bool readback_corrupt = fp.draw_read_fault();
      if (stored && !readback_corrupt) return BlockIo{count, t};
      fp.note_verify_failure();

      if (fp.retired(id_, charge)) {
        // Permanent failure: migrate this logical block to a spare and
        // retry there with a fresh retry budget.
        rec.remap.remap(bi);
        fp.note_remap();
        attempt = 0;
        continue;
      }
      if (attempt >= fp.config().max_retries)
        throw FaultError(/*is_write=*/true, id_, bi, attempt + 1,
                         "verify-after-write keeps failing (fault rate too "
                         "high for the retry budget)");
      ++attempt;
      fp.note_write_retry();
    }
  }

  Machine* mach_ = nullptr;
  std::uint32_t id_ = 0;
  std::vector<T> data_;
  std::function<std::uint64_t(const T&)> atom_of_;
  // Mutable: reads must be able to lazily create recovery state and retry.
  mutable std::unique_ptr<Recovery> rec_;
#ifndef NDEBUG
  std::shared_ptr<detail::ViewGuard> guard_ =
      std::make_shared<detail::ViewGuard>();
#endif
};

/// An internal-memory allocation of `elems` elements, registered with the
/// machine's ledger for the buffer's lifetime.
template <class T>
class Buffer {
 public:
  Buffer() = default;

  Buffer(Machine& mach, std::size_t elems)
      : reservation_(mach.ledger(), elems), data_(elems) {}

  Buffer(Buffer&&) noexcept = default;
  Buffer& operator=(Buffer&&) noexcept = default;

  std::size_t size() const { return data_.size(); }
  std::span<T> span() { return std::span<T>(data_); }
  std::span<const T> span() const { return std::span<const T>(data_); }
  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

  /// Resizes the buffer, adjusting the ledger registration.  On a
  /// default-constructed or moved-from buffer (no ledger) this is a
  /// programming error: the elements would evade the memory accounting.
  void resize(std::size_t elems) {
    if (!reservation_.attached() && elems != 0)
      throw std::logic_error(
          "Buffer: resize on a default-constructed or moved-from buffer "
          "(no ledger to account the allocation)");
    reservation_.resize(elems);
    data_.resize(elems);
  }

 private:
  MemoryReservation reservation_;
  std::vector<T> data_;
};

}  // namespace aem
