// External-memory key–value object store with a compact serving index.
//
// The store is the serving-side counterpart of the sorting pipeline: bulk
// construction runs the library's omega-oblivious mergesort over the input
// records, lays the result out as a block-aligned sorted log plus a
// sequential payload area, and builds a small in-memory index over the
// log's pages.  After that, point queries are the workload the AEM model
// prices at ~1 charged read: index lookup (host-side, free), one log-block
// read, plus ceil(len/B) payload reads for values too large to inline.
//
// Two index flavors, selectable per store (StoreConfig::index):
//
//  * kFence   — one full 64-bit fence key (the page's first key) per log
//    block: 64 bits/page, exactly one log read per get.
//  * kCompact — PaCHash-style quantized fences: each fence keeps only its
//    top c = ceil(log2 pages) + compact_extra_bits bits, and the monotone
//    quantized sequence is Elias–Fano coded (store/elias_fano.hpp) down to
//    ~(2 + extra) bits per page.  Quantization loses the ability to decide
//    *exactly* which page a key falls on when adjacent fences collide in
//    their top c bits, so a get probes its candidate page and walks back
//    over the (rare, geometrically distributed) collision run — still one
//    read in the common case, bounded by the run length in the worst one.
//
// All I/O goes through the Machine stack — ExtArray block transfers under
// whatever BlockCache / FaultPolicy / ShardedMachine the machine has
// installed — and all resident index state is charged to the MemoryLedger,
// so the metrics snapshot's `store` section (core/metrics.hpp)
// reports honest figures.  Cost model: docs/MODEL.md section 14; measured
// by bench/bench_k1_store.
//
// Builds are optionally crash-consistent (StoreConfig::manifest_interval):
// a checksummed two-slot manifest — the classic alternating-superblock
// discipline, FNV-1a validated (core/faults.hpp fault_checksum) —
// records the build frontier, and recover() turns a mid-build power cut
// (core/faults.hpp CrashError) into a charged resume instead of a loss.
// Reliability cost model: docs/MODEL.md section 15; measured by
// bench/bench_f1_recovery.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/ext_array.hpp"
#include "core/metrics.hpp"
#include "io/cursor.hpp"
#include "io/scanner.hpp"
#include "io/writer.hpp"
#include "sort/em_mergesort.hpp"
#include "store/elias_fano.hpp"
#include "util/math.hpp"
#include "util/search.hpp"

namespace aem::store {

/// One record header.  Fixed-size so the log is a plain ExtArray<Slot>;
/// values of at most one word are inlined into `pos`, larger values spill
/// into the store's payload area.
///
///   len == 0: empty value, `pos` unused (0).
///   len == 1: `pos` IS the value word (inline).
///   len >= 2: value occupies payload words [pos, pos + len).
///
/// In *input* slots (what build() consumes), `pos` of a spilled record
/// indexes the caller's payload array; build() gathers those words into the
/// store's own sequential payload area and rewrites `pos`.
struct Slot {
  std::uint64_t key = 0;
  std::uint64_t len = 0;
  std::uint64_t pos = 0;

  friend bool operator==(const Slot&, const Slot&) = default;
};

/// Key order; ties (duplicate keys) are left in input order by the stable
/// mergesort, which is what gives get() its last-insert-wins semantics.
/// The key is the order's radix key (sort/host_sort.hpp), so run formation
/// takes the radix path.
struct SlotKeyLess {
  bool operator()(const Slot& a, const Slot& b) const { return a.key < b.key; }
  static std::uint64_t radix_key(const Slot& s) { return s.key; }
};

/// Index flavor of a store.
enum class IndexKind : std::uint8_t {
  kFence,    // full 64-bit fence key per log page
  kCompact,  // Elias–Fano coded quantized fences (~bits per page)
};

inline const char* to_string(IndexKind k) {
  switch (k) {
    case IndexKind::kFence: return "fence";
    case IndexKind::kCompact: return "compact";
  }
  return "?";
}

struct StoreConfig {
  IndexKind index = IndexKind::kFence;

  /// kCompact only: quantization bits beyond ceil(log2 pages).  Each extra
  /// bit costs one bit per page and halves the adjacent-fence collision
  /// probability (and with it the expected probe-walk length).
  unsigned compact_extra_bits = 8;

  /// Crash-consistent (durable) builds: > 0 arms the superblock/manifest
  /// discipline — build() writes a checksummed manifest checkpoint every
  /// `manifest_interval` log pages plus a committed manifest at the end,
  /// enabling recover() after a mid-build power cut (CrashError).  Each
  /// checkpoint costs the manifest-slot write(s) plus the partial-payload
  /// block sync (an fsync, priced honestly).  0 (the default) builds
  /// exactly as before: no manifest array, no checkpoint writes, charges
  /// byte-identical to the pre-reliability-layer store.
  std::size_t manifest_interval = 0;
};

/// What KvStore::recover() found and did.  The charged I/O of the whole
/// recovery pass (detection + fence re-scan + resumed or restarted build
/// work) is in reads/writes/cost, and is also noted on the machine
/// (Machine::note_recovery) for the metrics reliability section.
struct RecoveryReport {
  enum class Outcome : std::uint8_t {
    kReindexed,  // data committed; only the host-side index was rebuilt
    kResumed,    // torn build resumed from the last committed checkpoint
    kRestarted,  // no usable manifest; the build ran again from the inputs
  };

  Outcome outcome = Outcome::kRestarted;
  std::uint64_t manifest_reads = 0;  // charged manifest-slot reads
  std::uint64_t scan_reads = 0;      // charged log-page reads (fence rebuild)
  /// Records already durable at the checkpoint the build resumed from.
  std::size_t records_recovered = 0;
  /// The machine's charged-write clock stored in that checkpoint (0 when
  /// restarted) — the bench's recovery-write-bill bound is measured
  /// against writes after this mark.
  std::uint64_t writes_at_checkpoint = 0;
  std::uint64_t reads = 0;   // full recover() bill
  std::uint64_t writes = 0;  // full recover() bill
  std::uint64_t cost = 0;    // full recover() bill (Q)
};

inline const char* to_string(RecoveryReport::Outcome o) {
  switch (o) {
    case RecoveryReport::Outcome::kReindexed: return "reindexed";
    case RecoveryReport::Outcome::kResumed: return "resumed";
    case RecoveryReport::Outcome::kRestarted: return "restarted";
  }
  return "?";
}

class KvStore {
 public:
  explicit KvStore(Machine& mach, StoreConfig cfg = {})
      : mach_(&mach), cfg_(cfg) {}

  KvStore(KvStore&&) = default;
  KvStore& operator=(KvStore&&) = default;

  /// Bulk-builds the store from `in_slots` (record headers, any order;
  /// duplicates allowed) and `in_payload` (the words spilled records point
  /// into).  Three charged phases:
  ///
  ///   store.build.sort    stable em_merge_sort of the headers by key;
  ///   store.build.layout  one scan of the sorted headers, rewriting each
  ///                       spilled record's `pos` while gathering its words
  ///                       (random-access reads of in_payload) into the
  ///                       store's sequential payload area, and collecting
  ///                       fence keys host-side;
  ///   store.build.index   host-side index construction (free of I/O) and
  ///                       a cache flush, so the construction-cost figures
  ///                       include every deferred write-back.
  ///
  /// Construction cost deltas are captured in build_reads()/build_writes()/
  /// build_cost().  Rebuilding an already-built store throws.
  ///
  /// With StoreConfig::manifest_interval > 0 the build is additionally
  /// crash-consistent: a checksummed two-slot manifest records the build
  /// frontier (after the sort, every `manifest_interval` log pages during
  /// layout, and at commit), so a CrashError thrown mid-build leaves a
  /// state recover() can resume from.  The non-durable default charges
  /// exactly what it always has (no manifest array, no checkpoint writes).
  void build(const ExtArray<Slot>& in_slots,
             const ExtArray<std::uint64_t>& in_payload) {
    if (built_) throw std::logic_error("KvStore::build: already built");
    Machine& mach = *mach_;
    const IoStats before = mach.stats();
    const std::uint64_t cost_before = mach.cost();

    records_ = in_slots.size();
    log_ = ExtArray<Slot>(mach, records_, "store.log");
    payload_ = ExtArray<std::uint64_t>(mach, in_payload.size(),
                                       "store.payload");
    if (durable())
      manifest_ = ExtArray<std::uint64_t>(
          mach, 2 * manifest_slot_blocks() * mach.B(), "store.manifest");
    sorted_ = ExtArray<Slot>(mach, records_, "store.sorted");

    std::vector<std::uint64_t> fences;
    {
      MemoryReservation fence_res(mach.ledger(), mach.n_of(records_));
      fences.reserve(mach.n_of(records_));
      run_build(in_slots, in_payload, fences);
      // The full fence vector was a build-time temporary; fence_res (and for
      // kCompact the vector itself) is released here, leaving only the
      // serving index charged.
    }

    // Deferred cache write-backs belong to construction, not to the first
    // query that would otherwise evict them.
    mach.flush_cache();
    build_io_ = mach.stats() - before;
    build_cost_ = mach.cost() - cost_before;
    built_ = true;
  }

  /// Post-crash recovery of a durable build (see build()).  Reads both
  /// manifest slots (charged), picks the newest valid one, and:
  ///
  ///  * committed       — the data is all durable; every log page is
  ///                      re-scanned to rebuild the host-side fences and
  ///                      index (kReindexed);
  ///  * sorted / layout — pages below the checkpoint frontier are
  ///                      re-scanned, the layout stream resumes from
  ///                      (records_done, payload_words_done), and the
  ///                      build commits (kResumed);
  ///  * no valid slot   — the crash predates the first checkpoint; the
  ///                      whole durable build runs again (kRestarted).
  ///
  /// All recovery I/O is charged under phase "store.recover" (nested with
  /// the usual store.build.* phases for resumed work), reported on the
  /// machine (Machine::note_recovery — the metrics reliability section),
  /// and returned in the RecoveryReport.  build_reads()/writes()/cost()
  /// keep the figures of the interrupted build() attempt; the recovery
  /// bill is accounted separately.  Throws std::logic_error if the store
  /// is already built, is not durable, or build() was never attempted.
  RecoveryReport recover(const ExtArray<Slot>& in_slots,
                         const ExtArray<std::uint64_t>& in_payload) {
    if (built_) throw std::logic_error("KvStore::recover: already built");
    if (!durable())
      throw std::logic_error(
          "KvStore::recover: not a durable store (manifest_interval == 0)");
    if (manifest_.size() == 0)
      throw std::logic_error("KvStore::recover: no interrupted build");
    if (in_slots.size() != records_)
      throw std::invalid_argument(
          "KvStore::recover: inputs do not match the interrupted build");
    Machine& mach = *mach_;
    const IoStats before = mach.stats();
    const std::uint64_t cost_before = mach.cost();
    RecoveryReport rep;
    {
      auto recover_phase = mach.phase("store.recover");
      Manifest best;
      for (std::size_t slot = 0; slot < 2; ++slot) {
        const Manifest m = read_manifest_slot(slot, rep.manifest_reads);
        if (m.valid && (!best.valid || m.seq > best.seq)) best = m;
      }
      // Resync the commit sequence to the surviving slot, so the next
      // commit overwrites the OTHER slot (the crash may have torn the
      // in-flight one — it must stay overwritable, not trusted).
      if (best.valid) manifest_seq_ = best.seq;

      std::vector<std::uint64_t> fences;
      MemoryReservation fence_res(mach.ledger(), mach.n_of(records_));
      fences.reserve(mach.n_of(records_));
      if (best.valid && best.phase == kPhaseCommitted) {
        payload_words_ = best.words_done;
        max_value_words_ = best.max_value_words;
        rescan_fences(static_cast<std::size_t>(best.pages_done), fences,
                      rep.scan_reads);
        build_index(fences);
        sorted_ = ExtArray<Slot>();
        rep.outcome = RecoveryReport::Outcome::kReindexed;
        rep.records_recovered = records_;
        rep.writes_at_checkpoint = best.writes_at_commit;
      } else if (best.valid && sorted_.size() == records_) {
        // The sorted run was committed before the first layout write could
        // tear, and everything below the frontier is durable: redo only
        // the tail.
        max_value_words_ = best.max_value_words;
        rescan_fences(static_cast<std::size_t>(best.pages_done), fences,
                      rep.scan_reads);
        {
          auto layout_phase = mach.phase("store.build.layout");
          layout_stream(sorted_, in_payload,
                        static_cast<std::size_t>(best.records_done),
                        best.words_done, fences);
        }
        {
          auto index_phase = mach.phase("store.build.index");
          build_index(fences);
        }
        mach.flush_cache();
        commit_manifest(kPhaseCommitted, records_, payload_words_);
        sorted_ = ExtArray<Slot>();
        rep.outcome = RecoveryReport::Outcome::kResumed;
        rep.records_recovered = static_cast<std::size_t>(best.records_done);
        rep.writes_at_checkpoint = best.writes_at_commit;
      } else {
        // Nothing durable to trust: run the whole build again.
        max_value_words_ = 0;
        payload_words_ = 0;
        run_build(in_slots, in_payload, fences);
        rep.outcome = RecoveryReport::Outcome::kRestarted;
      }
    }
    mach.flush_cache();
    const IoStats after = mach.stats();
    rep.reads = after.reads - before.reads;
    rep.writes = after.writes - before.writes;
    rep.cost = mach.cost() - cost_before;
    mach.note_recovery(rep.reads, rep.writes, rep.cost);
    built_ = true;
    return rep;
  }

  // --- serving -------------------------------------------------------------

  /// Point query.  Returns the value of the LAST record with `key` in input
  /// order (stable sort keeps duplicate runs in insertion order, and the
  /// located page is the last one whose fence is <= key, so "latest insert
  /// wins" — upsert semantics).  Disengaged optional when the key is absent;
  /// an engaged empty vector is a present key with an empty value.
  std::optional<std::vector<std::uint64_t>> get(std::uint64_t key) {
    check_built();
    ++stats_.gets;
    std::uint64_t log_reads = 0;
    const auto miss = [&]() -> std::optional<std::vector<std::uint64_t>> {
      note_get(log_reads);
      return std::nullopt;
    };
    if (records_ == 0) return miss();

    MemoryReservation page_res(mach_->ledger(), mach_->B());
    const std::optional<Page> located = locate_page(key, log_reads);
    if (!located) return miss();  // key precedes every stored key

    const std::span<const Slot> page = located->slots.span();
    const Slot* found = last_with_key(page.data(), page.size(), key);
    if (found == nullptr) return miss();
    const Slot hit = *found;
    ++stats_.get_hits;

    std::vector<std::uint64_t> value;
    if (hit.len == 1) {
      value.push_back(hit.pos);
    } else if (hit.len >= 2) {
      value.reserve(static_cast<std::size_t>(hit.len));
      Scanner<std::uint64_t> pay(payload_, hit.pos, hit.pos + hit.len);
      const std::uint64_t payload_reads =
          util::ceil_div(hit.pos + hit.len, mach_->B()) -
          hit.pos / mach_->B();
      while (!pay.done()) value.push_back(pay.next());
      stats_.get_payload_reads += payload_reads;
    }
    note_get(log_reads);
    return value;
  }

  /// In-place point update: overwrites the value of an EXISTING key with an
  /// inline word (len 1).  This is the store's serving-time write path —
  /// the write mix of a request stream (traffic/engine.hpp) — priced like a
  /// read-modify-write: locate_page (the usual charged log read(s), one
  /// under kFence), rewrite the slot host-side, write the page back (one
  /// charged omega-write; with a block cache the write-back is deferred
  /// like any dirty block).  Updates the LAST duplicate of the key — the
  /// slot get() serves — keeping upsert semantics intact.  Overwriting a
  /// spilled value strands its payload words; the orphaned_words counter
  /// totals that dead weight, the trigger for a compacting re-build (build
  /// a fresh store from a full scan once the orphan share justifies the
  /// write bill; docs/MODEL.md section 16).  Returns false — charging only
  /// the locate reads — when the key is absent: the sorted log cannot admit
  /// new keys in place, so inserts go through a re-build by design.
  bool put_inline(std::uint64_t key, std::uint64_t value) {
    check_built();
    ++stats_.puts;
    std::uint64_t log_reads = 0;
    const auto miss = [&]() {
      note_put(log_reads);
      return false;
    };
    if (records_ == 0) return miss();

    Buffer<Slot> page(*mach_, mach_->B());
    const std::optional<Page> located = locate_page(key, log_reads);
    if (!located) return miss();

    // The view is read-only: copy the page out to modify it.
    const std::size_t count = located->slots.size();
    const std::span<const Slot> viewed = located->slots.span();
    std::copy(viewed.begin(), viewed.end(), page.data());
    if (!put_in_page(page.data(), count, key, value)) return miss();
    log_.write_block(located->index,
                     std::span<const Slot>(page.data(), count));
    ++stats_.put_writes;
    note_put(log_reads);
    return true;
  }

  /// Write-efficient batched puts (docs/MODEL.md section 18): equivalent to
  /// calling put_inline(key, value) for every op in order — same hits and
  /// misses, same orphaned_words growth, same final store bytes — but K ops
  /// landing on one log page are ABSORBED into at most one charged log read
  /// plus one charged omega-write for the whole page group, instead of K of
  /// each.  The ops are ordered host-side by key (stable, so equal keys
  /// keep submission order and last-write-wins is preserved); the fence
  /// index then decides each key's page without I/O, and the loaded page is
  /// written back once when the group ends.  Keys preceding every stored
  /// key miss for free, exactly like put_inline; keys missing within a read
  /// page share that page's single read.  A batch of size 1 charges
  /// byte-identically to put_inline.
  ///
  /// Page membership is only decidable host-side under the fence index;
  /// kCompact (whose locate probes and walks) falls back to sequential
  /// put_inline calls.
  /// Returns the number of ops that hit.
  std::size_t put_inline_batch(
      std::span<const std::pair<std::uint64_t, std::uint64_t>> ops) {
    check_built();
    std::size_t hits = 0;
    if (cfg_.index != IndexKind::kFence) {
      for (const auto& [key, value] : ops)
        if (put_inline(key, value)) ++hits;
      return hits;
    }
    stats_.puts += ops.size();
    if (records_ == 0 || ops.empty()) return 0;

    // Host-side op order: stable by key, so one page's group applies in
    // submission order (first hit on a spilled slot orphans it, later hits
    // see the inline slot; the last value wins).
    std::vector<std::size_t> order(ops.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return ops[a].first < ops[b].first;
                     });

    std::uint64_t log_reads = 0;
    Buffer<Slot> page(*mach_, mach_->B());
    constexpr std::size_t kNoPage = std::numeric_limits<std::size_t>::max();
    std::size_t cur = kNoPage;  // loaded page, or kNoPage
    std::size_t count = 0;
    bool dirty = false;
    const auto flush = [&]() {
      if (!dirty) return;
      log_.write_block(cur, std::span<const Slot>(page.data(), count));
      ++stats_.put_writes;
      dirty = false;
    };
    for (const std::size_t idx : order) {
      const auto [key, value] = ops[idx];
      const std::size_t r = fence_idx_.rank_upper(key);
      if (r == 0) continue;  // precedes every stored key: uncharged miss
      const std::size_t bi = r - 1;
      if (bi != cur) {
        flush();
        count = log_.block_elems(bi);
        log_.read_block(bi, page.span());
        ++log_reads;  // the group's one absorbed read
        cur = bi;
      }
      if (!put_in_page(page.data(), count, key, value)) continue;  // miss
      ++hits;
      dirty = true;
    }
    flush();
    note_put(log_reads);
    return hits;
  }

  /// Range query: visits every record with lo <= key <= hi in key order
  /// (duplicates in input order), streaming the log — and, lazily, the
  /// payload area — sequentially.  Returns the number of records visited.
  std::size_t scan(
      std::uint64_t lo, std::uint64_t hi,
      const std::function<void(std::uint64_t key,
                               std::span<const std::uint64_t> value)>& visit) {
    check_built();
    ++stats_.scans;
    if (records_ == 0 || lo > hi) return 0;

    // First page that can contain a key >= lo: the last page whose fence is
    // STRICTLY below lo (every earlier page ends before lo; later pages may
    // all start with lo itself when a duplicate run of lo spans pages), or
    // page 0 when no fence is below lo.  That is locate_page(lo - 1), which
    // also keeps the quantized index exact.  Under the compact index this
    // probe-reads its candidate page(s); the Scanner below re-reads the
    // start page, a bounded price (one read, or a pool hit) for keeping the
    // sequential path simple.
    std::size_t start_page = 0;
    if (lo > 0) {
      MemoryReservation page_res(mach_->ledger(), mach_->B());
      std::uint64_t probe_reads = 0;
      if (const std::optional<Page> p = locate_page(lo - 1, probe_reads))
        start_page = p->index;
    }

    std::size_t visited = 0;
    Scanner<Slot> log(log_, start_page * mach_->B(), records_);
    // Lazily constructed so an all-inline scan charges no payload reads.
    std::optional<Scanner<std::uint64_t>> pay;
    std::vector<std::uint64_t> value;
    while (!log.done()) {
      const Slot s = log.next();
      if (s.key < lo) continue;
      if (s.key > hi) break;
      value.clear();
      if (s.len == 1) {
        value.push_back(s.pos);
      } else if (s.len >= 2) {
        if (!pay) pay.emplace(payload_, 0, payload_words_);
        // Spilled positions are assigned in log order, so one forward
        // scanner with skip() covers every spilled value in the range.
        pay->skip(static_cast<std::size_t>(s.pos) - pay->position());
        for (std::uint64_t w = 0; w < s.len; ++w)
          value.push_back(pay->next());
      }
      visit(s.key, std::span<const std::uint64_t>(value));
      ++visited;
    }
    stats_.scan_records += visited;
    return visited;
  }

  // --- introspection -------------------------------------------------------
  bool built() const { return built_; }
  const StoreConfig& config() const { return cfg_; }
  std::size_t records() const { return records_; }
  std::size_t log_blocks() const { return built_ ? log_.blocks() : 0; }
  std::uint64_t payload_words() const { return payload_words_; }
  std::size_t payload_blocks() const {
    return mach_->n_of(static_cast<std::size_t>(payload_words_));
  }
  /// Serving-index size in bits (64/page for kFence, the Elias–Fano size
  /// for kCompact).
  std::uint64_t index_bits() const { return index_bits_; }
  /// Resident index words charged to the memory ledger for the store's
  /// lifetime: the padded Eytzinger footprint under kFence (>= one word per
  /// log page, < 2n + 1), the Elias–Fano words under kCompact.
  std::size_t index_resident_words() const { return index_res_.elems(); }
  std::uint64_t build_reads() const { return build_io_.reads; }
  std::uint64_t build_writes() const { return build_io_.writes; }
  std::uint64_t build_cost() const { return build_cost_; }
  /// Access counters (StoreStats is declared in core/metrics.hpp).
  const StoreStats& stats() const { return stats_; }
  void reset_stats() { stats_ = StoreStats{}; }

  /// The metrics-snapshot `store` section.  Attach it to a
  /// snapshot taken from the same machine:
  ///   auto snap = snapshot_metrics(mach, label);
  ///   snap.store = store.metrics_section();
  StoreMetrics metrics_section() const {
    StoreMetrics m;
    m.enabled = true;
    m.index = to_string(cfg_.index);
    m.records = records_;
    m.log_blocks = log_blocks();
    m.payload_words = payload_words_;
    m.payload_blocks = payload_blocks();
    m.index_bits = index_bits_;
    m.index_bits_per_page =
        log_blocks() == 0
            ? 0.0
            : static_cast<double>(index_bits_) /
                  static_cast<double>(log_blocks());
    m.stats = stats_;
    m.build = build_io_;
    m.build_cost = build_cost_;
    return m;
  }

  /// The underlying device arrays (diagnostics and identity checks — e.g.
  /// bench_f1_recovery proving a recovered store byte-identical to an
  /// uncrashed build).
  const ExtArray<Slot>& log_array() const { return log_; }
  const ExtArray<std::uint64_t>& payload_array() const { return payload_; }
  /// Number of manifest commits so far (0 on a non-durable store).
  std::uint64_t manifest_commits() const { return manifest_seq_; }
  /// Device blocks held by the manifest array (both slots; 0 when
  /// non-durable or before build()).
  std::size_t manifest_blocks() const {
    return manifest_.size() == 0 ? 0 : 2 * manifest_slot_blocks();
  }

 private:
  static constexpr std::uint64_t kManifestMagic = 0x41454d4b56313653ULL;
  static constexpr std::uint64_t kPhaseSorted = 1;
  static constexpr std::uint64_t kPhaseLayout = 2;
  static constexpr std::uint64_t kPhaseCommitted = 3;
  static constexpr std::size_t kManifestWords = 10;

  /// A decoded (and checksum-validated) manifest slot.
  struct Manifest {
    bool valid = false;
    std::uint64_t seq = 0;
    std::uint64_t phase = 0;
    std::uint64_t records_done = 0;
    std::uint64_t words_done = 0;
    std::uint64_t pages_done = 0;
    std::uint64_t max_value_words = 0;
    std::uint64_t writes_at_commit = 0;
    std::uint64_t records_total = 0;
  };

  bool durable() const { return cfg_.manifest_interval > 0; }
  std::size_t manifest_slot_blocks() const {
    return mach_->n_of(kManifestWords);
  }

  void check_built() const {
    if (!built_) throw std::logic_error("KvStore: not built yet");
  }

  /// One inline put applied to a loaded page; false when the key is not on
  /// it.  Overwriting a spilled value orphans its payload words.
  bool put_in_page(Slot* page, std::size_t count, std::uint64_t key,
                   std::uint64_t value) {
    Slot* hit = last_with_key(page, count, key);
    if (hit == nullptr) return false;
    ++stats_.put_hits;
    if (hit->len >= 2) stats_.orphaned_words += hit->len;
    *hit = Slot{key, 1, value};
    return true;
  }

  /// The last slot of page[0, count) with this key, or nullptr.  Duplicate
  /// runs never extend into the next page: its fence would then be <= key,
  /// contradicting the page choice.
  template <class S>  // Slot or const Slot
  static S* last_with_key(S* page, std::size_t count, std::uint64_t key) {
    S* it = std::upper_bound(
        page, page + count, key,
        [](std::uint64_t k, const Slot& s) { return k < s.key; });
    return it == page || (it - 1)->key != key ? nullptr : it - 1;
  }

  /// The build body, shared by build() and recover()'s restart path: sort
  /// into sorted_, stream the layout, build the index.  A durable store
  /// also checkpoints the sorted run (kept until commit so a resume can
  /// re-read it) and the layout, and commits after a flush.  A non-durable
  /// store drops the sorted run before the index phase, so its dirty cached
  /// blocks are discarded, never written back.  Assumes log_, payload_,
  /// sorted_ and (durable) manifest_ are allocated.
  void run_build(const ExtArray<Slot>& in_slots,
                 const ExtArray<std::uint64_t>& in_payload,
                 std::vector<std::uint64_t>& fences) {
    Machine& mach = *mach_;
    {
      auto sort_phase = mach.phase("store.build.sort");
      em_merge_sort(in_slots, sorted_, SlotKeyLess{});
    }
    // The sorted run is the durable input of every later resume: commit it
    // before the first layout write can tear.
    if (durable()) commit_manifest(kPhaseSorted, 0, 0);
    {
      auto layout_phase = mach.phase("store.build.layout");
      layout_stream(sorted_, in_payload, 0, 0, fences);
    }
    if (!durable()) sorted_ = ExtArray<Slot>();
    {
      auto index_phase = mach.phase("store.build.index");
      build_index(fences);
    }
    if (!durable()) return;
    mach.flush_cache();
    commit_manifest(kPhaseCommitted, records_, payload_words_);
    sorted_ = ExtArray<Slot>();
  }

  /// The layout-phase body, shared by build() and recover(): streams
  /// sorted records [start_record, records_) into the log, gathering each
  /// spilled record's words into the sequential payload area from
  /// `start_word` on, appending one fence per page started.  On a durable
  /// store a checkpoint manifest is committed every manifest_interval log
  /// pages; the partial payload block is synced first (its next flush then
  /// pays the read-modify-write a real device would), so the recorded
  /// frontier is genuinely on device.  start_record must be page-aligned.
  ///
  /// A page at a time: one view of the sorted page (charged as a Scanner
  /// would charge it), its copy rewritten on the host, each spilled value
  /// appended to the payload Writer as spans of its input blocks, then the
  /// rewritten page appended to the log Writer.  That is the reads and
  /// writes of streaming record by record, in the same order.
  void layout_stream(const ExtArray<Slot>& sorted,
                     const ExtArray<std::uint64_t>& in_payload,
                     std::size_t start_record, std::uint64_t start_word,
                     std::vector<std::uint64_t>& fences) {
    Machine& mach = *mach_;
    const std::size_t B = mach.B();
    MemoryReservation in_page(mach.ledger(), B);  // the resident sorted page
    Writer<Slot> out(log_, start_record);
    Writer<std::uint64_t> pay(payload_, static_cast<std::size_t>(start_word));
    // Input payload positions arrive in key order, i.e. scattered: each
    // block switch is one charged read; words of one block are free.
    BlockCursor<std::uint64_t> gather(in_payload);
    std::vector<Slot> page;  // host copy of the page being rewritten
    page.reserve(B);
    std::uint64_t next_word = start_word;
    const std::size_t every = cfg_.manifest_interval * B;  // in records
    for (std::size_t idx = start_record; idx < records_; idx += B) {
      if (every != 0 && idx != start_record && idx % every == 0) {
        pay.finish();  // sync the partial payload block under the frontier
        commit_manifest(kPhaseLayout, idx, next_word);
      }
      const std::span<const Slot> in = sorted.view_block(idx / B).span();
      page.assign(in.begin(), in.end());
      fences.push_back(page.front().key);
      for (Slot& s : page) {
        if (s.len < 2) continue;
        const std::uint64_t src = s.pos;
        if (src + s.len > in_payload.size())
          throw std::out_of_range(
              "KvStore::build: spilled record points past the payload "
              "input");
        s.pos = next_word;
        for (std::uint64_t w = 0; w < s.len;) {
          const std::span<const std::uint64_t> words = gather.rest(src + w);
          const std::size_t take = static_cast<std::size_t>(
              std::min<std::uint64_t>(words.size(), s.len - w));
          pay.append(words.first(take));
          w += take;
        }
        next_word += s.len;
        if (s.len > max_value_words_) max_value_words_ = s.len;
      }
      out.append(page);
    }
    out.finish();
    pay.finish();
    payload_words_ = next_word;
  }

  /// Host-side serving-index construction from the collected fence keys.
  /// I/O-free; the index reservation stays charged for the store's
  /// lifetime.
  void build_index(std::vector<std::uint64_t>& fences) {
    Machine& mach = *mach_;
    if (cfg_.index == IndexKind::kFence) {
      // Branchless Eytzinger layout of the fence keys (util/search.hpp):
      // same rank answers as the sorted array, fewer mispredicts per get.
      // The ledger reservation covers the PADDED footprint — the words the
      // layout actually keeps resident.
      fence_idx_ = util::EytzingerSearch(fences);
      index_res_ = MemoryReservation(mach.ledger(), fence_idx_.footprint());
      index_bits_ = static_cast<std::uint64_t>(fence_idx_.size()) * 64;
    } else {
      const std::size_t pages = fences.size();
      quant_bits_ = std::min<unsigned>(
          64, util::ilog2_ceil(std::max<std::size_t>(pages, 1)) +
                  cfg_.compact_extra_bits);
      std::vector<std::uint64_t> quantized(pages);
      for (std::size_t i = 0; i < pages; ++i)
        quantized[i] = quantize(fences[i]);
      ef_ = EliasFano(quantized, quant_bits_);
      index_res_ = MemoryReservation(mach.ledger(), ef_.words());
      index_bits_ = ef_.bits();
    }
  }

  /// Durably records the build frontier: the cache is flushed (everything
  /// the frontier claims must be on device BEFORE the claim), then the
  /// next slot — seq alternates between the two, the classic superblock
  /// discipline, so a torn slot write can only destroy the OLDER record —
  /// is written and flushed.  Word layout:
  ///   [0] magic          [1] seq            [2] phase
  ///   [3] records_done   [4] payload_words  [5] log_pages_done
  ///   [6] max_value_words [7] machine write clock  [8] records_total
  ///   [9] FNV-1a checksum of words 0..8
  void commit_manifest(std::uint64_t phase, std::uint64_t records_done,
                       std::uint64_t words_done) {
    Machine& mach = *mach_;
    mach.flush_cache();
    ++manifest_seq_;
    std::uint64_t w[kManifestWords] = {};
    w[0] = kManifestMagic;
    w[1] = manifest_seq_;
    w[2] = phase;
    w[3] = records_done;
    w[4] = words_done;
    w[5] = mach.n_of(static_cast<std::size_t>(records_done));
    w[6] = max_value_words_;
    w[7] = mach.stats().writes;
    w[8] = records_;
    w[9] = fault_checksum(w, sizeof(std::uint64_t) * (kManifestWords - 1));
    const std::size_t words = manifest_slot_blocks() * mach.B();
    const std::size_t base = static_cast<std::size_t>(manifest_seq_ % 2) * words;
    Writer<std::uint64_t> out(manifest_, base, base + words);
    for (std::size_t wi = 0; wi < words; ++wi)
      out.push(wi < kManifestWords ? w[wi] : 0);
    out.finish();
    mach.flush_cache();
  }

  /// Reads one manifest slot (charged) and validates magic, checksum, and
  /// shape; an unwritten or torn slot decodes as !valid.
  Manifest read_manifest_slot(std::size_t slot, std::uint64_t& reads) {
    const std::size_t base = slot * manifest_slot_blocks() * mach_->B();
    Scanner<std::uint64_t> scan(manifest_, base, base + kManifestWords);
    std::uint64_t w[kManifestWords] = {};
    for (std::uint64_t& x : w) x = scan.next();
    reads += manifest_slot_blocks();
    Manifest m;
    if (w[0] != kManifestMagic ||
        w[9] != fault_checksum(w, sizeof(std::uint64_t) *
                                      (kManifestWords - 1)) ||
        w[2] < kPhaseSorted || w[2] > kPhaseCommitted || w[8] != records_)
      return m;
    m.valid = true;
    m.seq = w[1];
    m.phase = w[2];
    m.records_done = w[3];
    m.words_done = w[4];
    m.pages_done = w[5];
    m.max_value_words = w[6];
    m.writes_at_commit = w[7];
    m.records_total = w[8];
    return m;
  }

  /// Rebuilds fence keys for log pages [0, pages) by reading each page —
  /// the charged detection scan of recovery.
  void rescan_fences(std::size_t pages, std::vector<std::uint64_t>& fences,
                     std::uint64_t& reads) {
    MemoryReservation page_res(mach_->ledger(), mach_->B());
    for (std::size_t bi = 0; bi < pages; ++bi) {
      fences.push_back(log_.view_block(bi)[0].key);
      ++reads;
    }
  }

  /// A located log page: its index and a view of its records.
  struct Page {
    std::size_t index;
    BlockView<Slot> slots;
  };

  /// Largest page whose fence (first key) is <= key, with a view of it
  /// (the caller holds the page's ledger reservation); nullopt when the
  /// key precedes every stored key.  kFence decides from the fence array
  /// (exactly one log read); kCompact probes the quantized index's
  /// candidate and walks back while the probed page provably starts past
  /// the key.  The walk cannot pass the start of the quantization-collision
  /// run: a page with q(fence) < q(key) has fence < key and terminates it,
  /// so its length is bounded by the run of adjacent fences sharing the
  /// key's top bits.
  /// `reads` is incremented once per log-block read.  The located page is
  /// prefetched for the caller's search (prefetch_page).
  std::optional<Page> locate_page(std::uint64_t key, std::uint64_t& reads) {
    std::optional<Page> located;
    if (cfg_.index == IndexKind::kFence) {
      const std::size_t r = fence_idx_.rank_upper(key);
      if (r == 0) return std::nullopt;
      located = Page{r - 1, log_.view_block(r - 1)};
      ++reads;
    } else {
      std::size_t i = ef_.predecessor(quantize(key));
      if (i == EliasFano::npos) return std::nullopt;  // q(fence_0) > q(key)
      for (;;) {
        BlockView<Slot> page = log_.view_block(i);
        ++reads;
        if (page[0].key <= key) {
          located = Page{i, page};
          break;
        }
        if (i == 0) return std::nullopt;
        --i;
      }
    }
    prefetch_page(located->slots.span());
    return located;
  }

  /// Host hint only — charges nothing, traces nothing: asks the CPU for
  /// every cache line of a located page at once, so last_with_key's binary
  /// search over a cold page does not pay its probes' DRAM misses one
  /// after another.
  static void prefetch_page(std::span<const Slot> page) {
    constexpr std::uintptr_t kLine = 64;
    const auto first = reinterpret_cast<std::uintptr_t>(page.data());
    const std::uintptr_t end = first + page.size_bytes();
    for (std::uintptr_t line = first & ~(kLine - 1); line < end; line += kLine)
      __builtin_prefetch(reinterpret_cast<const void*>(line));
  }

  void note_get(std::uint64_t log_reads) {
    stats_.get_log_reads += log_reads;
    if (log_reads > stats_.max_get_log_reads)
      stats_.max_get_log_reads = log_reads;
  }

  void note_put(std::uint64_t log_reads) {
    stats_.put_log_reads += log_reads;
  }

  std::uint64_t quantize(std::uint64_t key) const {
    return quant_bits_ >= 64 ? key : key >> (64 - quant_bits_);
  }

  Machine* mach_ = nullptr;
  StoreConfig cfg_;
  bool built_ = false;

  std::size_t records_ = 0;
  ExtArray<Slot> log_;
  ExtArray<std::uint64_t> payload_;
  std::uint64_t payload_words_ = 0;
  std::uint64_t max_value_words_ = 0;

  // Durable-build state (cfg_.manifest_interval > 0 only), except sorted_:
  // every build sorts into it, and a durable one keeps it until commit so
  // recover() can resume.
  ExtArray<std::uint64_t> manifest_;  // two alternating superblock slots
  ExtArray<Slot> sorted_;
  std::uint64_t manifest_seq_ = 0;

  // Serving index (one of the two, per cfg_.index), charged for the store's
  // lifetime.
  util::EytzingerSearch fence_idx_;
  EliasFano ef_;
  unsigned quant_bits_ = 0;
  MemoryReservation index_res_;
  std::uint64_t index_bits_ = 0;

  IoStats build_io_;
  std::uint64_t build_cost_ = 0;
  StoreStats stats_;
};

}  // namespace aem::store
