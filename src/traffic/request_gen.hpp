// Deterministic open-loop request-stream generator (traffic/request_gen.hpp;
// docs/MODEL.md section 16).
//
// A serving workload is an ARRIVAL STREAM, not a batch: millions of skewed
// point and range requests whose key popularity, read/write mix, and drift
// over time decide which placement and cache policy win.  The generator
// produces that stream deterministically: request i is a PURE FUNCTION of
// (stream seed, i) — each request draws from its own private Rng seeded
// with harness::derive_seed(stream_seed, i), the same counter-based
// substream discipline the parallel sweep harness uses for its points.
// Any partition of the stream (per-shard substreams, chunked generation,
// --jobs workers) therefore generates byte-identical requests, which is
// what keeps every traffic bench byte-identical for any job count.
//
// Key-popularity distributions:
//
//  * kUniform — every key slot equally likely;
//  * kZipf    — Zipf(theta) by the standard bounded approximation (Gray et
//    al., SIGMOD '94): rank r is drawn with probability ~ 1/r^theta and
//    mapped to key slot r IDENTICALLY, so the hottest ranks are the LOWEST
//    key values — a hot PREFIX of the sorted log, the adversarial case for
//    range placement (bench_t1_traffic's rr-vs-range guard);
//  * kHotSet  — a contiguous window of hot_fraction * key_space slots
//    receives hot_weight of the probability mass; every drift_every
//    requests the window slides forward by its own width (wrapping), so a
//    cache tuned to the old hot set pays the re-warm bill.
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "harness/parallel_sweep.hpp"
#include "util/rng.hpp"

namespace aem::traffic {

/// Key-popularity distribution of the stream.
enum class KeyDist : std::uint8_t {
  kUniform,
  kZipf,
  kHotSet,
};

inline const char* to_string(KeyDist d) {
  switch (d) {
    case KeyDist::kUniform: return "uniform";
    case KeyDist::kZipf: return "zipf";
    case KeyDist::kHotSet: return "hotset";
  }
  return "?";
}

/// One request's operation.
enum class OpKind : std::uint8_t {
  kGet,   // point query (KvStore::get)
  kPut,   // inline point update (KvStore::put_inline)
  kScan,  // range query of scan_len keys (KvStore::scan)
};

inline const char* to_string(OpKind op) {
  switch (op) {
    case OpKind::kGet: return "get";
    case OpKind::kPut: return "put";
    case OpKind::kScan: return "scan";
  }
  return "?";
}

struct Request {
  OpKind op = OpKind::kGet;
  std::uint64_t key = 0;       // already mapped through key_stride
  std::uint64_t value = 0;     // kPut only: the inline word to write
  std::uint64_t scan_len = 0;  // kScan only: keys covered ([key, key+len-1])
};

struct TrafficConfig {
  /// Stream length (requests generated per TrafficEngine::run).
  std::uint64_t requests = 0;

  KeyDist dist = KeyDist::kZipf;

  /// kZipf skew parameter, in (0, 1).  0.99 is the YCSB default.
  double zipf_theta = 0.99;

  /// Key slots are drawn from [0, key_space); the emitted key is
  /// slot * key_stride.  A store built over keys {0, stride, 2*stride, ...}
  /// with key_space = records serves an all-hit stream; key_stride > 1 with
  /// key_space = stride * records makes the gaps guaranteed misses.
  std::uint64_t key_space = 0;
  std::uint64_t key_stride = 1;

  /// Operation mix: a request is a put with probability write_fraction, a
  /// scan with probability scan_fraction, a get otherwise.
  double write_fraction = 0.0;
  double scan_fraction = 0.0;

  /// kScan requests cover [key, key + scan_len*key_stride - 1].
  std::uint64_t scan_len = 16;

  /// Requests admitted (or rejected) as a group by the engine's admission
  /// control — one budget check per batch, the group-commit discipline.
  std::uint64_t batch_size = 1;

  /// kHotSet only: window size as a fraction of key_space, the window's
  /// share of the probability mass, and the slide period (0 = static
  /// window at slot 0 — a hot prefix).
  double hot_fraction = 0.1;
  double hot_weight = 0.9;
  std::uint64_t drift_every = 0;

  /// Throws std::invalid_argument on an empty key space, a theta outside
  /// (0, 1), fractions outside [0, 1] (or a mix summing past 1), a zero
  /// stride/scan length/batch, or a hot window of zero slots.
  void validate() const {
    if (key_space == 0)
      throw std::invalid_argument("TrafficConfig: key_space must be > 0");
    if (key_stride == 0)
      throw std::invalid_argument("TrafficConfig: key_stride must be > 0");
    if (!(zipf_theta > 0.0) || !(zipf_theta < 1.0))
      throw std::invalid_argument(
          "TrafficConfig: zipf_theta must be in (0, 1)");
    if (write_fraction < 0.0 || write_fraction > 1.0 || scan_fraction < 0.0 ||
        scan_fraction > 1.0 || write_fraction + scan_fraction > 1.0)
      throw std::invalid_argument(
          "TrafficConfig: write_fraction + scan_fraction must stay in "
          "[0, 1]");
    if (scan_len == 0)
      throw std::invalid_argument("TrafficConfig: scan_len must be > 0");
    if (batch_size == 0)
      throw std::invalid_argument("TrafficConfig: batch_size must be > 0");
    if (dist == KeyDist::kHotSet) {
      if (!(hot_fraction > 0.0) || hot_fraction > 1.0)
        throw std::invalid_argument(
            "TrafficConfig: hot_fraction must be in (0, 1]");
      if (hot_weight < 0.0 || hot_weight > 1.0)
        throw std::invalid_argument(
            "TrafficConfig: hot_weight must be in [0, 1]");
    }
  }
};

/// Generates the stream.  at(i) is a pure const function of (seed, i):
/// thread-safe, order-free, replayable in any chunking.
class RequestGen {
 public:
  RequestGen(TrafficConfig cfg, std::uint64_t stream_seed)
      : cfg_(cfg), seed_(stream_seed) {
    cfg_.validate();
    const double n = static_cast<double>(cfg_.key_space);
    if (cfg_.dist == KeyDist::kZipf) {
      // Gray et al. bounded-Zipf constants; zetan is the one O(key_space)
      // host-side pass, paid once per generator.
      double zetan = 0.0;
      for (std::uint64_t i = 1; i <= cfg_.key_space; ++i)
        zetan += 1.0 / std::pow(static_cast<double>(i), cfg_.zipf_theta);
      zetan_ = zetan;
      alpha_ = 1.0 / (1.0 - cfg_.zipf_theta);
      zeta2_ = 1.0 + std::pow(0.5, cfg_.zipf_theta);
      eta_ = (1.0 - std::pow(2.0 / n, 1.0 - cfg_.zipf_theta)) /
             (1.0 - zeta2_ / zetan_);
    } else if (cfg_.dist == KeyDist::kHotSet) {
      hot_slots_ = static_cast<std::uint64_t>(
          cfg_.hot_fraction * static_cast<double>(cfg_.key_space));
      if (hot_slots_ == 0) hot_slots_ = 1;
      if (hot_slots_ > cfg_.key_space) hot_slots_ = cfg_.key_space;
    }
  }

  const TrafficConfig& config() const { return cfg_; }
  std::uint64_t stream_seed() const { return seed_; }

  /// Request i of the stream.  Draw order is fixed (op, then slot, then the
  /// put value) so the emitted stream is part of the output contract.
  Request at(std::uint64_t i) const {
    util::Rng rng(harness::derive_seed(seed_, i));
    Request r;
    const double u = rng.uniform01();
    if (u < cfg_.write_fraction) {
      r.op = OpKind::kPut;
    } else if (u < cfg_.write_fraction + cfg_.scan_fraction) {
      r.op = OpKind::kScan;
      r.scan_len = cfg_.scan_len;
    } else {
      r.op = OpKind::kGet;
    }
    r.key = slot(rng, i) * cfg_.key_stride;
    if (r.op == OpKind::kPut) r.value = rng.next();
    return r;
  }

 private:
  std::uint64_t slot(util::Rng& rng, std::uint64_t i) const {
    switch (cfg_.dist) {
      case KeyDist::kUniform:
        return rng.below(cfg_.key_space);
      case KeyDist::kZipf: {
        // Rank -> slot is the identity: the hottest ranks are the lowest
        // slots, i.e. a hot prefix of the key space.
        const double u = rng.uniform01();
        const double uz = u * zetan_;
        if (uz < 1.0) return 0;
        if (uz < zeta2_) return 1;
        const double n = static_cast<double>(cfg_.key_space);
        auto rank = static_cast<std::uint64_t>(
            n * std::pow(eta_ * u - eta_ + 1.0, alpha_));
        return rank >= cfg_.key_space ? cfg_.key_space - 1 : rank;
      }
      case KeyDist::kHotSet: {
        const std::uint64_t epoch =
            cfg_.drift_every == 0 ? 0 : i / cfg_.drift_every;
        const std::uint64_t start = (epoch * hot_slots_) % cfg_.key_space;
        if (rng.uniform01() < cfg_.hot_weight)
          return (start + rng.below(hot_slots_)) % cfg_.key_space;
        return rng.below(cfg_.key_space);
      }
    }
    return 0;
  }

  TrafficConfig cfg_;
  std::uint64_t seed_ = 0;

  // kZipf constants.
  double zetan_ = 0.0;
  double zeta2_ = 0.0;  // 1 + 0.5^theta: unnormalized mass of ranks 0 and 1
  double alpha_ = 0.0;
  double eta_ = 0.0;

  // kHotSet window size in slots.
  std::uint64_t hot_slots_ = 0;
};

}  // namespace aem::traffic
