#include "core/faults.hpp"

#include <cmath>
#include <cstring>
#include <limits>

namespace aem {

namespace {

/// SplitMix64 finalizer: a high-quality 64-bit mix, the standard choice for
/// counter-based deterministic streams.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Probability -> threshold on a uniform 64-bit draw (r < thresh faults).
std::uint64_t rate_to_threshold(double rate) {
  if (rate <= 0.0) return 0;
  if (rate >= 1.0) return std::numeric_limits<std::uint64_t>::max();
  return static_cast<std::uint64_t>(
      rate * static_cast<double>(std::numeric_limits<std::uint64_t>::max()));
}

void check_rate(const char* name, double rate) {
  if (!(rate >= 0.0 && rate <= 1.0))
    throw std::invalid_argument(std::string("FaultConfig: ") + name +
                                " must be in [0, 1]");
}

}  // namespace

void FaultConfig::validate() const {
  check_rate("read_fault_rate", read_fault_rate);
  check_rate("silent_write_rate", silent_write_rate);
  check_rate("torn_write_rate", torn_write_rate);
  if (silent_write_rate + torn_write_rate > 1.0)
    throw std::invalid_argument(
        "FaultConfig: silent_write_rate + torn_write_rate must be <= 1");
}

CrashError::CrashError(std::uint64_t after_writes, IoStats at)
    : std::runtime_error("power cut: crash point hit after " +
                         std::to_string(after_writes) +
                         " charged writes (reads=" + std::to_string(at.reads) +
                         " writes=" + std::to_string(at.writes) + ")"),
      after_writes_(after_writes),
      at_(at) {}

FaultError::FaultError(bool is_write, std::uint32_t array, std::uint64_t block,
                       std::size_t attempts, const std::string& detail)
    : std::runtime_error("unrecoverable " +
                         std::string(is_write ? "write" : "read") +
                         " fault: array " + std::to_string(array) + " block " +
                         std::to_string(block) + " after " +
                         std::to_string(attempts) + " attempt(s): " + detail),
      is_write_(is_write),
      array_(array),
      block_(block),
      attempts_(attempts) {}

std::uint64_t fault_checksum(const void* data, std::size_t bytes) {
  constexpr std::uint64_t kBasis = 0xCBF29CE484222325ull;  // FNV offset
  constexpr std::uint64_t kPrime = 0x100000001B3ull;       // FNV prime
  constexpr std::size_t kLanes = 4;
  constexpr std::size_t kWord = sizeof(std::uint64_t);
  const auto* p = static_cast<const unsigned char*>(data);
  auto word_at = [p](std::size_t i) {
    std::uint64_t w;
    std::memcpy(&w, p + i, kWord);
    return w;
  };
  std::uint64_t h = kBasis;
  std::size_t i = 0;
  if (bytes >= kLanes * kWord) {
    // Four independent multiply chains, so the multiplies overlap.
    std::uint64_t lane[kLanes] = {kBasis, kBasis, kBasis, kBasis};
    for (; i + kLanes * kWord <= bytes; i += kLanes * kWord)
      for (std::size_t k = 0; k < kLanes; ++k)
        lane[k] = (lane[k] ^ word_at(i + k * kWord)) * kPrime;
    for (std::uint64_t l : lane) h = (h ^ l) * kPrime;
  }
  for (; i + kWord <= bytes; i += kWord) h = (h ^ word_at(i)) * kPrime;
  for (; i < bytes; ++i) h = (h ^ p[i]) * kPrime;
  return h;
}

FaultPolicy::FaultPolicy(FaultConfig cfg) : cfg_(cfg) {
  cfg_.validate();
  read_thresh_ = rate_to_threshold(cfg_.read_fault_rate);
  silent_thresh_ = rate_to_threshold(cfg_.silent_write_rate);
  torn_thresh_ = rate_to_threshold(cfg_.torn_write_rate);
  crash_arm_ = cfg_.crash_after_writes;
}

void FaultPolicy::reset() {
  counter_ = 0;
  stats_ = FaultStats{};
  writes_.clear();
  crash_arm_ = cfg_.crash_after_writes;
  crashes_fired_ = 0;
}

void FaultPolicy::fire_crash(const IoStats& at) {
  // One cut per arm: recovery code runs on the same machine afterwards and
  // must not be cut again at every subsequent write.  reset() re-arms.
  const std::uint64_t point = crash_arm_;
  crash_arm_ = 0;
  ++crashes_fired_;
  throw CrashError(point, at);
}

std::uint64_t FaultPolicy::draw(std::uint64_t salt) {
  return mix64(cfg_.seed ^ (++counter_ * 0xD1B54A32D192ED03ull) ^ salt);
}

bool FaultPolicy::draw_read_fault() {
  if (read_thresh_ == 0) return false;  // keeps the stream short when off
  const bool fault = draw(0x52454144 /* "READ" */) < read_thresh_;
  if (fault) ++stats_.read_faults;
  return fault;
}

FaultKind FaultPolicy::draw_write_fault() {
  if (silent_thresh_ == 0 && torn_thresh_ == 0) return FaultKind::kNone;
  const std::uint64_t r = draw(0x57524954 /* "WRIT" */);
  // One draw decides between the mutually exclusive write outcomes: the
  // [0, silent) band is silent corruption, [silent, silent+torn) is torn.
  if (r < silent_thresh_) {
    ++stats_.silent_write_faults;
    return FaultKind::kSilentWrite;
  }
  if (torn_thresh_ != 0 && r - silent_thresh_ < torn_thresh_) {
    ++stats_.torn_write_faults;
    return FaultKind::kTornWrite;
  }
  return FaultKind::kNone;
}

std::uint64_t FaultPolicy::draw_u64() { return draw(0x4D41534B /* "MASK" */); }

bool FaultPolicy::record_write(std::uint32_t array, std::uint64_t block) {
  if (cfg_.endurance == 0) return false;
  if (array >= writes_.size()) writes_.resize(array + 1);
  auto& blocks = writes_[array];
  if (block >= blocks.size()) blocks.resize(block + 1, 0);
  const std::uint64_t count = ++blocks[block];
  if (count == cfg_.endurance + 1) ++stats_.retired_blocks;
  if (count > cfg_.endurance) {
    ++stats_.retired_writes;
    return true;
  }
  return false;
}

bool FaultPolicy::retired(std::uint32_t array, std::uint64_t block) const {
  return cfg_.endurance != 0 &&
         lifetime_writes(array, block) > cfg_.endurance;
}

std::uint64_t FaultPolicy::lifetime_writes(std::uint32_t array,
                                           std::uint64_t block) const {
  if (array >= writes_.size()) return 0;
  const auto& blocks = writes_[array];
  return block < blocks.size() ? blocks[block] : 0;
}

}  // namespace aem
