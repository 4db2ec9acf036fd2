// The unit-cost flash memory model of Ajwani et al. [2], as used by the
// paper's Section 4.1 reduction.
//
// The model is an external memory with two block granularities: writes move
// big blocks (here B elements, matching the AEM block) and reads move small
// blocks (here B/omega elements).  Cost is proportional to the number of
// elements transferred — "unit cost per element" — so a big-block write
// costs B and a small-block read costs B/omega, reproducing the AEM's
// omega:1 write:read cost ratio per block.
//
// FlashMachine is pure accounting: Lemma 4.3's simulation (simulate.hpp)
// decides which transfers happen; the machine totals their volume.
#pragma once

#include <cstdint>
#include <stdexcept>

namespace aem::flash {

struct FlashConfig {
  std::uint64_t read_block = 1;   // small block: B / omega elements
  std::uint64_t write_block = 1;  // big block: B elements

  /// Lemma 4.3's assumptions: B > omega and B a multiple of omega translate
  /// to read_block >= 1 and write_block a multiple of read_block.
  void validate() const {
    if (read_block == 0 || write_block == 0)
      throw std::invalid_argument("flash: block sizes must be positive");
    if (write_block % read_block != 0)
      throw std::invalid_argument(
          "flash: write block must be a multiple of the read block");
  }

  /// Small blocks per big block (the omega of the corresponding AEM).
  std::uint64_t ratio() const { return write_block / read_block; }

  /// The flash config matching an (M,B,omega)-AEM.  Requires B a positive
  /// multiple of omega (the Lemma 4.3 precondition).
  static FlashConfig for_aem(std::uint64_t B, std::uint64_t omega) {
    if (omega == 0 || B % omega != 0 || B / omega == 0)
      throw std::invalid_argument(
          "flash: Lemma 4.3 requires B to be a positive multiple of omega");
    return FlashConfig{B / omega, B};
  }
};

/// The transfers a FlashMachine charged, in operations and in elements.
struct FlashCounts {
  std::uint64_t read_ops = 0;   // small-block reads issued
  std::uint64_t write_ops = 0;  // big-block writes issued
  std::uint64_t read_volume = 0;
  std::uint64_t write_volume = 0;
  std::uint64_t scan_volume = 0;  // the 2N normalization pre-pass

  /// Total I/O volume in elements — the quantity Lemma 4.3 bounds.
  std::uint64_t total_volume() const {
    return read_volume + write_volume + scan_volume;
  }
};

class FlashMachine {
 public:
  explicit FlashMachine(FlashConfig cfg) : cfg_(cfg) { cfg_.validate(); }

  const FlashConfig& config() const { return cfg_; }

  /// Charges one small-block read.
  void read_small() { read_small(1); }
  /// Charges `count` small-block reads.
  void read_small(std::uint64_t count) {
    counts_.read_ops += count;
    counts_.read_volume += count * cfg_.read_block;
  }
  /// Charges one big-block write.
  void write_big() {
    ++counts_.write_ops;
    counts_.write_volume += cfg_.write_block;
  }
  /// Charges `elems` elements of sequential scan volume (the normalization
  /// pre-pass reads and rewrites the input once: 2N elements).
  void scan(std::uint64_t elems) { counts_.scan_volume += elems; }

  const FlashCounts& counts() const { return counts_; }

 private:
  FlashConfig cfg_;
  FlashCounts counts_;
};

}  // namespace aem::flash
