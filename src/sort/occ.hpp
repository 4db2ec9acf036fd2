// Occurrence tagging for watermark-based merging (Section 3.1).
//
// The paper's merge tracks, per input run, the largest element already
// written to the output (the watermark p_i) and resumes each round from "the
// smallest element larger than p_i".  With duplicate keys that definition is
// ambiguous, so the implementation orders *occurrences*: an element together
// with its (run, position) provenance.  The total order is
//
//   (a < b)  iff  less(a.val, b.val)
//                 or (keys tie and (a.run, a.pos) < (b.run, b.pos))
//
// which is strict, total (positions are unique), costs no extra I/O (the
// provenance is known while scanning), and makes every consumption watermark
// well-defined.  It also makes the sort stable, since runs are numbered in
// input order and positions ascend within a run.
//
// Section 3.1 explicitly budgets "a constant number of additional words of
// auxiliary data with each element" by letting the algorithm use a constant
// fraction of M; the ledger charges one element per resident occurrence and
// the algorithms reserve conservative fractions (see merge.hpp).
#pragma once

#include <cstdint>

namespace aem::sort_detail {

template <class T>
struct Occ {
  T val{};
  std::uint32_t run = 0;
  std::uint64_t pos = 0;  // absolute element index in the level's source array
};

/// Strict total order on occurrences induced by a strict weak order on keys.
template <class T, class Less>
class OccLess {
 public:
  explicit OccLess(Less less) : less_(less) {}

  bool operator()(const Occ<T>& a, const Occ<T>& b) const {
    if (less_(a.val, b.val)) return true;
    if (less_(b.val, a.val)) return false;
    if (a.run != b.run) return a.run < b.run;
    return a.pos < b.pos;
  }

  /// Key equivalence under the underlying weak order (used by combiners).
  bool equiv(const T& a, const T& b) const {
    return !less_(a, b) && !less_(b, a);
  }

  const Less& key_less() const { return less_; }

 private:
  Less less_;
};

}  // namespace aem::sort_detail
