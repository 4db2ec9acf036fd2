// Output sink shared by small_sort and merge_runs: a sequential Writer with
// an optional combiner that folds adjacent key-equal elements into one
// (the semiring accumulation the SpMxV algorithms need, Section 5).
//
// The combiner holds back one pending element so that equal keys meeting at
// a round boundary still combine; finish() flushes it.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <type_traits>

#include "core/ext_array.hpp"
#include "io/writer.hpp"

namespace aem::sort_detail {

/// Combine = std::nullptr_t disables combining (plain pass-through).
/// Otherwise Combine is callable as combine(T& accumulator, const T& next)
/// and KeyEq as eq(a, b) for key equivalence.
template <class T, class KeyEq, class Combine>
class CombineSink {
 public:
  static constexpr bool kCombining = !std::is_same_v<Combine, std::nullptr_t>;

  CombineSink(ExtArray<T>& dst, std::size_t begin, std::size_t end,
              KeyEq eq, Combine combine)
      : writer_(dst, begin, end), eq_(eq), combine_(combine) {}

  void push(const T& v) {
    if constexpr (kCombining) {
      if (!pending_.has_value()) {
        pending_ = v;
      } else if (eq_(*pending_, v)) {
        combine_(*pending_, v);
      } else {
        writer_.push(*pending_);
        ++written_;
        pending_ = v;
      }
    } else {
      writer_.push(v);
      ++written_;
    }
  }

  /// push(v) for every v in `vals`, in order.
  void append(std::span<const T> vals) {
    if constexpr (kCombining) {
      for (const T& v : vals) push(v);
    } else {
      writer_.append(vals);
      written_ += vals.size();
    }
  }

  /// Flushes the pending element and the final partial block; returns the
  /// number of elements written.
  std::size_t finish() {
    if constexpr (kCombining) {
      if (pending_.has_value()) {
        writer_.push(*pending_);
        ++written_;
        pending_.reset();
      }
    }
    writer_.finish();
    return written_;
  }

  std::size_t written() const { return written_; }

 private:
  Writer<T> writer_;
  KeyEq eq_;
  Combine combine_;
  std::optional<T> pending_;
  std::size_t written_ = 0;
};

}  // namespace aem::sort_detail
