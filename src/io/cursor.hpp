// Random-access block reading with single-block caching.
//
// BlockCursor keeps the most recently read block resident (B elements of
// internal memory, held as a BlockView, so the host copies nothing) and only
// charges a read when the requested block differs from the resident one.
// This is exactly the access pattern of the naive permutation program:
// consecutive gathers from the same source block cost one I/O, not one per
// element.  Scanner is its sequential special case.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "core/ext_array.hpp"

namespace aem {

template <class T>
class BlockCursor {
 public:
  explicit BlockCursor(const ExtArray<T>& arr)
      : arr_(&arr), res_(arr.machine().ledger(), arr.machine().B()) {}

  /// The element at global index `elem`: loads its block (one charged
  /// read) unless that block is resident.  Throws std::out_of_range past
  /// the end of the array.
  const T& at(std::size_t elem) {
    if (elem - lo_ >= view_.size()) {
      const std::size_t B = arr_->machine().B();
      if (view_.size() == 0 || elem / B != lo_ / B) {
        view_ = arr_->view_block(elem / B);
        lo_ = elem / B * B;
      }
      if (elem - lo_ >= view_.size())
        throw std::out_of_range("BlockCursor: element past the array end");
    }
    return view_[elem - lo_];
  }

  /// Ticket of the most recent charged read.
  IoTicket last_ticket() const { return view_.ticket(); }

 private:
  const ExtArray<T>* arr_;
  MemoryReservation res_;  // the resident block
  BlockView<T> view_;      // empty: nothing resident
  std::size_t lo_ = 0;     // global index of the resident block's first element
};

}  // namespace aem
