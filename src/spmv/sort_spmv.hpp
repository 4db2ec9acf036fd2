// The sorting-based SpMxV program of Section 5.
//
// 1. Products: one simultaneous scan of A (column-major) and x — the column
//    indices of A's entries are non-decreasing, so x is scanned forward
//    with skips — replacing each a_ij with the elementary product
//    a_ij (x) x_j tagged by its row:  h + n reads, h writes.
// 2. Run formation: small_sort-with-combine over chunks of base =
//    omega*M/2 products, sorting each chunk by row and folding key-equal
//    partial sums:  O(omega h) reads, O(h) writes.  (The paper forms runs
//    from the delta-sorted columns / meta-columns; chunking by base can
//    only produce FEWER runs whenever delta*max(delta,B) <= omega*M, which
//    holds throughout the Theorem 5.1 regime omega*delta*M*B <= N^(1-eps).)
// 3. Merge: d-way merge_all_runs with the semiring combiner — the
//    log_{omega m} factor of the bound.
// 4. Densify: scan the merged (row, value) list and emit y in natural
//    order, filling semiring zeros for empty rows:  <= h reads, n writes.
//
// Total: O(omega h log_{omega m}(N / max{delta, B}) + omega n), matching
// the sort branch of the Section 5 upper bound.
#pragma once

#include <cstddef>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/ext_array.hpp"
#include "io/scanner.hpp"
#include "io/writer.hpp"
#include "sort/mergesort.hpp"
#include "sort/small_sort.hpp"
#include "spmv/matrix.hpp"
#include "spmv/semiring.hpp"

namespace aem::spmv {

namespace detail {

template <class V>
struct RowVal {
  std::uint32_t row = 0;
  V val{};
};

/// Shared implementation; x == nullptr computes y = A (x) 1 (row sums, the
/// Theorem 5.1 hard instance) and skips the x-scan of phase 1 entirely.
template <Semiring S>
void sort_multiply(const SparseMatrix<typename S::Value>& A,
                   const ExtArray<typename S::Value>* x,
                   ExtArray<typename S::Value>& y, S s) {
  using V = typename S::Value;
  using RV = detail::RowVal<V>;
  const std::uint64_t N = A.n();
  const std::uint64_t H = A.nnz();
  if ((x != nullptr && x->size() != N) || y.size() != N)
    throw std::invalid_argument("sort_spmv: vector size mismatch");
  if (A.conformation().layout() != Layout::kColumnMajor)
    throw std::invalid_argument(
        "sort_spmv: requires column-major layout (phase 1's simultaneous "
        "scan of A and x needs non-decreasing column indices); for "
        "row-major matrices the direct program is already scan-cheap");

  Machine& mach = y.machine();
  const SortBudget budget = SortBudget::from(mach);
  auto by_row = [](const RV& a, const RV& b) { return a.row < b.row; };
  auto fold = [s](RV& acc, const RV& next) {
    acc.val = s.add(acc.val, next.val);
  };

  ExtArray<RV> products(mach, H, "spmv.products");
  {
    // Phase 1: elementary products via simultaneous forward scans (the
    // column indices of A's entries are non-decreasing, so x is scanned
    // forward with skips).  With the implicit all-ones vector the x scan
    // disappears and the products are the entries themselves.
    auto phase = mach.phase("spmv.products");
    Scanner<MatrixEntry<V>> a_scan(A.entries());
    std::optional<Scanner<V>> x_scan;
    if (x != nullptr) x_scan.emplace(*x);
    std::size_t x_pos = 0;
    V x_val = s.one();
    bool x_loaded = false;
    Writer<RV> w(products);
    while (!a_scan.done()) {
      const MatrixEntry<V> e = a_scan.next();
      if (x_scan && (!x_loaded || e.col > x_pos)) {
        if (x_loaded && e.col > x_pos) x_scan->skip(e.col - x_pos - 1);
        while (x_scan->position() <= e.col) {
          x_pos = x_scan->position();
          x_val = x_scan->next();
        }
        x_loaded = true;
      }
      w.push(RV{e.row, s.mul(e.val, x_val)});
    }
    w.finish();
  }

  // Phase 2: row-sorted, row-combined runs of up to `base` products.
  ExtArray<RV> run_buf_a(mach, H, "spmv.runs.a");
  ExtArray<RV> run_buf_b(mach, H, "spmv.runs.b");
  std::vector<RunBounds> runs;
  {
    auto phase = mach.phase("spmv.runs");
    sort_detail::SmallSortScratch<RV> base_scratch;
    for (std::size_t begin = 0; begin < H; begin += budget.base) {
      const std::size_t end = std::min<std::size_t>(H, begin + budget.base);
      const std::size_t written = sort_detail::small_sort(
          base_scratch, products, begin, end, run_buf_a, begin, by_row, fold);
      runs.push_back(RunBounds{begin, begin + written});
    }
  }

  // Phase 3: d-way merge with semiring combining.
  const ExtArray<RV>* merged = &run_buf_a;
  RunBounds final_bounds = runs.empty() ? RunBounds{0, 0} : runs.front();
  {
    auto phase = mach.phase("spmv.merge");
    auto [arr, bounds] = merge_all_runs(&run_buf_a, runs, &run_buf_b,
                                        &run_buf_a, by_row, fold);
    merged = arr;
    final_bounds = bounds;
  }

  {
    // Phase 4: densify into y.
    auto phase = mach.phase("spmv.densify");
    Scanner<RV> scan(*merged, final_bounds.begin, final_bounds.end);
    Writer<V> w(y);
    for (std::uint64_t r = 0; r < N; ++r) {
      if (!scan.done() && scan.peek().row == r) {
        w.push(scan.next().val);
      } else {
        w.push(s.zero());
      }
    }
    w.finish();
  }
}

}  // namespace detail

/// y = A (x) x over semiring `s`, by sorting elementary products by row.
template <Semiring S>
void sort_spmv(const SparseMatrix<typename S::Value>& A,
               const ExtArray<typename S::Value>& x,
               ExtArray<typename S::Value>& y, S s = {}) {
  detail::sort_multiply(A, &x, y, s);
}

/// y = A (x) 1 — the paper's hard instance (row sums), no x reads.
template <Semiring S>
void sort_row_sums(const SparseMatrix<typename S::Value>& A,
                   ExtArray<typename S::Value>& y, S s = {}) {
  detail::sort_multiply<S>(A, nullptr, y, s);
}

}  // namespace aem::spmv
