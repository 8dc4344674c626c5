// MSA row kernel — push-based Masked SpGEMM with the Masked Sparse
// Accumulator (paper §5.2, Algorithm 2).
//
// Per output row i:   v = m ⊙ Σ_{A(i,k)≠0} A(i,k) · B(k,:)
// The accumulator's ALLOWED states are seeded from the mask row, every
// product is offered lazily (never evaluated for masked-out columns), and
// the gather walks the mask row so the output inherits its ordering.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>

#include "accum/dense_tile.hpp"
#include "accum/msa.hpp"
#include "accum/msa_bitmap.hpp"
#include "core/kernel_common.hpp"
#include "matrix/csr.hpp"
#include "semiring/semirings.hpp"

namespace msx {

// AccOverride substitutes a different accumulator with the same interface
// (e.g. MSABitmapMasked); void selects the paper's byte-state MSA.
template <class SR, class IT, class VT, bool Complemented,
          class AccOverride = void>
  requires Semiring<SR>
class MSAKernel {
 public:
  using index_type = IT;
  using output_value = typename SR::value_type;
  using Acc = std::conditional_t<
      std::is_void_v<AccOverride>,
      std::conditional_t<Complemented, MSAComplement<IT, output_value>,
                         MSAMasked<IT, output_value>>,
      AccOverride>;

  struct Workspace {
    Acc acc;
    // Accumulator column bound for the current partition block (0 = full
    // matrix width). Set by begin_block under the flop-balanced schedule.
    std::int64_t col_bound = 0;
    void reset() {
      acc.clear();
      col_bound = 0;
    }
  };

  MSAKernel(const CSRMatrix<IT, VT>& a, const CSRMatrix<IT, VT>& b,
            MaskView<IT> m)
      : a_(a), b_(b), m_(m) {}

  IT nrows() const { return a_.nrows(); }
  IT ncols() const { return b_.ncols(); }

  std::size_t upper_bound_row(IT i) const {
    return detail::masked_upper_bound(
        a_, b_, m_, i,
        Complemented ? MaskKind::kComplement : MaskKind::kMask);
  }

  std::size_t cost_row(IT i, CostModel model) const {
    return detail::push_row_cost(a_, b_, m_, i, model);
  }

  double work_hint() const { return detail::push_work_hint(a_, b_); }

  // Per-block accumulator sizing: the MSA state/value arrays are dense over
  // the matrix width, but only ever probed at columns the block's rows can
  // touch — so the phase driver sizes them by the block's widest row.
  std::int64_t width_row(IT i) const {
    return detail::push_row_width(a_, b_, m_, i);
  }
  void begin_block(Workspace& ws, std::int64_t width) const {
    ws.col_bound = width;
  }

  IT numeric_row(Workspace& ws, IT i, IT* out_cols,
                 output_value* out_vals) const {
    const auto arow = a_.row(i);
    const auto mrow = m_.row(i);
    if (arow.empty()) return 0;
    if constexpr (!Complemented) {
      if (mrow.empty()) return 0;
    }
    auto& acc = ws.acc;
    acc.init(acc_cols(ws));
    acc.prepare(mrow);
    constexpr auto add = [](output_value x, output_value y) {
      return SR::add(x, y);
    };
    for (IT p = 0; p < arow.size(); ++p) {
      const auto aval = static_cast<output_value>(arow.vals[p]);
      const auto brow = b_.row(arow.cols[p]);
      for (IT q = 0; q < brow.size(); ++q) {
        acc.insert(
            brow.cols[q],
            [&] { return SR::mul(aval, static_cast<output_value>(brow.vals[q])); },
            add);
      }
    }
    return acc.gather_and_reset(mrow, out_cols, out_vals);
  }

  IT symbolic_row(Workspace& ws, IT i) const {
    const auto arow = a_.row(i);
    const auto mrow = m_.row(i);
    if (arow.empty()) return 0;
    if constexpr (!Complemented) {
      if (mrow.empty()) return 0;
    }
    auto& acc = ws.acc;
    acc.init(acc_cols(ws));
    acc.prepare(mrow);
    IT cnt = 0;
    for (IT p = 0; p < arow.size(); ++p) {
      const auto brow = b_.row(arow.cols[p]);
      for (IT q = 0; q < brow.size(); ++q) {
        cnt += acc.insert_symbolic(brow.cols[q]);
      }
    }
    acc.reset(mrow);
    return cnt;
  }

 private:
  // Columns the accumulator must cover for the current block: the block
  // width when the partition provided one, the full matrix width otherwise.
  IT acc_cols(const Workspace& ws) const {
    if (ws.col_bound <= 0) return b_.ncols();
    return static_cast<IT>(std::min<std::int64_t>(
        ws.col_bound, static_cast<std::int64_t>(b_.ncols())));
  }

  const CSRMatrix<IT, VT>& a_;
  const CSRMatrix<IT, VT>& b_;
  MaskView<IT> m_;
};

// MaskedAlgo::kMSABitmap: MSA with 2-bit packed states. The bitmap layout
// keeps no touched list, so complemented calls fall back to the byte-state
// MSA.
template <class SR, class IT, class VT, bool Complemented>
using MSABitmapKernel = std::conditional_t<
    Complemented, MSAKernel<SR, IT, VT, true>,
    MSAKernel<SR, IT, VT, false,
              MSABitmapMasked<IT, typename SR::value_type>>>;

// MaskedAlgo::kMSADense: MSA over the dense row tile, for both mask kinds.
template <class SR, class IT, class VT, bool Complemented>
using MSADenseKernel = MSAKernel<
    SR, IT, VT, Complemented,
    std::conditional_t<Complemented,
                       DenseTileComplement<IT, typename SR::value_type>,
                       DenseTileMasked<IT, typename SR::value_type>>>;

}  // namespace msx
