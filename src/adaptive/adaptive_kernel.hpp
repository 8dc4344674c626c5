// AdaptiveKernel — per-block execution-mode dispatch over the offer-order
// push kernels (ISSUE 10 tentpole).
//
// One row kernel that owns three interchangeable engines and switches
// between them at partition-block granularity inside a single product:
//
//   sparse — the MaskedAlgo::kHash kernel (hash accumulator, §5.3)
//   bitmap — the MaskedAlgo::kMSABitmap kernel (byte MSA for complement)
//   dense  — the MaskedAlgo::kMSADense kernel (accum/dense_tile.hpp)
//
// All three accumulate per column in offer order with first-write-then-add
// discipline and gather in mask-row order (masked) or ascending column
// order (complemented), so the CSR output is bit-identical regardless of
// which mode each block — or the whole product — runs. That invariant is
// what lets the ModePlanner choose freely on cost alone, and what the
// adaptive_ test suite pins down.
//
// The phase driver (core/phase_driver.hpp) detects the mode-select
// interface (plan_block_modes / select_mode / default_mode) at compile
// time: partitioned runs plan per-block modes once per structure (cached in
// the RowPartition next to block_width) and set the workspace's mode in the
// per-block prologue; non-partitioned dispatch (static schedule, serial
// contexts, tiny inputs) runs everything in default_mode(). To pin one
// engine, pick its family instead of MaskedAlgo::kAdaptive.
#pragma once

#include <cstdint>

#include "adaptive/feedback.hpp"
#include "adaptive/planner.hpp"
#include "common/exec_context.hpp"
#include "core/hash_kernel.hpp"
#include "core/kernel_common.hpp"
#include "core/msa_kernel.hpp"
#include "core/partition.hpp"
#include "matrix/csr.hpp"
#include "semiring/semirings.hpp"

namespace msx::adaptive {

template <class SR, class IT, class VT, bool Complemented>
  requires Semiring<SR>
class AdaptiveKernel {
 public:
  using index_type = IT;
  using output_value = typename SR::value_type;

  using SparseK = HashKernel<SR, IT, VT, Complemented>;
  using BitmapK = MSABitmapKernel<SR, IT, VT, Complemented>;
  using DenseK = MSADenseKernel<SR, IT, VT, Complemented>;

  struct Workspace {
    typename SparseK::Workspace sparse;
    typename BitmapK::Workspace bitmap;
    typename DenseK::Workspace dense;
    std::uint8_t mode = static_cast<std::uint8_t>(BlockMode::kSparse);
    void reset() {
      sparse.reset();
      bitmap.reset();
      dense.reset();
      mode = static_cast<std::uint8_t>(BlockMode::kSparse);
    }
  };

  AdaptiveKernel(const CSRMatrix<IT, VT>& a, const CSRMatrix<IT, VT>& b,
                 MaskView<IT> m)
      : a_(a), b_(b), m_(m), sparse_(a, b, m), bitmap_(a, b, m),
        dense_(a, b, m) {
    // Whole-matrix fallback for non-partitioned dispatch: price the product
    // as one block from O(1) estimates.
    BlockCost c;
    c.rows = static_cast<std::int64_t>(a_.nrows());
    c.flops = static_cast<std::int64_t>(detail::push_work_hint(a_, b_));
    c.mask_nnz = static_cast<std::int64_t>(m_.nnz());
    c.width = static_cast<std::int64_t>(b_.ncols());
    default_mode_ = static_cast<std::uint8_t>(choose_mode(c));
  }

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

  // Per-block accumulator sizing, forwarded to every engine (the dense and
  // bitmap arrays are width-sized; the hash table only cares when
  // complemented).
  std::int64_t width_row(IT i) const {
    return detail::push_row_width(a_, b_, m_, i);
  }
  void begin_block(Workspace& ws, std::int64_t width) const {
    if constexpr (Complemented) {
      sparse_.begin_block(ws.sparse, width);
    }
    bitmap_.begin_block(ws.bitmap, width);
    dense_.begin_block(ws.dense, width);
  }

  // --- mode-select interface consumed by the phase driver ------------------

  // Sets the engine the workspace dispatches until the next select (block
  // prologue under the partition; once per run otherwise).
  void select_mode(Workspace& ws, std::uint8_t mode,
                   std::int64_t width) const {
    ws.mode = mode;
    begin_block(ws, width);
  }

  // Mode for non-partitioned dispatch (and the symbolic_rows delta path).
  std::uint8_t default_mode() const { return default_mode_; }

  // Fills part.block_mode / block_mode_cost from one parallel sweep of
  // per-block flops and mask nnz (the FeedbackStore calibrates its
  // coefficients against the recorded costs).
  void plan_block_modes(RowPartition& part, const ExecContext& ctx) const {
    const auto nb = static_cast<std::size_t>(part.blocks());
    part.block_mode.assign(nb, default_mode_);
    part.block_mode_cost.assign(nb * static_cast<std::size_t>(kBlockModeCount),
                                0.0);
    ctx.for_block_ranges<std::int64_t>(
        part.bounds(),
        [&](int, int blk, std::int64_t lo, std::int64_t hi) {
          BlockCost c;
          c.rows = hi - lo;
          for (std::int64_t i = lo; i < hi; ++i) {
            const auto row = static_cast<IT>(i);
            const auto arow = a_.row(row);
            for (IT p = 0; p < arow.size(); ++p) {
              c.flops += static_cast<std::int64_t>(b_.row_nnz(arow.cols[p]));
            }
            c.mask_nnz += static_cast<std::int64_t>(m_.row_nnz(row));
          }
          const auto ublk = static_cast<std::size_t>(blk);
          c.width = ublk < part.block_width.size()
                        ? part.block_width[ublk]
                        : static_cast<std::int64_t>(b_.ncols());
          for (int m = 0; m < kBlockModeCount; ++m) {
            part.block_mode_cost[ublk * kBlockModeCount +
                                 static_cast<std::size_t>(m)] =
                predict_block_cost(static_cast<BlockMode>(m), c);
          }
          part.block_mode[ublk] = static_cast<std::uint8_t>(choose_mode(c));
        });
    FeedbackStore::global().note_planned(part);
  }

  // --- row interface: dispatch on the workspace's current mode -------------

  IT numeric_row(Workspace& ws, IT i, IT* out_cols,
                 output_value* out_vals) const {
    switch (static_cast<BlockMode>(ws.mode)) {
      case BlockMode::kSparse:
        return sparse_.numeric_row(ws.sparse, i, out_cols, out_vals);
      case BlockMode::kBitmap:
        return bitmap_.numeric_row(ws.bitmap, i, out_cols, out_vals);
      case BlockMode::kDense:
        return dense_.numeric_row(ws.dense, i, out_cols, out_vals);
    }
    return 0;
  }

  IT symbolic_row(Workspace& ws, IT i) const {
    switch (static_cast<BlockMode>(ws.mode)) {
      case BlockMode::kSparse:
        return sparse_.symbolic_row(ws.sparse, i);
      case BlockMode::kBitmap:
        return bitmap_.symbolic_row(ws.bitmap, i);
      case BlockMode::kDense:
        return dense_.symbolic_row(ws.dense, i);
    }
    return 0;
  }

 private:
  const CSRMatrix<IT, VT>& a_;
  const CSRMatrix<IT, VT>& b_;
  MaskView<IT> m_;
  SparseK sparse_;
  BitmapK bitmap_;
  DenseK dense_;
  std::uint8_t default_mode_ = 0;
};

}  // namespace msx::adaptive
