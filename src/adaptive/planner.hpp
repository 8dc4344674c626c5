// ModePlanner — static per-block execution-mode selection for the adaptive
// engine (ISSUE 10 tentpole).
//
// The paper fixes one accumulator per product (§5); Wheatman et al. show
// that masked-product density shifts across row regions, and that choosing
// sparse-accumulate vs dense-tile execution *per region* beats any static
// choice. The planner maps each flop-balanced partition block (which the
// plan already carries, with per-block flops/mask-nnz/width available from
// one sweep) to one of three modes:
//
//   kSparse — hash accumulator (accum/hash.hpp): O(nnz(mask row)) working
//             set, a hash probe per product. Wins at low fill.
//   kBitmap — bitmap MSA (accum/msa_bitmap.hpp; byte MSA for complement):
//             dense packed states, branch per product, mask-walk reset.
//             Wins in the middle of the density range.
//   kDense  — dense row tile (accum/dense_tile.hpp): branch-free
//             accumulate, O(width/64) word clear per row. Wins once the
//             block's rows fill a few percent of its width.
//
// The unit-cost model below is deliberately coarse — relative shape, not
// absolute nanoseconds. The FeedbackStore (feedback.hpp) calibrates it
// online: observed per-block run_nanos yield a per-mode coefficient, and
// blocks are re-moded between execute() calls once a scaled prediction (or
// a direct observation) beats the current mode with hysteresis.
#pragma once

#include <cstdint>

namespace msx::adaptive {

// Execution mode of one partition block. Values are the RowPartition's
// block_mode encoding and the FeedbackStore's array index — keep dense.
enum class BlockMode : std::uint8_t {
  kSparse = 0,
  kBitmap = 1,
  kDense = 2,
};

inline constexpr int kBlockModeCount = 3;

inline const char* to_string(BlockMode m) {
  switch (m) {
    case BlockMode::kSparse: return "sparse";
    case BlockMode::kBitmap: return "bitmap";
    case BlockMode::kDense: return "dense";
  }
  return "?";
}

// Structure-derived per-block statistics the planner prices. `flops` is the
// masked multiply count (Σ nnz(B(k,:)) over the block's A entries),
// `mask_nnz` the mask entries walked, `width` the block's accumulator bound
// (1 + highest reachable column; the whole matrix width when no per-block
// bound is cached).
struct BlockCost {
  std::int64_t rows = 0;
  std::int64_t flops = 0;
  std::int64_t mask_nnz = 0;
  std::int64_t width = 0;
};

// Predicted unit cost of running `cost` under `mode`. Shape of each term:
// every mode pays per product and per mask entry; sparse pays the most per
// product (hash + branch), bitmap a packed-state branch, dense the least
// (test-and-set, no mask branch) but adds the per-row O(width/64) bitmap
// clear that the other modes avoid. The per-row constant keeps empty blocks
// from degenerating to zero cost.
inline double predict_block_cost(BlockMode mode, const BlockCost& c) {
  const auto rows = static_cast<double>(c.rows);
  const auto flops = static_cast<double>(c.flops);
  const auto mask = static_cast<double>(c.mask_nnz);
  const auto width = static_cast<double>(c.width);
  switch (mode) {
    case BlockMode::kSparse:
      return 3.0 * flops + 2.0 * mask + 8.0 * rows;
    case BlockMode::kBitmap:
      return 2.0 * flops + 1.2 * mask + 8.0 * rows;
    case BlockMode::kDense:
      return 1.0 * flops + 1.0 * mask + rows * (8.0 + width / 128.0);
  }
  return 0.0;
}

// Cheapest predicted mode for the block.
inline BlockMode choose_mode(const BlockCost& c) {
  BlockMode best = BlockMode::kSparse;
  double best_cost = predict_block_cost(best, c);
  for (int m = 1; m < kBlockModeCount; ++m) {
    const auto mode = static_cast<BlockMode>(m);
    const double cost = predict_block_cost(mode, c);
    if (cost < best_cost) {
      best_cost = cost;
      best = mode;
    }
  }
  return best;
}

}  // namespace msx::adaptive
