// FeedbackStore — online cost feedback for the adaptive engine (ISSUE 10).
//
// The ModePlanner's static cost model (planner.hpp) is a shape, not a
// measurement. This store closes the loop: after every adaptive execute()
// the phase driver's per-block numeric-pass timings (BlockTimings,
// core/partition.hpp) are recorded under the plan's structure digest, and
// before the next execute() the plan asks the store to re-mode its cached
// partition — observed nanoseconds for a (block, mode) pair override the
// prediction outright, and a per-mode EWMA coefficient (observed nanos per
// predicted unit) rescales the modes that have not run yet. A block
// switches mode only when the best alternative undercuts the current mode
// by the hysteresis margin, so noise cannot make modes oscillate.
//
// Keying mirrors the PlanCache: a structure digest (sampled fingerprint of
// the operand patterns, structure_digest below) plus the block id. The
// digest is computed once per adopt_structure and deliberately kept across
// apply_delta — a streaming delta barely changes the structure, and the
// prior observations remain the best available estimate. Re-moding costs
// O(blocks) — nearly free for the k-truss/BC/streaming iteration loops the
// plan API serves — and never rebuilds the partition or replans from
// scratch.
//
// Process-wide singleton (global()), mutex-guarded; safe to use from
// concurrent plans. Its activity is counted in msx_adaptive_* counters on
// the registry it was built with (global() uses the global registry; tests
// build private stores on private registries).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "adaptive/planner.hpp"
#include "common/thread_annotations.hpp"
#include "core/partition.hpp"
#include "obs/metrics.hpp"

namespace msx::adaptive {

// Read view of the store's activity (tests, bench reporting): the counted
// fields are the store's msx_adaptive_* counters; `entries` is the store's
// current size.
struct FeedbackStats {
  std::uint64_t plans = 0;       // mode plannings observed
  std::uint64_t mode_blocks[kBlockModeCount] = {0, 0, 0};  // planned modes
  std::uint64_t records = 0;          // record() calls absorbed
  std::uint64_t blocks_recorded = 0;  // per-block observations absorbed
  std::uint64_t feedback_hits = 0;    // remode() calls with prior data
  std::uint64_t remodes = 0;          // blocks whose mode changed
  std::size_t entries = 0;            // structures resident
};

class FeedbackStore {
 public:
  explicit FeedbackStore(obs::Registry& metrics);

  // Process-wide store shared by every adaptive plan.
  static FeedbackStore& global();

  // Absorbs one run's per-block timings for the structure `digest`.
  // `timings.mode[blk]` is the mode the block actually ran;
  // `part.block_mode_cost` supplies the predictions the coefficients
  // calibrate against. Blocks with zero nanos (untimed) are skipped.
  void record(std::uint64_t digest, const RowPartition& part,
              const BlockTimings& timings);

  // Re-modes part.block_mode in place from this structure's observations.
  // Returns the number of blocks whose mode changed (0 when the store has
  // nothing for `digest` or the partition was reshaped). Counted as a
  // feedback hit whenever prior observations were found.
  int remode(std::uint64_t digest, RowPartition& part);

  // Mode-decision accounting hook for the planner (one call per
  // plan_block_modes); keeps the msx_adaptive_* counters in one place.
  void note_planned(const RowPartition& part);

  FeedbackStats stats() const;

  // Drops every observation (tests; also the crude size bound on overflow).
  // Counts are not observations: stats() keeps them.
  void clear();

 private:
  // Observed numeric-pass nanos per mode for one block; 0 = never ran.
  struct BlockObs {
    double nanos[kBlockModeCount] = {0.0, 0.0, 0.0};
  };
  struct Entry {
    std::vector<BlockObs> blocks;
    // EWMA of observed-nanos / predicted-units per mode; 0 = no data yet.
    double coeff[kBlockModeCount] = {0.0, 0.0, 0.0};
  };

  // Blocks only re-mode when the best alternative is at least this much
  // cheaper than the current prediction — timing noise must not flip modes
  // back and forth.
  static constexpr double kHysteresis = 0.15;
  // EWMA weights for repeat observations.
  static constexpr double kObsAlpha = 0.5;
  static constexpr double kCoeffAlpha = 0.4;
  // Crude residency bound: the store drops everything rather than grow
  // without bound (feedback is a cache, losing it only costs a replan).
  static constexpr std::size_t kMaxEntries = 4096;

  mutable Mutex mu_{LockRank::kAdaptiveFeedback, "FeedbackStore::mu_"};
  std::unordered_map<std::uint64_t, Entry> store_ MSX_GUARDED_BY(mu_);

  // Counter handles resolved once at construction.
  obs::Counter* plans_total_;
  obs::Counter* mode_blocks_total_[kBlockModeCount];
  obs::Counter* records_total_;
  obs::Counter* blocks_total_;
  obs::Counter* feedback_hits_total_;
  obs::Counter* remodes_total_;
};

// Sampled structure fingerprint: dimensions, nnz and up to 64 evenly-spaced
// entries of each index array, folded with a Fibonacci mix. O(1) per matrix
// (unlike the PlanCache's full-array fingerprint — feedback keying tolerates
// the collision risk: a collision only mixes timings across structures).
// Chain calls to cover several operands, seeding with kDigestSeed.
inline constexpr std::uint64_t kDigestSeed = 0x6d73785f61646170ULL;  // "msx_adap"

inline std::uint64_t digest_mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

template <class IT>
std::uint64_t structure_digest(std::uint64_t h, IT nrows, IT ncols,
                               std::span<const IT> rowptr,
                               std::span<const IT> colidx) {
  h = digest_mix(h, static_cast<std::uint64_t>(nrows));
  h = digest_mix(h, static_cast<std::uint64_t>(ncols));
  h = digest_mix(h, static_cast<std::uint64_t>(colidx.size()));
  constexpr std::size_t kSamples = 64;
  const auto sample = [&](std::span<const IT> arr) {
    if (arr.empty()) return;
    const std::size_t n = arr.size();
    const std::size_t take = n < kSamples ? n : kSamples;
    for (std::size_t s = 0; s < take; ++s) {
      const std::size_t idx = take == 1 ? 0 : s * (n - 1) / (take - 1);
      h = digest_mix(h, static_cast<std::uint64_t>(arr[idx]));
    }
  };
  sample(rowptr);
  sample(colidx);
  return h;
}

}  // namespace msx::adaptive
