// Options controlling a Masked SpGEMM call: algorithm family, phase mode,
// mask kind, threading and the Heap look-ahead parameter.
#pragma once

#include <cstddef>
#include <limits>
#include <string>

#include "common/parallel.hpp"

namespace msx {

// Algorithm families evaluated in the paper (§8) plus extensions.
enum class MaskedAlgo {
  kMSA,        // masked sparse accumulator (§5.2)
  kHash,       // hash accumulator (§5.3)
  kMCA,        // mask compressed accumulator (§5.4) — no complement support
  kHeap,       // heap with NInspect = 1 (§5.5)
  kHeapDot,    // heap with NInspect = ∞ (§5.5)
  kInner,      // pull-based dot products (§4.1)
  kHybrid,     // per-row algorithm choice (paper §9 future work)
  kMSABitmap,  // MSA with 2-bit packed states (extension; complement calls
               // fall back to the byte-state MSA)
  kAuto,       // whole-call heuristic choice (Fig. 7 decision surface)
  kMSADense,   // MSA over the dense row tile (accum/dense_tile.hpp; extension)
  kAdaptive,   // per-block accumulator choice with online cost feedback
               // (src/adaptive/); never chosen by kAuto
};

enum class PhaseMode {
  kOnePhase,  // upper-bound allocation + compaction (suffix 1P)
  kTwoPhase,  // symbolic + numeric (suffix 2P)
};

enum class MaskKind {
  kMask,        // C = M .* (A B)
  kComplement,  // C = ¬M .* (A B)
};

inline constexpr std::size_t kNInspectInfinity =
    std::numeric_limits<std::size_t>::max();

// Schedule::kAuto tiny-input cutoff: calls whose O(1) work hint
// (Kernel::work_hint — estimated multiplies of the product) falls below this
// stay on the static schedule and skip the flop-balanced partition's
// cost-estimation sweep and prefix sum, which dominate at this scale.
// Measured with bench_ablation_schedule (the tiny workload rows): below
// ~1e5 estimated flops the partition build costs more than it saves, above
// it the flop-balanced schedule wins as soon as the degree distribution
// skews. The batch executor reuses the same threshold as the default
// boundary between "run serial for inter-job parallelism" and "give the job
// the whole pool" (runtime/batch.hpp).
inline constexpr double kAutoScheduleTinyWork = 1e5;

// Per-row cost model driving Schedule::kFlopBalanced partitions
// (core/partition.hpp). kAuto picks each kernel's native notion of work:
// masked flops for the push-based families, nnz of the mask row for the
// pull-based ones (whose work is mask-driven, not flop-driven).
enum class CostModel {
  kAuto,
  kFlops,    // force masked flops (Σ nnz(B(k,:)) over A(i,k) ≠ 0)
  kMaskNnz,  // force nnz(mask row)
};

// Whether a sharded submit may be split into a 2D panel grid and scattered
// across the fleet (client/sharded_backend.hpp). Client-side only: these
// knobs never cross the wire and are not part of the plan fingerprint — a
// panel task reaching a shard is an ordinary masked product.
enum class Dist2D {
  kAuto,   // split when the estimated flops exceed the backend threshold
  kNever,  // always single-shard (and what panel tasks themselves carry)
  kForce,  // split whenever a 2D plan is possible (tests, experiments)
};

struct MaskedOptions {
  MaskedAlgo algo = MaskedAlgo::kAuto;
  PhaseMode phases = PhaseMode::kOnePhase;
  MaskKind kind = MaskKind::kMask;
  int threads = 0;  // 0 = current OpenMP default
  // kFlopBalanced partitions rows into ~8×threads blocks of near-equal
  // estimated cost (see cost_model); the OpenMP schedules hand out raw row
  // ranges. The kAuto default resolves to kFlopBalanced inside the masked
  // drivers; any explicitly chosen schedule is honoured as-is.
  Schedule schedule = Schedule::kAuto;
  int chunk = 0;  // dynamic-schedule chunk; 0 = library default; must be >= 0
  CostModel cost_model = CostModel::kAuto;
  // Heap mask look-ahead (§5.5): 0 = never inspect, 1 = Heap, ∞ = HeapDot.
  // Honoured when algo == kHeap for BOTH mask kinds: the complemented path
  // uses mirrored look-ahead (skip B entries proven present in the mask; see
  // heap_kernel.hpp) instead of silently forcing 0 as earlier versions did.
  // kHeapDot always runs with ∞ — setting any other explicit value together
  // with kHeapDot is rejected by validate_masked_options (pick kHeap and set
  // heap_ninspect instead). Ignored by every non-heap algorithm.
  std::size_t heap_ninspect = 1;
  // Inner dot products: galloping (exponential-probe binary search) instead
  // of the two-pointer merge — pays off when one operand is much longer.
  bool inner_gallop = false;
  // --- distributed 2D decomposition (client-side; not serialized, not part
  // of the plan fingerprint — see Dist2D above) ------------------------------
  Dist2D dist = Dist2D::kAuto;
  // kAuto splits once estimated product flops reach this; 0 = the backend's
  // configured threshold (ShardedBackendConfig::dist_flop_threshold).
  std::uint64_t dist_flop_threshold = 0;
  // Panel grid shape; 0 = automatic (col panels ≈ live shards capped at 4,
  // row panels from the flop-balanced row split). Must be >= 0.
  int dist_row_panels = 0;
  int dist_col_panels = 0;
};

// Rejects contradictory option combinations at the API boundary (throws
// std::invalid_argument). Today that is kHeapDot combined with an explicit
// heap_ninspect that is neither the default (1) nor kNInspectInfinity —
// HeapDot is by definition the ∞ configuration, so any other request would
// be silently ignored — and a negative chunk, which OpenMP would otherwise
// accept with unspecified behaviour. Called by masked_spgemm and masked_plan.
void validate_masked_options(const MaskedOptions& opts);

const char* to_string(MaskedAlgo a);
const char* to_string(PhaseMode p);
const char* to_string(MaskKind k);
const char* to_string(CostModel c);

// Parses names like "msa", "heapdot" (case-insensitive); throws on unknown.
MaskedAlgo algo_from_string(const std::string& name);

// Parses "auto" / "static" / "dynamic" / "guided" / "flopbalanced"
// (case-insensitive, "flop-balanced" accepted); throws on unknown. The
// CLI/env seam for the --schedule knob of the benches and apps.
Schedule schedule_from_string(const std::string& name);

// Parses "auto" / "flops" / "masknnz" (case-insensitive, "mask-nnz"
// accepted); throws on unknown.
CostModel cost_model_from_string(const std::string& name);

// Canonical scheme label used in benchmark output, e.g. "MSA-1P".
std::string scheme_name(MaskedAlgo a, PhaseMode p);

}  // namespace msx
