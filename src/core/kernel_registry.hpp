// Kernel registry: one table mapping (MaskedAlgo, MaskKind) to type-erased
// kernel factories.
//
// Replaces the monolithic switch that used to live in detail::dispatch. Each
// algorithm family registers exactly one Entry per supported mask kind; an
// absent pair (e.g. MCA × complement) is how "unsupported" is expressed.
// Documented fallbacks (MSABitmap complement running the byte-state MSA,
// HeapDot forcing NInspect = ∞) are encoded in the kernel type or maker a
// row names, so the whole decision surface is in this file's table.
//
// A factory produces a PlanKernelBase: a type-erased executable kernel that
// owns its per-thread workspaces. Binding operands is cheap and repeatable;
// the expensive accumulator state survives bind() so a MaskedPlan
// (core/plan.hpp) can execute many times — or rebind to new structure —
// without reallocating scratch memory. The stateless masked_spgemm free
// functions run a throwaway instance of the same machinery.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "adaptive/adaptive_kernel.hpp"
#include "common/thread_annotations.hpp"
#include "common/timer.hpp"
#include "core/hash_kernel.hpp"
#include "core/heap_kernel.hpp"
#include "core/hybrid_kernel.hpp"
#include "core/inner_kernel.hpp"
#include "core/mca_kernel.hpp"
#include "core/msa_kernel.hpp"
#include "core/options.hpp"
#include "core/phase_driver.hpp"
#include "matrix/csc.hpp"
#include "matrix/csr.hpp"
#include "semiring/semirings.hpp"

namespace msx {

// Operand bundle a plan kernel binds to. `b_csc` must be non-null iff the
// matching registry entry has needs_csc set.
template <class IT, class VT>
struct KernelOperands {
  const CSRMatrix<IT, VT>* a = nullptr;
  const CSRMatrix<IT, VT>* b = nullptr;
  const CSCMatrix<IT, VT>* b_csc = nullptr;
  MaskView<IT> mask;
};

// Type-erased executable kernel. Implementations hold the concrete row
// kernel plus a PerThread<Workspace> pool that persists across bind()/run().
template <class SR, class IT, class VT>
class PlanKernelBase {
 public:
  using output_matrix = CSRMatrix<IT, typename SR::value_type>;

  virtual ~PlanKernelBase() = default;

  // (Re)binds operands and options. Retains per-thread workspaces — this is
  // the cheap half of the plan/execute split.
  virtual void bind(const KernelOperands<IT, VT>& in,
                    const MaskedOptions& opts) = 0;

  // Runs the phase driver over the bound operands. `symbolic` (optional)
  // carries a cached two-phase rowptr across calls; `partition` (optional)
  // carries the flop-balanced row partition the same way. `ctx` decides who
  // executes the passes (OpenMP team, the calling thread, or a task arena)
  // and how many workspace slots the run leases. `timings` (optional)
  // receives the run's per-block numeric-pass wall time — adaptive plans
  // feed it to the FeedbackStore. Concurrent run() calls are safe once the
  // caches are warm (each leases its own workspace pool); bind() must not
  // race with run().
  virtual output_matrix run(TwoPhaseCache<IT>* symbolic,
                            PartitionCache* partition, const ExecContext& ctx,
                            BlockTimings* timings) = 0;

  output_matrix run(TwoPhaseCache<IT>* symbolic,
                    PartitionCache* partition = nullptr) {
    return run(symbolic, partition, ExecContext::openmp(), nullptr);
  }

  output_matrix run(TwoPhaseCache<IT>* symbolic, PartitionCache* partition,
                    const ExecContext& ctx) {
    return run(symbolic, partition, ctx, nullptr);
  }

  // Runs the reduce-to-scalar driver (run_masked_reduce) over the bound
  // operands: the SR::add fold of every entry run() would return, without
  // building it. `partition`, `ctx` and `timings` act as for run(); no
  // symbolic pass runs, so there is no symbolic cache to carry.
  virtual typename SR::value_type run_sum(PartitionCache* partition,
                                          const ExecContext& ctx,
                                          BlockTimings* timings) = 0;

  // Releases all per-thread scratch memory (accumulator arrays, heaps).
  // The next run() regrows them on demand.
  virtual void reset_workspaces() = 0;

  // Time the most recent run() spent on lazy setup (workspace-pool
  // allocation). ~0 once the pool exists — what plan reuse amortizes.
  virtual double last_setup_seconds() const = 0;

  // Recomputes the exact two-phase symbolic count for just the listed rows
  // (counts[j] = |C(rows[j], :)|). Serial on the calling thread — the delta
  // path patches a handful of rows, not the matrix. rows and counts must be
  // the same length.
  virtual void symbolic_rows(std::span<const IT> rows,
                             std::span<IT> counts) = 0;

  // For kernels with per-block accumulator sizing: recompute block_width for
  // every partition block that intersects the sorted `rows` list (a delta
  // can widen a row past the cached block bound — a stale-small bound would
  // undersize the accumulator). Returns the number of blocks refreshed; 0
  // for kernels without block sizing or when no widths are cached.
  virtual int refresh_block_widths(RowPartition& part,
                                   std::span<const IT> rows) = 0;
};

namespace detail {

// Concrete plan kernel: Maker::make(operands, opts) constructs the row
// kernel; workspaces outlive rebinds so accumulators keep their capacity.
template <class SR, class IT, class VT, class Maker>
class PlanKernelImpl final : public PlanKernelBase<SR, IT, VT> {
 public:
  using Kernel = decltype(Maker::make(
      std::declval<const KernelOperands<IT, VT>&>(),
      std::declval<const MaskedOptions&>()));
  using Workspace = typename Kernel::Workspace;
  using output_matrix = typename PlanKernelBase<SR, IT, VT>::output_matrix;

  void bind(const KernelOperands<IT, VT>& in,
            const MaskedOptions& opts) override {
    kernel_.emplace(Maker::make(in, opts));
    opts_ = opts;
  }

  output_matrix run(TwoPhaseCache<IT>* symbolic, PartitionCache* partition,
                    const ExecContext& ctx, BlockTimings* timings) override {
    check_arg(kernel_.has_value(), "plan kernel: run() before bind()");
    // Lease a workspace pool for this run. Sequential executes keep reusing
    // the same pool (the plan-reuse win); concurrent executes each get their
    // own, so jobs never share accumulators (the lease pool grows to the
    // observed concurrency and is retained for later runs).
    WorkspaceLease lease = lease_workspaces(
        static_cast<std::size_t>(ctx.concurrency(opts_.threads)));
    return run_masked_kernel(*kernel_, opts_, *lease.pool, symbolic,
                             partition, ctx, timings);
  }

  typename SR::value_type run_sum(PartitionCache* partition,
                                  const ExecContext& ctx,
                                  BlockTimings* timings) override {
    check_arg(kernel_.has_value(), "plan kernel: run_sum() before bind()");
    WorkspaceLease lease = lease_workspaces(
        static_cast<std::size_t>(ctx.concurrency(opts_.threads)));
    return run_masked_reduce<SR>(*kernel_, opts_, *lease.pool, partition, ctx,
                                 timings);
  }

  void reset_workspaces() override {
    MutexLock lock(&ws_mu_);
    for (auto& pool : ws_free_) {
      for (std::size_t t = 0; t < pool->size(); ++t) {
        pool->slot(t).reset();
      }
    }
  }

  double last_setup_seconds() const override {
    return last_setup_seconds_.load(std::memory_order_relaxed);
  }

  void symbolic_rows(std::span<const IT> rows,
                     std::span<IT> counts) override {
    check_arg(kernel_.has_value(),
              "plan kernel: symbolic_rows() before bind()");
    check_arg(rows.size() == counts.size(),
              "plan kernel: symbolic_rows spans must be the same length");
    WorkspaceLease lease = lease_workspaces(1);
    auto& ws = lease.pool->slot(0);
    if constexpr (kHasBlockSizing) {
      // Clear any per-block bound a previous partitioned run left behind —
      // these rows are evaluated at full matrix width.
      kernel_->begin_block(ws, 0);
    }
    for (std::size_t j = 0; j < rows.size(); ++j) {
      counts[j] = kernel_->symbolic_row(ws, rows[j]);
    }
  }

  int refresh_block_widths(RowPartition& part,
                           std::span<const IT> rows) override {
    check_arg(kernel_.has_value(),
              "plan kernel: refresh_block_widths() before bind()");
    if constexpr (kHasBlockSizing) {
      if (part.block_width.empty() || rows.empty()) return 0;
      const auto& bs = part.block_start;
      int refreshed = 0;
      std::size_t r = 0;  // cursor into the sorted touched-row list
      for (int blk = 0; blk < part.blocks(); ++blk) {
        const std::int64_t lo = bs[static_cast<std::size_t>(blk)];
        const std::int64_t hi = bs[static_cast<std::size_t>(blk) + 1];
        while (r < rows.size() && static_cast<std::int64_t>(rows[r]) < lo) {
          ++r;
        }
        if (r >= rows.size()) break;
        if (static_cast<std::int64_t>(rows[r]) >= hi) continue;
        std::int64_t w = 0;
        for (std::int64_t i = lo; i < hi; ++i) {
          w = std::max(w, static_cast<std::int64_t>(
                              kernel_->width_row(static_cast<IT>(i))));
        }
        part.block_width[static_cast<std::size_t>(blk)] = w;
        ++refreshed;
        while (r < rows.size() && static_cast<std::int64_t>(rows[r]) < hi) {
          ++r;
        }
      }
      return refreshed;
    } else {
      (void)part;
      (void)rows;
      return 0;
    }
  }

 private:
  static constexpr bool kHasBlockSizing =
      requires(const Kernel& k, Workspace& w) {
        { k.width_row(IT{0}) } -> std::convertible_to<std::int64_t>;
        k.begin_block(w, std::int64_t{});
      };

  // RAII lease: returns the pool to the free list when the run finishes
  // (including on exceptions).
  struct WorkspaceLease {
    PlanKernelImpl* owner = nullptr;
    std::unique_ptr<PerThread<Workspace>> pool;
    ~WorkspaceLease() {
      if (pool != nullptr) {
        MutexLock lock(&owner->ws_mu_);
        owner->ws_free_.push_back(std::move(pool));
      }
    }
  };

  WorkspaceLease lease_workspaces(std::size_t needed) {
    std::unique_ptr<PerThread<Workspace>> pool;
    {
      MutexLock lock(&ws_mu_);
      if (!ws_free_.empty()) {
        pool = std::move(ws_free_.back());
        ws_free_.pop_back();
      }
    }
    if (pool == nullptr || pool->size() < needed) {
      WallTimer timer;
      pool = std::make_unique<PerThread<Workspace>>(
          static_cast<int>(needed));
      last_setup_seconds_.store(timer.seconds(), std::memory_order_relaxed);
    } else {
      last_setup_seconds_.store(0.0, std::memory_order_relaxed);
    }
    return WorkspaceLease{this, std::move(pool)};
  }

  std::optional<Kernel> kernel_;
  Mutex ws_mu_{LockRank::kKernelWorkspace, "PlanKernelImpl::ws_mu_"};
  std::vector<std::unique_ptr<PerThread<Workspace>>> ws_free_
      MSX_GUARDED_BY(ws_mu_);
  MaskedOptions opts_;
  std::atomic<double> last_setup_seconds_{0.0};
};

// --- makers: how each registry entry constructs its row kernel ---

// Row kernels built from A, B and the mask alone.
template <class Kernel>
struct MakeRowKernel {
  template <class IT, class VT>
  static Kernel make(const KernelOperands<IT, VT>& in, const MaskedOptions&) {
    return Kernel(*in.a, *in.b, in.mask);
  }
};

template <class SR, class IT, class VT, bool Complemented>
using MakeMSA = MakeRowKernel<MSAKernel<SR, IT, VT, Complemented>>;
template <class SR, class IT, class VT, bool Complemented>
using MakeMSABitmap = MakeRowKernel<MSABitmapKernel<SR, IT, VT, Complemented>>;
template <class SR, class IT, class VT, bool Complemented>
using MakeMSADense = MakeRowKernel<MSADenseKernel<SR, IT, VT, Complemented>>;
template <class SR, class IT, class VT, bool Complemented>
using MakeHash = MakeRowKernel<HashKernel<SR, IT, VT, Complemented>>;
template <class SR, class IT, class VT>
using MakeMCA = MakeRowKernel<MCAKernel<SR, IT, VT>>;
// Adaptive per-block engine (src/adaptive/): owns the Hash, MSABitmap and
// MSADense kernels and picks one per partition block.
template <class SR, class IT, class VT, bool Complemented>
using MakeAdaptive =
    MakeRowKernel<adaptive::AdaptiveKernel<SR, IT, VT, Complemented>>;

// ForceInfinity distinguishes HeapDot (NInspect = ∞ regardless of options)
// from Heap (the caller's heap_ninspect, honoured for both mask kinds —
// the complement path uses complement-aware look-ahead, see heap_kernel.hpp).
template <class SR, class IT, class VT, bool Complemented, bool ForceInfinity>
struct MakeHeap {
  static auto make(const KernelOperands<IT, VT>& in,
                   const MaskedOptions& opts) {
    const std::size_t ninspect =
        ForceInfinity ? kNInspectInfinity : opts.heap_ninspect;
    return HeapKernel<SR, IT, VT, Complemented>(*in.a, *in.b, in.mask,
                                                ninspect);
  }
};

template <class SR, class IT, class VT, bool Complemented>
struct MakeInner {
  static auto make(const KernelOperands<IT, VT>& in,
                   const MaskedOptions& opts) {
    return InnerKernel<SR, IT, VT, Complemented>(*in.a, *in.b_csc, in.mask,
                                                 opts.inner_gallop);
  }
};

template <class SR, class IT, class VT, bool Complemented>
struct MakeHybrid {
  static auto make(const KernelOperands<IT, VT>& in, const MaskedOptions&) {
    return HybridKernel<SR, IT, VT, Complemented>(*in.a, *in.b, *in.b_csc,
                                                  in.mask);
  }
};

}  // namespace detail

// The registry itself: a static table, one row per supported
// (algorithm, mask-kind) pair. New algorithm families register here and
// nowhere else.
template <class SR, class IT, class VT>
  requires Semiring<SR>
struct KernelRegistry {
  using Base = PlanKernelBase<SR, IT, VT>;
  using Factory = std::unique_ptr<Base> (*)();

  struct Entry {
    MaskedAlgo algo;
    MaskKind kind;
    bool needs_csc;  // entry requires operands.b_csc (pull-based families)
    Factory make;
  };

  template <class Maker>
  static std::unique_ptr<Base> factory() {
    return std::make_unique<detail::PlanKernelImpl<SR, IT, VT, Maker>>();
  }

  static std::span<const Entry> entries() {
    using namespace detail;
    static const std::array<Entry, 19> table = {{
        {MaskedAlgo::kMSA, MaskKind::kMask, false,
         &factory<MakeMSA<SR, IT, VT, false>>},
        {MaskedAlgo::kMSA, MaskKind::kComplement, false,
         &factory<MakeMSA<SR, IT, VT, true>>},
        {MaskedAlgo::kHash, MaskKind::kMask, false,
         &factory<MakeHash<SR, IT, VT, false>>},
        {MaskedAlgo::kHash, MaskKind::kComplement, false,
         &factory<MakeHash<SR, IT, VT, true>>},
        // MCA × complement is deliberately absent (paper §8.4).
        {MaskedAlgo::kMCA, MaskKind::kMask, false,
         &factory<MakeMCA<SR, IT, VT>>},
        {MaskedAlgo::kHeap, MaskKind::kMask, false,
         &factory<MakeHeap<SR, IT, VT, false, false>>},
        {MaskedAlgo::kHeap, MaskKind::kComplement, false,
         &factory<MakeHeap<SR, IT, VT, true, false>>},
        {MaskedAlgo::kHeapDot, MaskKind::kMask, false,
         &factory<MakeHeap<SR, IT, VT, false, true>>},
        {MaskedAlgo::kHeapDot, MaskKind::kComplement, false,
         &factory<MakeHeap<SR, IT, VT, true, true>>},
        {MaskedAlgo::kInner, MaskKind::kMask, true,
         &factory<MakeInner<SR, IT, VT, false>>},
        {MaskedAlgo::kInner, MaskKind::kComplement, true,
         &factory<MakeInner<SR, IT, VT, true>>},
        {MaskedAlgo::kHybrid, MaskKind::kMask, true,
         &factory<MakeHybrid<SR, IT, VT, false>>},
        {MaskedAlgo::kHybrid, MaskKind::kComplement, true,
         &factory<MakeHybrid<SR, IT, VT, true>>},
        {MaskedAlgo::kMSABitmap, MaskKind::kMask, false,
         &factory<MakeMSABitmap<SR, IT, VT, false>>},
        {MaskedAlgo::kMSABitmap, MaskKind::kComplement, false,
         &factory<MakeMSABitmap<SR, IT, VT, true>>},
        {MaskedAlgo::kMSADense, MaskKind::kMask, false,
         &factory<MakeMSADense<SR, IT, VT, false>>},
        {MaskedAlgo::kMSADense, MaskKind::kComplement, false,
         &factory<MakeMSADense<SR, IT, VT, true>>},
        {MaskedAlgo::kAdaptive, MaskKind::kMask, false,
         &factory<MakeAdaptive<SR, IT, VT, false>>},
        {MaskedAlgo::kAdaptive, MaskKind::kComplement, false,
         &factory<MakeAdaptive<SR, IT, VT, true>>},
    }};
    return table;
  }

  // nullptr when the pair is unsupported; callers turn that into an
  // invalid_argument with a family-specific message (see unsupported_combo
  // in core/plan.cpp).
  static const Entry* find(MaskedAlgo algo, MaskKind kind) {
    for (const Entry& e : entries()) {
      if (e.algo == algo && e.kind == kind) return &e;
    }
    return nullptr;
  }
};

}  // namespace msx
