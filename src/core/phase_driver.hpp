// One-phase / two-phase output construction shared by all kernels (paper §6).
//
// Two-phase (2P): a symbolic pass computes exact per-row counts, row pointers
// come from a prefix sum, and the numeric pass writes straight into the final
// arrays — minimal memory, double traversal.
//
// One-phase (1P): per-row upper bounds (nnz of the mask row for masked calls;
// min(flops, unmasked columns) for complemented ones) size a temporary
// buffer; the numeric pass fills it once and rows are then compacted into the
// final arrays. The mask makes these bounds tight enough that 1P usually wins
// (§8) — the reverse of the plain-SpGEMM folklore.
//
// Two entry points: the classic one constructs per-thread workspaces for the
// call; the workspace-injection overload lets a MaskedPlan (core/plan.hpp)
// reuse accumulators and a previously computed symbolic rowptr across calls.
//
// Every pass dispatches through an ExecContext (common/exec_context.hpp):
// the default OpenMP context reproduces the historical behaviour exactly,
// while the runtime/ batch executor passes serial contexts (small jobs, one
// per pool worker) or arena contexts (large jobs cooperatively executed by
// the pool). Workspace slots come from the context, never from global
// OpenMP thread ids.
#pragma once

#include <chrono>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/exec_context.hpp"
#include "common/parallel.hpp"
#include "common/platform.hpp"
#include "common/prefix_sum.hpp"
#include "core/options.hpp"
#include "core/partition.hpp"
#include "matrix/csr.hpp"
#include "obs/trace.hpp"

namespace msx {

// Cached result of a two-phase symbolic pass. Valid as long as the operand
// and mask *structures* are unchanged — value refreshes keep it alive, any
// rebind must invalidate().
template <class IT>
struct TwoPhaseCache {
  std::vector<IT> rowptr;  // nrows+1 offsets, counts_to_offsets applied
  bool valid = false;
  void invalidate() {
    valid = false;
    rowptr.clear();
  }
};

namespace detail {

// counts_to_offsets that stays off OpenMP outside the OpenMP context: the
// parallel scan would fork a team from a pool worker, which the runtime's
// serial/arena modes exist to avoid (and which would hide the runtime's
// concurrency from TSan).
template <class T>
void offsets_inplace(std::vector<T>& v, const ExecContext& ctx) {
  if (ctx.is_openmp()) {
    counts_to_offsets(v);
  } else {
    MSX_ASSERT(!v.empty() && v[0] == T{});
    inclusive_scan_serial(v.data(), v.size());
  }
}

// The dispatch prologue every driver shares. Construction resolves the
// schedule, builds (or reuses) the flop-balanced partition with its
// per-block accumulator widths and modes, and pins the workspaces for
// non-partitioned dispatch; rows() then runs a pass over the partition's
// blocks or over the plain row loop. Holds the OpenMP thread-count override
// for its lifetime.
template <class Kernel>
class RowDispatch {
 public:
  using IT = typename Kernel::index_type;
  using Workspace = typename Kernel::Workspace;

  // Per-block accumulator sizing (ROADMAP item): a kernel that reports the
  // columns a row can touch (width_row) and consumes a per-block bound
  // (begin_block) gets its accumulator sized by the widest row *of the
  // block* instead of the full matrix width.
  static constexpr bool kHasBlockSizing =
      requires(const Kernel& k, Workspace& w) {
        { k.width_row(IT{0}) } -> std::convertible_to<std::int64_t>;
        k.begin_block(w, std::int64_t{});
      };

  // Adaptive per-block execution (src/adaptive/): a kernel that plans a
  // per-block mode (plan_block_modes fills RowPartition::block_mode) and
  // switches engines per workspace (select_mode) gets the mode set in the
  // per-block prologue; everything else about dispatch is unchanged.
  static constexpr bool kHasModeSelect =
      requires(const Kernel& k, Workspace& w, RowPartition& p,
               const ExecContext& c) {
        k.plan_block_modes(p, c);
        k.select_mode(w, std::uint8_t{}, std::int64_t{});
        { k.default_mode() } -> std::convertible_to<std::uint8_t>;
      };

  RowDispatch(const Kernel& kernel, const MaskedOptions& opts,
              PerThread<Workspace>& workspaces, PartitionCache* partition,
              const ExecContext& ctx, BlockTimings* timings)
      : kernel_(kernel),
        opts_(opts),
        workspaces_(workspaces),
        ctx_(ctx),
        timings_(timings),
        // The thread-count override is an OpenMP concept; serial and arena
        // contexts bring their own workers.
        thread_guard_(ctx.is_openmp() ? opts.threads : 0) {
    const IT nrows = kernel.nrows();

    // Schedule::kAuto resolves here. The flop-balanced partition is never
    // slower than dynamic once hub rows appear, and plans amortize the one
    // cost-estimation sweep its build adds — but on tiny inputs that sweep
    // and its prefix sum are the dominant cost, so inputs whose O(1) work
    // hint falls below kAutoScheduleTinyWork stay on static and skip the
    // partition entirely (measured with bench_ablation_schedule; see
    // options.hpp).
    schedule_ = opts.schedule;
    if (schedule_ == Schedule::kAuto) {
      schedule_ = Schedule::kFlopBalanced;
      if constexpr (requires { kernel.work_hint(); }) {
        if (kernel.work_hint() < kAutoScheduleTinyWork) {
          schedule_ = Schedule::kStatic;
        }
      }
    }
    // A serial context executes blocks in row order anyway, so the partition
    // build would be pure overhead — run the plain row loop instead.
    if (ctx.is_serial() && schedule_ == Schedule::kFlopBalanced) {
      schedule_ = Schedule::kStatic;
    }

    // Resolve (or reuse) the flop-balanced partition once; every pass then
    // dispatches the same blocks.
    if (schedule_ == Schedule::kFlopBalanced) {
      if (partition != nullptr && partition->valid) {
        blocks_ = &partition->partition;
      } else {
        // cost_row is an optional part of the kernel interface; kernels
        // without one (the plain-SpGEMM baselines) are partitioned by their
        // 1P upper bound, which tracks flops for unmasked products.
        auto built = build_row_partition(
            nrows, partition_target_blocks(ctx.concurrency(opts.threads)),
            [&](IT i) {
              if constexpr (requires { kernel.cost_row(i, opts.cost_model); }) {
                return kernel.cost_row(i, opts.cost_model);
              } else {
                return kernel.upper_bound_row(i) + 1;
              }
            },
            ctx);
        if (partition != nullptr) {
          partition->partition = std::move(built);
          partition->valid = true;
          blocks_ = &partition->partition;
        } else {
          local_partition_ = std::move(built);
          blocks_ = &local_partition_;
        }
      }
      if constexpr (kHasBlockSizing) {
        // Computed once per structure: cached partitions carry their widths
        // across executes, so warm plans never repeat this sweep.
        if (blocks_->block_width.empty()) {
          compute_block_widths(*blocks_, ctx, [&](std::int64_t i) {
            return kernel.width_row(static_cast<IT>(i));
          });
        }
      }
      if constexpr (kHasModeSelect) {
        // Like block widths, modes live with the partition: planned once per
        // structure, then re-moded in place by the FeedbackStore between
        // executes (never re-planned here).
        if (blocks_->block_mode.size() !=
            static_cast<std::size_t>(blocks_->blocks())) {
          kernel.plan_block_modes(*blocks_, ctx);
        }
      }
    }
    if constexpr (kHasBlockSizing) {
      // Non-partitioned dispatch never runs the per-block prologue, so any
      // bound left behind by a previous partitioned run on these retained
      // workspaces would undersize the accumulator (the arrays are grow-only
      // and may cover only that run's widest block). Clear every slot up
      // front; partitioned dispatch refreshes the bound at each block entry.
      // Mode-select kernels additionally pin every slot to the kernel's
      // whole-product default mode.
      if (blocks_ == nullptr) {
        for (std::size_t t = 0; t < workspaces.size(); ++t) {
          if constexpr (kHasModeSelect) {
            kernel.select_mode(workspaces.slot(t), kernel.default_mode(), 0);
          } else {
            kernel.begin_block(workspaces.slot(t), 0);
          }
        }
      }
    }
    if (timings != nullptr) {
      const auto nb =
          blocks_ != nullptr ? static_cast<std::size_t>(blocks_->blocks()) : 0;
      timings->nanos.assign(nb, 0);
      timings->mode.assign(nb, 0);
    }
  }

  RowDispatch(const RowDispatch&) = delete;
  RowDispatch& operator=(const RowDispatch&) = delete;

  // The resolved schedule kernel passes run under.
  Schedule schedule() const { return schedule_; }

  // Runs body over every row. `fallback` is what non-flop-balanced calls
  // use: the requested schedule for kernel passes, static for the cheap
  // bookkeeping passes. Bodies receive their workspace slot already resolved
  // — body(ws, i), or body(slot, ws, i) for bodies that keep per-slot state
  // of their own — and, under the partition, a per-block prologue has sized
  // the accumulator bound (and, for mode-select kernels, picked the block's
  // engine) first. `timed` marks the numeric passes: when the caller wants
  // BlockTimings, those are the passes whose per-block wall time is
  // recorded. Each block's entry is written only by the worker that ran the
  // block, so no synchronization.
  template <class Body>
  void rows(Schedule fallback, bool timed, Body&& body) const {
    if (blocks_ != nullptr) {
      const bool record = timed && timings_ != nullptr;
      ctx_.template for_block_ranges<IT>(
          blocks_->bounds(), [&](int slot, int blk, IT lo, IT hi) {
            auto& ws = workspaces_.slot(static_cast<std::size_t>(slot));
            const auto ublk = static_cast<std::size_t>(blk);
            const std::int64_t width =
                ublk < blocks_->block_width.size() ? blocks_->block_width[ublk]
                                                   : 0;
            if constexpr (kHasModeSelect) {
              const std::uint8_t mode = ublk < blocks_->block_mode.size()
                                            ? blocks_->block_mode[ublk]
                                            : kernel_.default_mode();
              kernel_.select_mode(ws, mode, width);
              if (record) timings_->mode[ublk] = mode;
            } else if constexpr (kHasBlockSizing) {
              if (ublk < blocks_->block_width.size()) {
                kernel_.begin_block(ws, width);
              }
            }
            if (record) {
              const auto t0 = std::chrono::steady_clock::now();
              for (IT i = lo; i < hi; ++i) call(body, slot, ws, i);
              const auto t1 = std::chrono::steady_clock::now();
              timings_->nanos[ublk] += static_cast<std::uint64_t>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(t1 -
                                                                       t0)
                      .count());
            } else {
              for (IT i = lo; i < hi; ++i) call(body, slot, ws, i);
            }
          });
    } else {
      ctx_.for_rows(kernel_.nrows(), fallback, opts_.chunk,
                    [&](int slot, IT i) {
                      call(body, slot,
                           workspaces_.slot(static_cast<std::size_t>(slot)), i);
                    });
    }
  }

 private:
  // body(slot, ws, i) for bodies that take a slot, body(ws, i) otherwise.
  template <class Body>
  static void call(Body& body, int slot, Workspace& ws, IT i) {
    if constexpr (std::is_invocable_v<Body&, int, Workspace&, IT>) {
      body(slot, ws, i);
    } else {
      body(ws, i);
    }
  }

  const Kernel& kernel_;
  const MaskedOptions& opts_;
  PerThread<Workspace>& workspaces_;
  const ExecContext& ctx_;
  BlockTimings* timings_;
  ScopedNumThreads thread_guard_;
  Schedule schedule_ = Schedule::kStatic;
  RowPartition local_partition_;
  RowPartition* blocks_ = nullptr;
};

}  // namespace detail

// Workspace-injection form: `workspaces` must have one slot per context
// worker (the caller sizes it from ctx.concurrency(); see the kernel
// registry). When `symbolic` is non-null and valid, the two-phase symbolic
// pass is skipped and its rowptr reused; when non-null and invalid, the
// freshly computed rowptr is cached. `partition` plays the same role for the
// flop-balanced row partition: under Schedule::kFlopBalanced the symbolic,
// numeric, bound and compaction passes all dispatch the partition's blocks,
// and a valid cache skips rebuilding it. `timings`, when non-null, receives
// the per-block numeric-pass wall time of this run (adaptive plans feed it
// to the FeedbackStore); it stays empty for non-partitioned dispatch.
template <class Kernel>
CSRMatrix<typename Kernel::index_type, typename Kernel::output_value>
run_masked_kernel(const Kernel& kernel, const MaskedOptions& opts,
                  PerThread<typename Kernel::Workspace>& workspaces,
                  TwoPhaseCache<typename Kernel::index_type>* symbolic,
                  PartitionCache* partition = nullptr,
                  const ExecContext& ctx = ExecContext::openmp(),
                  BlockTimings* timings = nullptr) {
  using IT = typename Kernel::index_type;
  using OVT = typename Kernel::output_value;

  const IT nrows = kernel.nrows();
  const IT ncols = kernel.ncols();
  const detail::RowDispatch<Kernel> dispatch(kernel, opts, workspaces,
                                             partition, ctx, timings);
  const Schedule schedule = dispatch.schedule();

  if (opts.phases == PhaseMode::kTwoPhase) {
    // --- symbolic phase: exact row sizes (or a cached prior result) ---
    std::vector<IT> rowptr;
    if (symbolic != nullptr && symbolic->valid) {
      rowptr = symbolic->rowptr;
    } else {
      obs::ScopedSpan span("phase.symbolic");
      rowptr.assign(static_cast<std::size_t>(nrows) + 1, IT{0});
      dispatch.rows(schedule, false, [&](auto& ws, IT i) {
        rowptr[static_cast<std::size_t>(i) + 1] = kernel.symbolic_row(ws, i);
      });
      detail::offsets_inplace(rowptr, ctx);
      if (symbolic != nullptr) {
        symbolic->rowptr = rowptr;
        symbolic->valid = true;
      }
    }

    // --- numeric phase: write into exact-size arrays ---
    obs::ScopedSpan span("phase.numeric");
    const auto nnz = static_cast<std::size_t>(rowptr.back());
    std::vector<IT> colidx(nnz);
    std::vector<OVT> values(nnz);
    dispatch.rows(schedule, true, [&](auto& ws, IT i) {
      const auto base =
          static_cast<std::size_t>(rowptr[static_cast<std::size_t>(i)]);
      [[maybe_unused]] const IT written = kernel.numeric_row(
          ws, i, colidx.data() + base, values.data() + base);
      MSX_ASSERT(written == rowptr[static_cast<std::size_t>(i) + 1] -
                                rowptr[static_cast<std::size_t>(i)]);
    });
    return CSRMatrix<IT, OVT>(nrows, ncols, std::move(rowptr),
                              std::move(colidx), std::move(values));
  }

  // --- one-phase: upper-bound temporary, then compact ---
  std::vector<std::size_t> bounds(static_cast<std::size_t>(nrows) + 1, 0);
  {
    obs::ScopedSpan span("phase.bound");
    dispatch.rows(Schedule::kStatic, false, [&](auto&, IT i) {
      bounds[static_cast<std::size_t>(i) + 1] = kernel.upper_bound_row(i);
    });
    detail::offsets_inplace(bounds, ctx);
  }
  const std::size_t cap = bounds.back();

  std::vector<IT> tmp_cols(cap);
  std::vector<OVT> tmp_vals(cap);
  std::vector<IT> rowptr(static_cast<std::size_t>(nrows) + 1, IT{0});

  {
    obs::ScopedSpan span("phase.numeric");
    dispatch.rows(schedule, true, [&](auto& ws, IT i) {
      const std::size_t base = bounds[static_cast<std::size_t>(i)];
      rowptr[static_cast<std::size_t>(i) + 1] = kernel.numeric_row(
          ws, i, tmp_cols.data() + base, tmp_vals.data() + base);
    });
    detail::offsets_inplace(rowptr, ctx);
  }

  obs::ScopedSpan span("phase.compact");
  const auto nnz = static_cast<std::size_t>(rowptr.back());
  std::vector<IT> colidx(nnz);
  std::vector<OVT> values(nnz);
  dispatch.rows(Schedule::kStatic, false, [&](auto&, IT i) {
    const std::size_t src = bounds[static_cast<std::size_t>(i)];
    const auto dst = static_cast<std::size_t>(rowptr[static_cast<std::size_t>(i)]);
    const auto len = static_cast<std::size_t>(
        rowptr[static_cast<std::size_t>(i) + 1] -
        rowptr[static_cast<std::size_t>(i)]);
    for (std::size_t p = 0; p < len; ++p) {
      colidx[dst + p] = tmp_cols[src + p];
      values[dst + p] = tmp_vals[src + p];
    }
  });
  return CSRMatrix<IT, OVT>(nrows, ncols, std::move(rowptr), std::move(colidx),
                            std::move(values));
}

// Reduce-to-scalar form: returns the SR::add fold of every entry the product
// would hold, without building it — no symbolic, bound or compact pass, and
// no output or temporary arrays. Each row's numeric_row writes into a
// per-slot scratch of upper_bound_row(i) entries and is summed, in column
// order, into the row's slot of a per-row array; the row sums are then folded
// in row order. The result is therefore the same for every schedule, thread
// count and context, and exact for integer semirings. Dispatch, partition
// reuse, block widths and modes are those of run_masked_kernel; the row sums
// are the numeric pass, so `timings` records it the same way.
template <class SR, class Kernel>
typename Kernel::output_value run_masked_reduce(
    const Kernel& kernel, const MaskedOptions& opts,
    PerThread<typename Kernel::Workspace>& workspaces,
    PartitionCache* partition = nullptr,
    const ExecContext& ctx = ExecContext::openmp(),
    BlockTimings* timings = nullptr) {
  using IT = typename Kernel::index_type;
  using OVT = typename Kernel::output_value;

  const detail::RowDispatch<Kernel> dispatch(kernel, opts, workspaces,
                                             partition, ctx, timings);
  struct Scratch {
    std::vector<IT> cols;
    std::vector<OVT> vals;
  };
  PerThread<Scratch> scratch(static_cast<int>(workspaces.size()));
  std::vector<OVT> row_sums(static_cast<std::size_t>(kernel.nrows()));
  {
    obs::ScopedSpan span("phase.numeric");
    dispatch.rows(dispatch.schedule(), true, [&](int slot, auto& ws, IT i) {
      auto& s = scratch.slot(static_cast<std::size_t>(slot));
      const std::size_t bound = kernel.upper_bound_row(i);
      if (s.cols.size() < bound) {
        s.cols.resize(bound);
        s.vals.resize(bound);
      }
      const IT len = kernel.numeric_row(ws, i, s.cols.data(), s.vals.data());
      MSX_ASSERT(static_cast<std::size_t>(len) <= bound);
      OVT sum = SR::zero();
      for (IT p = 0; p < len; ++p) {
        sum = SR::add(sum, s.vals[static_cast<std::size_t>(p)]);
      }
      row_sums[static_cast<std::size_t>(i)] = sum;
    });
  }
  OVT total = SR::zero();
  for (const OVT& v : row_sums) total = SR::add(total, v);
  return total;
}

// Classic form: per-call workspaces, no symbolic or partition caching. The
// thread guard runs before the PerThread pool is sized so an opts.threads
// larger than the current OpenMP default still gets one slot per thread.
template <class Kernel>
CSRMatrix<typename Kernel::index_type, typename Kernel::output_value>
run_masked_kernel(const Kernel& kernel, const MaskedOptions& opts) {
  ScopedNumThreads thread_guard(opts.threads);
  PerThread<typename Kernel::Workspace> workspaces;
  return run_masked_kernel(kernel, opts, workspaces,
                           static_cast<TwoPhaseCache<
                               typename Kernel::index_type>*>(nullptr));
}

}  // namespace msx
