// Plan/execute API for repeated Masked SpGEMM — the seam the iterative
// workloads of the paper (§8.2–§8.4: triangle counting, k-truss, BC) stand
// on.
//
// A stateless masked_spgemm call re-resolves kAuto, re-transposes B for the
// pull-based families and reallocates every per-thread accumulator on every
// invocation. masked_plan<SR>(A, B, M, opts) pays those costs once and
// returns a MaskedPlan that can run the product many times:
//
//   auto plan = msx::masked_plan<msx::PlusTimes<double>>(a, b, m, opts);
//   auto c1 = plan.execute();                  // full speed, no setup
//   auto c2 = plan.execute();                  // reuses workspaces + caches
//   auto c3 = plan.execute_values(av, bv);     // new numerics, same pattern
//   auto s = plan.execute_sum();               // sum of C's entries, no C
//   plan.rebind(a2, b2, m2);                   // new structure, warm scratch
//
// What the plan retains between calls:
//   * the resolved algorithm (kAuto is decided once, at plan time),
//   * a cached CSC copy of B plus a value-refresh permutation (Inner/Hybrid),
//   * the per-thread accumulator workspaces (PerThread<Workspace>),
//   * the two-phase symbolic rowptr (valid until the structure changes),
//   * the flop-balanced row partition (Schedule::kFlopBalanced; same
//     lifetime as the symbolic rowptr).
//
// The plan owns copies of its operands, so callers may drop or mutate their
// matrices freely between calls; execute_values() refreshes the owned values
// in place for iterations that change numerics but not sparsity.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "adaptive/feedback.hpp"
#include "common/exec_context.hpp"
#include "common/timer.hpp"
#include "core/delta.hpp"
#include "core/kernel_registry.hpp"
#include "core/options.hpp"
#include "core/partition.hpp"
#include "core/phase_driver.hpp"
#include "matrix/convert.hpp"
#include "matrix/csc.hpp"
#include "matrix/csr.hpp"
#include "semiring/semirings.hpp"

namespace msx {

namespace detail {

// Scalar core of the whole-call Auto heuristic (Fig. 7 decision surface);
// lives in plan.cpp so the decision logic is compiled once, not once per
// semiring instantiation.
MaskedAlgo choose_auto_algo(double rows, double a_nnz, double b_nnz,
                            double m_nnz, std::int64_t b_ncols, MaskKind kind);

// Error text for a (algorithm, mask-kind) pair absent from the registry.
std::string unsupported_combo_message(MaskedAlgo algo, MaskKind kind);

// Whole-call heuristic following the Fig. 7 empirical decision surface:
// Inner when the mask is much sparser than the inputs, Heap when the inputs
// are much sparser than the mask, otherwise MSA (small matrices, dense
// accumulator fits cache) or Hash (large matrices).
template <class IT, class VT, class MT>
MaskedAlgo choose_auto(const CSRMatrix<IT, VT>& a, const CSRMatrix<IT, VT>& b,
                       const CSRMatrix<IT, MT>& m, MaskKind kind) {
  return choose_auto_algo(static_cast<double>(a.nrows()),
                          static_cast<double>(a.nnz()),
                          static_cast<double>(b.nnz()),
                          static_cast<double>(m.nnz()),
                          static_cast<std::int64_t>(b.ncols()), kind);
}

// Builds the CSC copy of B that the pull-based families need, plus the
// permutation perm[csc_slot] = csr_slot used to refresh the CSC values in
// O(nnz) when execute_values() swaps B's numerics. The transpose itself is
// the shared counting-sort core from matrix/convert.hpp.
template <class IT, class VT>
CSCMatrix<IT, VT> build_csc_cache(const CSRMatrix<IT, VT>& b,
                                  std::vector<IT>& perm) {
  std::vector<IT> colptr, rowidx;
  std::vector<VT> csc_values;
  transpose_arrays(b.nrows(), b.ncols(), b.rowptr(), b.colidx(), b.values(),
                   colptr, rowidx, csc_values, &perm);
  return CSCMatrix<IT, VT>(b.nrows(), b.ncols(), std::move(colptr),
                           std::move(rowidx), std::move(csc_values));
}

}  // namespace detail

// What MaskedPlan::apply_delta did to the retained plan state — the
// observable contract of delta rebind (and what micro_streaming reports).
struct DeltaStats {
  std::size_t rows_touched = 0;         // B rows the delta edited
  std::size_t out_rows_resymbolic = 0;  // output rows re-run symbolically
  int blocks_refreshed = 0;             // partition blocks with new widths
  int blocks_total = 0;                 // blocks in the retained partition
  bool symbolic_patched = false;        // 2P rowptr spliced (not rebuilt)
  bool partition_kept = false;          // row partition survived the delta
  std::size_t csc_cols_patched = 0;     // CSC columns spliced (pull families)
  bool csc_patched = false;             // CSC spliced in place, not rebuilt
};

// A prepared, reusable Masked SpGEMM: C = M .* (A·B) (or the complemented
// form) on semiring SR. Created by masked_plan(); move-only.
template <class SR, class IT, class VT>
  requires Semiring<SR>
class MaskedPlan {
 public:
  using output_value = typename SR::value_type;
  using output_matrix = CSRMatrix<IT, output_value>;

  template <class MT>
  MaskedPlan(const CSRMatrix<IT, VT>& a, const CSRMatrix<IT, VT>& b,
             const CSRMatrix<IT, MT>& m, const MaskedOptions& opts = {})
      : ops_(std::make_unique<Operands>()) {
    WallTimer timer;
    validate_masked_options(opts);
    opts_ = opts;
    if (opts_.algo == MaskedAlgo::kAuto) {
      opts_.algo = detail::choose_auto(a, b, m, opts_.kind);
    }
    const auto* entry = Registry::find(opts_.algo, opts_.kind);
    check_arg(entry != nullptr,
              detail::unsupported_combo_message(opts_.algo, opts_.kind));
    needs_csc_ = entry->needs_csc;
    kernel_ = entry->make();
    adopt_structure(a, b, m, /*keep_b=*/false);
    setup_seconds_ = timer.seconds();
  }

  MaskedPlan(MaskedPlan&&) noexcept = default;
  MaskedPlan& operator=(MaskedPlan&&) noexcept = default;
  MaskedPlan(const MaskedPlan&) = delete;
  MaskedPlan& operator=(const MaskedPlan&) = delete;

  // Runs the prepared product. Bit-identical to a fresh masked_spgemm call
  // with the plan's resolved options.
  output_matrix execute() { return execute(ExecContext::openmp()); }

  // Context-aware form (common/exec_context.hpp): a serial context runs the
  // product on the calling thread with no OpenMP region, an arena context
  // runs it cooperatively on a thread pool. Concurrent execute() calls are
  // safe once every cache the run will consult is already valid — each run
  // then only reads them and leases its own workspace pool. Caveat: a
  // serial-context execute skips the flop-balanced partition entirely, so
  // it does NOT warm the partition cache; under a partitioned schedule,
  // warm with one OpenMP/arena-context execute() (or serialize) before
  // going concurrent. A MaskedAlgo::kAdaptive plan additionally re-modes
  // the cached partition's block modes at the top of every execute — a
  // mutation — so its executes must be serialized by the caller (the
  // runtime's plan cache already leases plans exclusively).
  // execute_values()/rebind() always remain exclusive: they mutate the
  // stored operands.
  output_matrix execute(const ExecContext& ctx) {
    return observed_run(ctx, [&](BlockTimings* timings) {
      return kernel_->run(
          opts_.phases == PhaseMode::kTwoPhase ? &symbolic_ : nullptr,
          &partition_, ctx, timings);
    });
  }

  // The SR::add fold of every entry execute() would return, without building
  // C: no symbolic, bound or compact pass and no output arrays (the paper's
  // sum(L .* (L·L)) when only the sum is wanted). Each row is summed in
  // column order and the row sums are folded in row order, so the result is
  // the same for every schedule, thread count and context — and equals
  // reduce_sum(execute()) exactly on integer semirings. The phase mode is
  // irrelevant here. Shares the partition cache, workspaces and concurrency
  // caveats of execute().
  output_value execute_sum() { return execute_sum(ExecContext::openmp()); }

  output_value execute_sum(const ExecContext& ctx) {
    return observed_run(ctx, [&](BlockTimings* timings) {
      return kernel_->run_sum(&partition_, ctx, timings);
    });
  }

  output_matrix execute_values(std::span<const VT> a_values,
                               std::span<const VT> b_values) {
    return execute_values(a_values, b_values, ExecContext::openmp());
  }

  // Replaces the numeric values of A and/or B (empty span = unchanged) and
  // runs. Structure — and therefore the cached CSC pattern and the two-phase
  // symbolic rowptr — is untouched; the CSC values are refreshed in O(nnz)
  // through the stored permutation. When the plan was built with B aliasing
  // A (same object), both spans target the single stored matrix and the
  // B span, if given, wins.
  output_matrix execute_values(std::span<const VT> a_values,
                               std::span<const VT> b_values,
                               const ExecContext& ctx) {
    if (!a_values.empty()) {
      check_arg(a_values.size() == ops_->a.nnz(),
                "MaskedPlan::execute_values: A value count != nnz(A)");
      std::copy(a_values.begin(), a_values.end(),
                ops_->a.mutable_values().begin());
    }
    if (!b_values.empty()) {
      auto& b = ops_->mutable_b();
      check_arg(b_values.size() == b.nnz(),
                "MaskedPlan::execute_values: B value count != nnz(B)");
      std::copy(b_values.begin(), b_values.end(), b.mutable_values().begin());
    }
    const bool b_changed =
        !b_values.empty() || (ops_->b_is_a && !a_values.empty());
    if (needs_csc_ && b_changed) {
      if (!ops_->csc_perm.empty()) {
        const auto b_vals = ops_->b().values();
        auto csc_vals = ops_->b_csc.mutable_values();
        for (std::size_t p = 0; p < csc_vals.size(); ++p) {
          csc_vals[p] = b_vals[static_cast<std::size_t>(ops_->csc_perm[p])];
        }
      } else {
        // A delta patch spliced the CSC in place and dropped the stale slot
        // permutation (it shifts globally under structural edits); the
        // cursor refresh costs the same O(nnz) without the index array.
        refresh_csc_values(ops_->b(), ops_->b_csc);
      }
    }
    return execute(ctx);
  }

  // Rebinds all three operands to new structure. The resolved algorithm,
  // options and per-thread workspaces are retained (accumulators keep their
  // capacity — the point of planning iterative workloads like k-truss).
  template <class MT>
  void rebind(const CSRMatrix<IT, VT>& a, const CSRMatrix<IT, VT>& b,
              const CSRMatrix<IT, MT>& m) {
    WallTimer timer;
    adopt_structure(a, b, m, /*keep_b=*/false);
    setup_seconds_ = timer.seconds();
  }

  // Rebinds A and the mask while keeping B — and its cached CSC — in place.
  // The shape of the stationary-B iteration (BC sweeps, BFS levels).
  template <class MT>
  void rebind(const CSRMatrix<IT, VT>& a, const CSRMatrix<IT, MT>& m) {
    WallTimer timer;
    if (ops_->b_is_a) {
      // B aliased the outgoing A; materialize it before A is replaced.
      // (adopt_structure recomputes the mask aliasing for the new operands.)
      ops_->b_storage = std::move(ops_->a);
      ops_->b_is_a = false;
    }
    adopt_structure(a, ops_->b(), m, /*keep_b=*/true);
    setup_seconds_ = timer.seconds();
  }

  // Applies an edge insert/delete batch to B as a sparse patch — the delta
  // rebind at the heart of streaming serving. Unlike rebind(), plan state
  // survives:
  //   * the two-phase symbolic rowptr is spliced, re-running the symbolic
  //     kernel only for output rows the delta can affect (a row's output
  //     depends only on A(i,:), the B rows it references, and M(i,:));
  //   * the flop-balanced row partition keeps its block boundaries (results
  //     are schedule-invariant; slightly stale balance is harmless), with
  //     per-block accumulator widths refreshed only for touched blocks;
  //   * per-thread workspaces are retained as always.
  // The CSC copy of B (pull-based families) is rebuilt in full: the refresh
  // permutation shifts globally under any structural edit. When B aliases A
  // the delta applies to both; a mask aliasing A or B tracks automatically,
  // while an independently-owned mask is never modified. Exclusive like
  // rebind(): must not race with execute().
  // `touched_rows`, when given, must equal delta_touched_rows(delta) — a
  // caller fanning one delta out to many plan instances (or panel shards)
  // computes it once and passes it here instead of re-deriving it per call
  // (PlanLineage::touched is the usual carrier).
  DeltaStats apply_delta(const EdgeDelta<IT, VT>& delta,
                         const std::vector<IT>* touched_rows = nullptr) {
    WallTimer timer;
    DeltaStats st;
    st.blocks_total = partition_.partition.blocks();
    st.partition_kept = partition_.valid;
    st.symbolic_patched = symbolic_.valid;
    if (delta.empty()) {
      last_delta_seconds_ = timer.seconds();
      return st;
    }

    // (a) Patch B. The old matrix stays intact until the swap, so a failed
    // validation leaves the plan untouched.
    auto patched = apply_edge_delta(ops_->b(), delta);
    std::vector<IT> touched_local;
    if (touched_rows == nullptr) touched_local = delta_touched_rows(delta);
    const std::vector<IT>& touched_b =
        touched_rows != nullptr ? *touched_rows : touched_local;
    st.rows_touched = touched_b.size();
    ops_->mutable_b() = std::move(patched);

    // (b) Splice the CSC mirror column-by-column — only the delta's touched
    // columns are merged, everything else is block-copied. The value-refresh
    // permutation cannot survive a structural edit (slots shift globally),
    // so it is dropped; execute_values() falls back to the cursor-based
    // refresh.
    if (needs_csc_) {
      st.csc_cols_patched = patch_csc_for_delta(ops_->b_csc, delta);
      st.csc_patched = true;
      ops_->csc_perm.clear();
    }

    // (c) Output rows the delta can affect. Row i of C depends only on
    // A(i,:), the B rows A(i,:) references, and M(i,:) — so i is touched iff
    // some referenced B row changed, or (under aliasing) row i of A or M
    // itself changed.
    const IT nrows = ops_->a.nrows();
    const IT b_rows = ops_->b().nrows();
    std::vector<char> changed(static_cast<std::size_t>(b_rows), 0);
    for (IT r : touched_b) changed[static_cast<std::size_t>(r)] = 1;
    const bool self_touch = ops_->b_is_a || ops_->mask_is_b;
    std::vector<IT> touched_out;
    const auto arp = ops_->a.rowptr();
    const auto aci = ops_->a.colidx();
    for (IT i = 0; i < nrows; ++i) {
      bool t = self_touch && i < b_rows &&
               changed[static_cast<std::size_t>(i)] != 0;
      if (!t) {
        const auto lo = static_cast<std::size_t>(arp[i]);
        const auto hi = static_cast<std::size_t>(arp[i + 1]);
        for (std::size_t p = lo; p < hi; ++p) {
          if (changed[static_cast<std::size_t>(aci[p])] != 0) {
            t = true;
            break;
          }
        }
      }
      if (t) touched_out.push_back(i);
    }

    // (d) Re-bind: the kernel holds references into B's (reallocated)
    // arrays. Workspaces survive bind — that is the plan/execute split.
    KernelOperands<IT, VT> in;
    in.a = &ops_->a;
    in.b = &ops_->b();
    in.b_csc = needs_csc_ ? &ops_->b_csc : nullptr;
    in.mask = ops_->mask_view();
    kernel_->bind(in, opts_);

    // (e) Splice the cached two-phase rowptr: untouched rows keep their old
    // exact counts, touched rows are re-run through the symbolic kernel.
    if (symbolic_.valid) {
      std::vector<IT> counts(touched_out.size());
      kernel_->symbolic_rows(touched_out, counts);
      auto& rp = symbolic_.rowptr;
      std::vector<IT> patched_rp(rp.size());
      patched_rp[0] = IT{0};
      std::size_t j = 0;
      for (IT i = 0; i < nrows; ++i) {
        const auto ui = static_cast<std::size_t>(i);
        IT cnt;
        if (j < touched_out.size() && touched_out[j] == i) {
          cnt = counts[j];
          ++j;
        } else {
          cnt = rp[ui + 1] - rp[ui];
        }
        patched_rp[ui + 1] = patched_rp[ui] + cnt;
      }
      rp = std::move(patched_rp);
      st.out_rows_resymbolic = touched_out.size();
    }

    // (f) Keep the partition's block boundaries but refresh accumulator
    // widths for blocks holding touched rows — a delta can widen a row past
    // the cached block bound, and a stale-small bound would undersize the
    // accumulator.
    if (partition_.valid) {
      st.blocks_refreshed =
          kernel_->refresh_block_widths(partition_.partition, touched_out);
      // Adaptive plans replan block modes on the next execute: a delta can
      // flip a block's density regime (modes are cheap to replan — one
      // stats sweep — unlike the partition itself, which is kept). The
      // structure digest is deliberately unchanged: prior observations
      // remain the best estimate for the barely-changed structure.
      partition_.partition.block_mode.clear();
      partition_.partition.block_mode_cost.clear();
    }

    last_delta_seconds_ = timer.seconds();
    return st;
  }

  // Structural time of the most recent apply_delta().
  double last_delta_seconds() const { return last_delta_seconds_; }

  // Resolved configuration (algo() never reports kAuto).
  MaskedAlgo algo() const { return opts_.algo; }
  PhaseMode phases() const { return opts_.phases; }
  const MaskedOptions& options() const { return opts_; }
  // True when the plan holds a CSC copy of B (pull-based families).
  bool caches_csc() const { return needs_csc_; }

  // Blocks whose mode the FeedbackStore changed at the top of the most
  // recent execute() (MaskedAlgo::kAdaptive only; 0 otherwise).
  int last_remodes() const { return last_remodes_; }
  // Planned blocks per adaptive::BlockMode in the cached partition
  // (index = BlockMode value); all zero until a partitioned kAdaptive
  // execute has planned modes.
  std::array<int, adaptive::kBlockModeCount> adaptive_mode_histogram() const {
    std::array<int, adaptive::kBlockModeCount> h{};
    for (const std::uint8_t m : partition_.partition.block_mode) {
      h[std::min<std::size_t>(m, adaptive::kBlockModeCount - 1)] += 1;
    }
    return h;
  }

  IT nrows() const { return ops_->a.nrows(); }
  IT ncols() const { return ops_->b.ncols(); }

  // Structural setup time of the last plan/rebind (auto resolution, operand
  // copies, CSC transpose, kernel bind).
  double setup_seconds() const { return setup_seconds_; }
  // Lazy setup performed inside the most recent execute() — per-thread
  // workspace (re)allocation. ~0 from the second call on.
  double last_execute_setup_seconds() const {
    return last_execute_setup_seconds_;
  }

  // Drops all per-thread scratch memory (accumulator arrays, heaps); the
  // next execute() regrows it. For callers parking a long-lived plan.
  void reset_workspaces() { kernel_->reset_workspaces(); }

  // Drops the cached two-phase symbolic rowptr so the next execute() redoes
  // the symbolic pass. Benchmarks that must charge 2P's full per-call cost
  // (the 1P-vs-2P comparisons of §8) call this inside the timed region;
  // normal reuse keeps the cache.
  void invalidate_symbolic_cache() { symbolic_.invalidate(); }

  // Same for the flop-balanced row partition: benchmarks charging the full
  // per-call cost of Schedule::kFlopBalanced drop it inside the timed
  // region; normal reuse keeps it (execute_values() never touches it — cost
  // depends only on structure).
  void invalidate_partition_cache() { partition_.invalidate(); }

  // True once an execute() under Schedule::kFlopBalanced (or the kAuto
  // default, which resolves to it) has built and retained the row partition
  // for the current structure.
  bool partition_cached() const { return partition_.valid; }
  // Block count of the cached partition (0 when none is cached).
  int partition_blocks() const { return partition_.partition.blocks(); }

  // Bytes this plan holds onto between executes: operand copies, the CSC
  // copy of B plus its refresh permutation, the owned mask pattern, the
  // two-phase symbolic rowptr and the row partition. Per-thread accumulator
  // scratch is excluded (it is sized by the run context, pooled in the
  // kernel, and reclaimable via reset_workspaces()). This is the unit the
  // PlanCache's byte budget accounts in.
  std::size_t resident_bytes() const {
    auto vec_bytes = [](const auto& v) {
      return v.capacity() * sizeof(v[0]);
    };
    std::size_t n = sizeof(*this) + sizeof(Operands);
    n += ops_->a.storage_bytes();
    if (!ops_->b_is_a) n += ops_->b_storage.storage_bytes();
    n += ops_->b_csc.storage_bytes();
    n += vec_bytes(ops_->csc_perm);
    n += vec_bytes(ops_->mask_rowptr) + vec_bytes(ops_->mask_colidx);
    n += vec_bytes(symbolic_.rowptr);
    n += vec_bytes(partition_.partition.block_start) +
         vec_bytes(partition_.partition.block_width) +
         vec_bytes(partition_.partition.block_mode) +
         vec_bytes(partition_.partition.block_mode_cost);
    return n;
  }

 private:
  using Registry = KernelRegistry<SR, IT, VT>;

  // Operands live behind a unique_ptr so the kernel's references stay valid
  // when the plan itself is moved. Aliased callers (k-truss binds the same
  // matrix as A, B and mask) are detected by address so the plan stores a
  // single copy instead of three.
  struct Operands {
    CSRMatrix<IT, VT> a;
    CSRMatrix<IT, VT> b_storage;  // empty when b_is_a
    bool b_is_a = false;          // B aliases A
    CSCMatrix<IT, VT> b_csc;      // populated iff needs_csc_
    std::vector<IT> csc_perm;     // csc slot -> csr slot, for value refresh
    bool mask_is_a = false;       // mask pattern aliases A (or B, below)
    bool mask_is_b = false;
    std::vector<IT> mask_rowptr{0};  // owned pattern when no alias
    std::vector<IT> mask_colidx;
    IT mask_nrows = 0;
    IT mask_ncols = 0;

    const CSRMatrix<IT, VT>& b() const { return b_is_a ? a : b_storage; }
    CSRMatrix<IT, VT>& mutable_b() { return b_is_a ? a : b_storage; }

    MaskView<IT> mask_view() const {
      if (mask_is_a) return mask_of(a);
      if (mask_is_b) return mask_of(b());
      return MaskView<IT>{mask_nrows, mask_ncols, mask_rowptr.data(),
                          mask_colidx.data()};
    }
  };

  // Runs one kernel pass with the adaptive feedback loop closed around it:
  // observed per-block timings from earlier runs of this structure re-mode
  // the cached partition in place first (O(blocks), no replan), and this
  // run's timings are recorded after.
  template <class Run>
  auto observed_run(const ExecContext& ctx, Run&& run) {
    const bool adaptive = opts_.algo == MaskedAlgo::kAdaptive;
    if (adaptive && partition_.valid &&
        !partition_.partition.block_mode.empty()) {
      last_remodes_ = adaptive::FeedbackStore::global().remode(
          adaptive_digest_, partition_.partition);
    }
    BlockTimings timings;
    auto out = run(adaptive ? &timings : nullptr);
    if (adaptive && !timings.empty()) {
      adaptive::FeedbackStore::global().record(
          adaptive_digest_, partition_.partition, timings);
    }
    // Recorded for the single-owner (OpenMP) usage only: concurrent warmed
    // executes would race on the member, and runtime contexts track their
    // own stats.
    if (ctx.is_openmp()) {
      last_execute_setup_seconds_ = kernel_->last_setup_seconds();
    }
    return out;
  }

  template <class MT>
  void adopt_structure(const CSRMatrix<IT, VT>& a, const CSRMatrix<IT, VT>& b,
                       const CSRMatrix<IT, MT>& m, bool keep_b) {
    check_arg(a.ncols() == b.nrows(),
              "masked_plan: inner dimension mismatch");
    check_arg(m.nrows() == a.nrows() && m.ncols() == b.ncols(),
              "masked_plan: mask shape must match the output shape");

    // Address-level aliasing between the caller's operands. Equal addresses
    // imply the same object (and hence MT == VT for the mask), so the plan's
    // copy of A/B can double as the other operand / mask pattern.
    const void* pa = static_cast<const void*>(&a);
    const void* pb = static_cast<const void*>(&b);
    const void* pm = static_cast<const void*>(&m);

    ops_->a = a;
    if (!keep_b) {
      ops_->b_is_a = (pb == pa);
      if (ops_->b_is_a) {
        ops_->b_storage = CSRMatrix<IT, VT>();
      } else {
        ops_->b_storage = b;
      }
      if (needs_csc_) {
        ops_->b_csc = detail::build_csc_cache(ops_->b(), ops_->csc_perm);
      }
    }
    ops_->mask_is_a = (pm == pa);
    ops_->mask_is_b = !ops_->mask_is_a && !keep_b && (pm == pb);
    if (ops_->mask_is_a || ops_->mask_is_b) {
      ops_->mask_rowptr.assign(1, IT{0});
      ops_->mask_colidx.clear();
    } else {
      ops_->mask_rowptr.assign(m.rowptr().begin(), m.rowptr().end());
      ops_->mask_colidx.assign(m.colidx().begin(), m.colidx().end());
      ops_->mask_nrows = m.nrows();
      ops_->mask_ncols = m.ncols();
    }

    KernelOperands<IT, VT> in;
    in.a = &ops_->a;
    in.b = &ops_->b();
    in.b_csc = needs_csc_ ? &ops_->b_csc : nullptr;
    in.mask = ops_->mask_view();
    kernel_->bind(in, opts_);
    symbolic_.invalidate();
    partition_.invalidate();

    // Feedback key for the adaptive engine: a sampled O(1) fingerprint of
    // the operand structures (adaptive/feedback.hpp). Computed per adopted
    // structure and deliberately NOT refreshed by apply_delta — prior
    // per-block observations remain the best estimate after a sparse patch.
    if (opts_.algo == MaskedAlgo::kAdaptive) {
      std::uint64_t h = adaptive::kDigestSeed;
      h = adaptive::structure_digest<IT>(h, ops_->a.nrows(), ops_->a.ncols(),
                                         ops_->a.rowptr(), ops_->a.colidx());
      if (!ops_->b_is_a) {
        h = adaptive::structure_digest<IT>(h, ops_->b().nrows(),
                                           ops_->b().ncols(),
                                           ops_->b().rowptr(),
                                           ops_->b().colidx());
      }
      const auto mv = ops_->mask_view();
      h = adaptive::structure_digest<IT>(
          h, mv.nrows, mv.ncols,
          std::span<const IT>(mv.rowptr, static_cast<std::size_t>(mv.nrows) + 1),
          std::span<const IT>(mv.colidx, static_cast<std::size_t>(mv.nnz())));
      h = adaptive::digest_mix(h, static_cast<std::uint64_t>(opts_.kind));
      adaptive_digest_ = h;
    }
  }

  MaskedOptions opts_;
  bool needs_csc_ = false;
  std::unique_ptr<Operands> ops_;
  std::unique_ptr<PlanKernelBase<SR, IT, VT>> kernel_;
  TwoPhaseCache<IT> symbolic_;
  PartitionCache partition_;
  std::uint64_t adaptive_digest_ = 0;
  int last_remodes_ = 0;
  double setup_seconds_ = 0.0;
  double last_execute_setup_seconds_ = 0.0;
  double last_delta_seconds_ = 0.0;
};

// Builds a reusable plan for C = M .* (A·B) (or the complemented form) on
// semiring SR. Resolves kAuto, copies the operands, transposes B once if the
// chosen family pulls, and prepares per-thread workspaces for execute().
template <class SR, class IT, class VT, class MT>
  requires Semiring<SR>
MaskedPlan<SR, IT, VT> masked_plan(const CSRMatrix<IT, VT>& a,
                                   const CSRMatrix<IT, VT>& b,
                                   const CSRMatrix<IT, MT>& m,
                                   const MaskedOptions& opts = {}) {
  return MaskedPlan<SR, IT, VT>(a, b, m, opts);
}

}  // namespace msx
