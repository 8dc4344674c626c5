// Public entry point: C = M .* (A·B)  or  C = ¬M .* (A·B)  on a semiring.
//
// Dispatches to the algorithm families of the paper (§5: MSA, Hash, MCA,
// Heap/HeapDot; §4.1: Inner) under either phase mode (§6), plus the Hybrid
// per-row selector, the Adaptive per-block engine and an Auto whole-call
// heuristic derived from the Fig. 7 decision surface.
//
//   auto c = masked_spgemm<PlusTimes<double>>(a, b, m, opts);
//
// These free functions are thin wrappers over a throwaway run of the
// plan/execute machinery (core/plan.hpp + core/kernel_registry.hpp): the
// registry picks the kernel, the phase driver builds the output. Callers that
// invoke the same product repeatedly should hold a MaskedPlan instead — it
// amortizes kAuto resolution, B's CSC transpose and the per-thread
// accumulator allocations that these wrappers pay on every call.
//
// The pull-based algorithms need B in CSC form; masked_spgemm builds it on
// the fly (charged to the call), while masked_spgemm_with_csc accepts a
// caller-prepared CSC, matching the paper's assumption that B is already
// stored column-major for Inner.
#pragma once

#include <cstddef>

#include "core/kernel_registry.hpp"
#include "core/options.hpp"
#include "core/phase_driver.hpp"
#include "core/plan.hpp"
#include "matrix/convert.hpp"
#include "matrix/csc.hpp"
#include "matrix/csr.hpp"
#include "semiring/semirings.hpp"

namespace msx {

namespace detail {

// One-shot dispatch: registry lookup, throwaway kernel, zero operand copies.
template <class SR, class IT, class VT, class MT>
CSRMatrix<IT, typename SR::value_type> dispatch(
    const CSRMatrix<IT, VT>& a, const CSRMatrix<IT, VT>& b,
    const CSCMatrix<IT, VT>* b_csc, const CSRMatrix<IT, MT>& m,
    MaskedOptions opts) {
  check_arg(a.ncols() == b.nrows(), "masked_spgemm: inner dimension mismatch");
  check_arg(m.nrows() == a.nrows() && m.ncols() == b.ncols(),
            "masked_spgemm: mask shape must match the output shape");
  validate_masked_options(opts);

  if (opts.algo == MaskedAlgo::kAuto) {
    opts.algo = choose_auto(a, b, m, opts.kind);
  }

  const auto* entry = KernelRegistry<SR, IT, VT>::find(opts.algo, opts.kind);
  check_arg(entry != nullptr,
            unsupported_combo_message(opts.algo, opts.kind));

  // Pull-based and hybrid paths need B in CSC form.
  CSCMatrix<IT, VT> owned_csc;
  if (entry->needs_csc && b_csc == nullptr) {
    owned_csc = csr_to_csc(b);
    b_csc = &owned_csc;
  }

  auto kernel = entry->make();
  KernelOperands<IT, VT> in;
  in.a = &a;
  in.b = &b;
  in.b_csc = entry->needs_csc ? b_csc : nullptr;
  in.mask = mask_of(m);
  kernel->bind(in, opts);
  return kernel->run(nullptr);
}

}  // namespace detail

// Computes C = M .* (A·B) (or the complemented form) on semiring SR.
template <class SR, class IT, class VT, class MT>
  requires Semiring<SR>
CSRMatrix<IT, typename SR::value_type> masked_spgemm(
    const CSRMatrix<IT, VT>& a, const CSRMatrix<IT, VT>& b,
    const CSRMatrix<IT, MT>& m, const MaskedOptions& opts = {}) {
  return detail::dispatch<SR>(a, b, static_cast<const CSCMatrix<IT, VT>*>(nullptr),
                              m, opts);
}

// Same, with a caller-prepared CSC copy of B for the pull-based algorithms
// (keeps the transpose out of the timed region, as the paper assumes for
// Inner — contrast with the SS:DOT-like baseline which transposes per call).
template <class SR, class IT, class VT, class MT>
  requires Semiring<SR>
CSRMatrix<IT, typename SR::value_type> masked_spgemm_with_csc(
    const CSRMatrix<IT, VT>& a, const CSRMatrix<IT, VT>& b,
    const CSCMatrix<IT, VT>& b_csc, const CSRMatrix<IT, MT>& m,
    const MaskedOptions& opts = {}) {
  check_arg(b_csc.nrows() == b.nrows() && b_csc.ncols() == b.ncols(),
            "masked_spgemm: CSC copy shape mismatch");
  return detail::dispatch<SR>(a, b, &b_csc, m, opts);
}

// Convenience default: arithmetic semiring over the matrices' value type.
template <class IT, class VT, class MT>
CSRMatrix<IT, VT> masked_spgemm_arithmetic(const CSRMatrix<IT, VT>& a,
                                           const CSRMatrix<IT, VT>& b,
                                           const CSRMatrix<IT, MT>& m,
                                           const MaskedOptions& opts = {}) {
  return masked_spgemm<PlusTimes<VT>>(a, b, m, opts);
}

}  // namespace msx
