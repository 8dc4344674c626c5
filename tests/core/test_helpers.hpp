// Shared helpers for the masked-SpGEMM correctness suites.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/masked_spgemm.hpp"
#include "core/options.hpp"
#include "core/reference.hpp"
#include "matrix/csr.hpp"

namespace msx::testing {

inline std::vector<MaskedAlgo> all_algos() {
  return {MaskedAlgo::kMSA,  MaskedAlgo::kHash,    MaskedAlgo::kMCA,
          MaskedAlgo::kHeap, MaskedAlgo::kHeapDot, MaskedAlgo::kInner,
          MaskedAlgo::kHybrid, MaskedAlgo::kMSABitmap, MaskedAlgo::kMSADense,
          MaskedAlgo::kAdaptive};
}

// Algorithms that support complemented masks (all but MCA; kMSABitmap falls
// back to the byte-state MSA for complements).
inline std::vector<MaskedAlgo> complement_algos() {
  return {MaskedAlgo::kMSA,  MaskedAlgo::kHash,  MaskedAlgo::kHeap,
          MaskedAlgo::kHeapDot, MaskedAlgo::kInner, MaskedAlgo::kHybrid,
          MaskedAlgo::kMSABitmap, MaskedAlgo::kMSADense, MaskedAlgo::kAdaptive};
}

inline std::vector<PhaseMode> all_phases() {
  return {PhaseMode::kOnePhase, PhaseMode::kTwoPhase};
}

// Pattern + value comparison with a tolerance for floating-point values.
template <class IT, class VT>
::testing::AssertionResult matrices_near(const CSRMatrix<IT, VT>& got,
                                         const CSRMatrix<IT, VT>& want,
                                         double tol = 1e-9) {
  if (got.nrows() != want.nrows() || got.ncols() != want.ncols()) {
    return ::testing::AssertionFailure()
           << "shape mismatch: got " << got.nrows() << "x" << got.ncols()
           << " want " << want.nrows() << "x" << want.ncols();
  }
  if (got.nnz() != want.nnz()) {
    return ::testing::AssertionFailure()
           << "nnz mismatch: got " << got.nnz() << " want " << want.nnz();
  }
  for (IT i = 0; i < got.nrows(); ++i) {
    const auto g = got.row(i);
    const auto w = want.row(i);
    if (g.size() != w.size()) {
      return ::testing::AssertionFailure()
             << "row " << i << " size mismatch: got " << g.size() << " want "
             << w.size();
    }
    for (IT p = 0; p < g.size(); ++p) {
      if (g.cols[p] != w.cols[p]) {
        return ::testing::AssertionFailure()
               << "row " << i << " col mismatch at slot " << p << ": got "
               << g.cols[p] << " want " << w.cols[p];
      }
      const double diff =
          std::abs(static_cast<double>(g.vals[p]) -
                   static_cast<double>(w.vals[p]));
      if (diff > tol) {
        return ::testing::AssertionFailure()
               << "row " << i << " value mismatch at col " << g.cols[p]
               << ": got " << g.vals[p] << " want " << w.vals[p];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// True iff every entry position of `c` appears in the pattern of `m`.
template <class IT, class VT, class MT>
bool pattern_subset_of_mask(const CSRMatrix<IT, VT>& c,
                            const CSRMatrix<IT, MT>& m) {
  for (IT i = 0; i < c.nrows(); ++i) {
    const auto crow = c.row(i);
    const auto mrow = m.row(i);
    IT pm = 0;
    for (IT p = 0; p < crow.size(); ++p) {
      while (pm < mrow.size() && mrow.cols[pm] < crow.cols[p]) ++pm;
      if (pm >= mrow.size() || mrow.cols[pm] != crow.cols[p]) return false;
    }
  }
  return true;
}

// True iff no entry position of `c` appears in the pattern of `m`.
template <class IT, class VT, class MT>
bool pattern_disjoint_from_mask(const CSRMatrix<IT, VT>& c,
                                const CSRMatrix<IT, MT>& m) {
  for (IT i = 0; i < c.nrows(); ++i) {
    const auto crow = c.row(i);
    const auto mrow = m.row(i);
    IT pm = 0;
    for (IT p = 0; p < crow.size(); ++p) {
      while (pm < mrow.size() && mrow.cols[pm] < crow.cols[p]) ++pm;
      if (pm < mrow.size() && mrow.cols[pm] == crow.cols[p]) return false;
    }
  }
  return true;
}

inline std::string param_label(MaskedAlgo a, PhaseMode p) {
  return scheme_name(a, p);
}

}  // namespace msx::testing
