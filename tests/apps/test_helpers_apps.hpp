// Shared scheme lists for application tests.
#pragma once

#include <vector>

#include "core/options.hpp"

namespace msx::testing {

inline std::vector<MaskedAlgo> all_algos() {
  return {MaskedAlgo::kMSA,  MaskedAlgo::kHash,    MaskedAlgo::kMCA,
          MaskedAlgo::kHeap, MaskedAlgo::kHeapDot, MaskedAlgo::kInner,
          MaskedAlgo::kHybrid, MaskedAlgo::kMSABitmap, MaskedAlgo::kMSADense,
          MaskedAlgo::kAdaptive};
}

inline std::vector<MaskedAlgo> complement_algos() {
  return {MaskedAlgo::kMSA,  MaskedAlgo::kHash,  MaskedAlgo::kHeap,
          MaskedAlgo::kHeapDot, MaskedAlgo::kInner, MaskedAlgo::kHybrid,
          MaskedAlgo::kMSABitmap, MaskedAlgo::kMSADense, MaskedAlgo::kAdaptive};
}

inline std::vector<PhaseMode> all_phases() {
  return {PhaseMode::kOnePhase, PhaseMode::kTwoPhase};
}

}  // namespace msx::testing
