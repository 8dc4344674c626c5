// Engine-level bit-identity of the adaptive per-block engine and the
// families its engines are: for every phase × mask kind, the CSR output of
// Hash, MSABitmap, MSADense and Adaptive must be EXACTLY equal (operator==,
// no tolerance) — the contract that lets the ModePlanner choose on cost
// alone. Plus plan reuse and aliasing.
#include <gtest/gtest.h>

#include <vector>

#include "adaptive/planner.hpp"
#include "core/masked_spgemm.hpp"
#include "core/plan.hpp"
#include "core/reference.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/rmat.hpp"

#include "../core/test_helpers.hpp"

namespace msx {
namespace {

using IT = int32_t;
using VT = double;
using SR = PlusTimes<VT>;

// The adaptive engine and the three families it switches between per block
// (sparse = Hash, bitmap = MSABitmap, dense = MSADense).
std::vector<MaskedAlgo> engine_algos() {
  return {MaskedAlgo::kHash, MaskedAlgo::kMSABitmap, MaskedAlgo::kMSADense,
          MaskedAlgo::kAdaptive};
}

// A structure whose density shifts across row regions: the first half of
// the rows is dense (high degree), the second half sparse — so per-block
// mode decisions genuinely differ and every mode runs somewhere.
struct MixedWorkload {
  CSRMatrix<IT, VT> a;
  CSRMatrix<IT, VT> b;
  CSRMatrix<IT, VT> m;
};

MixedWorkload mixed_workload(IT dim, std::uint64_t seed) {
  auto dense_a = erdos_renyi<IT, VT>(dim / 2, dim, dim / 4, seed + 1);
  auto sparse_a = erdos_renyi<IT, VT>(dim - dim / 2, dim, 3, seed + 2);
  // Stack: rows [0, dim/2) dense, rows [dim/2, dim) sparse.
  std::vector<IT> rowptr{0};
  std::vector<IT> colidx;
  std::vector<VT> values;
  for (const auto* part : {&dense_a, &sparse_a}) {
    for (IT i = 0; i < part->nrows(); ++i) {
      const auto r = part->row(i);
      colidx.insert(colidx.end(), r.cols.begin(), r.cols.end());
      values.insert(values.end(), r.vals.begin(), r.vals.end());
      rowptr.push_back(static_cast<IT>(colidx.size()));
    }
  }
  MixedWorkload w;
  w.a = CSRMatrix<IT, VT>(dim, dim, std::move(rowptr), std::move(colidx),
                          std::move(values));
  w.b = erdos_renyi<IT, VT>(dim, dim, dim / 8, seed + 3);
  w.m = erdos_renyi<IT, VT>(dim, dim, dim / 6, seed + 4);
  return w;
}

TEST(AdaptiveFamilies, BitIdenticalAcrossModesAllCombos) {
  const auto w = mixed_workload(256, 17);
  for (auto kind : {MaskKind::kMask, MaskKind::kComplement}) {
    for (auto phase : msx::testing::all_phases()) {
      MaskedOptions o;
      o.algo = MaskedAlgo::kMSA;
      o.kind = kind;
      o.phases = phase;
      const auto baseline = masked_spgemm<SR>(w.a, w.b, w.m, o);
      const auto want = reference_masked_spgemm<SR>(w.a, w.b, w.m, kind);
      EXPECT_TRUE(msx::testing::matrices_near(baseline, want))
          << "MSA baseline vs reference";
      for (auto algo : engine_algos()) {
        o.algo = algo;
        const auto got = masked_spgemm<SR>(w.a, w.b, w.m, o);
        EXPECT_EQ(baseline, got)
            << to_string(algo) << " kind=" << static_cast<int>(kind)
            << " phase=" << static_cast<int>(phase);
      }
    }
  }
}

TEST(AdaptiveFamilies, PlanExecutesBitIdenticalAndReModes) {
  const auto w = mixed_workload(256, 29);
  MaskedOptions hash;
  hash.algo = MaskedAlgo::kHash;
  hash.schedule = Schedule::kFlopBalanced;  // always partition -> plan modes
  auto plan_hash = masked_plan<SR>(w.a, w.b, w.m, hash);
  const auto baseline = plan_hash.execute();

  for (auto algo : engine_algos()) {
    MaskedOptions o = hash;
    o.algo = algo;
    auto plan = masked_plan<SR>(w.a, w.b, w.m, o);
    EXPECT_EQ(plan.algo(), algo);
    // Repeated executes stay bit-identical even as feedback re-modes blocks.
    for (int rep = 0; rep < 3; ++rep) {
      EXPECT_EQ(baseline, plan.execute()) << to_string(algo) << " rep " << rep;
    }
    // Only the engine plans per-block modes; the plain families never do.
    const auto h = plan.adaptive_mode_histogram();
    const int planned = h[0] + h[1] + h[2];
    if (algo == MaskedAlgo::kAdaptive) {
      EXPECT_EQ(planned, plan.partition_blocks());
    } else {
      EXPECT_EQ(planned, 0) << to_string(algo);
    }
  }
}

TEST(AdaptiveFamilies, AliasedOperandsBitIdentical) {
  // k-truss shape: A = B = M, all the same object.
  auto a = rmat<IT, VT>(8, 55);
  MaskedOptions o;
  o.algo = MaskedAlgo::kMSA;
  const auto baseline = masked_spgemm<SR>(a, a, a, o);
  for (auto algo : engine_algos()) {
    o.algo = algo;
    EXPECT_EQ(baseline, masked_spgemm<SR>(a, a, a, o)) << to_string(algo);
    auto plan = masked_plan<SR>(a, a, a, o);
    EXPECT_EQ(baseline, plan.execute()) << to_string(algo);
    EXPECT_EQ(baseline, plan.execute()) << to_string(algo) << " rerun";
  }
}

}  // namespace
}  // namespace msx
