// Plan/execute API: a MaskedPlan must be indistinguishable from fresh
// masked_spgemm calls — across every algorithm family and both phase modes,
// for repeated execute(), value refreshes, rebinds and workspace resets.
#include "core/plan.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "core/masked_spgemm.hpp"
#include "core/reference.hpp"
#include "gen/erdos_renyi.hpp"
#include "matrix/build.hpp"
#include "test_helpers.hpp"

namespace msx {
namespace {

using IT = int32_t;
using VT = double;
using SR = PlusTimes<VT>;
using msx::testing::matrices_near;

class PlanP : public ::testing::TestWithParam<std::tuple<MaskedAlgo, PhaseMode>> {
 protected:
  MaskedOptions opts(MaskKind kind = MaskKind::kMask) const {
    MaskedOptions o;
    o.algo = std::get<0>(GetParam());
    o.phases = std::get<1>(GetParam());
    o.kind = kind;
    return o;
  }
};

TEST_P(PlanP, ExecuteTwiceMatchesFreshCalls) {
  const auto a = erdos_renyi<IT, VT>(120, 140, 8, 1);
  const auto b = erdos_renyi<IT, VT>(140, 110, 7, 2);
  const auto m = erdos_renyi<IT, VT>(120, 110, 10, 3);

  const auto want = masked_spgemm<SR>(a, b, m, opts());
  auto plan = masked_plan<SR>(a, b, m, opts());
  const auto got1 = plan.execute();
  const auto got2 = plan.execute();
  EXPECT_TRUE(got1 == want);  // bit-identical, not just near
  EXPECT_TRUE(got2 == want);
}

TEST_P(PlanP, ExecuteTwiceMatchesFreshCallsComplement) {
  if (std::get<0>(GetParam()) == MaskedAlgo::kMCA) {
    GTEST_SKIP() << "MCA has no complement support";
  }
  const auto a = erdos_renyi<IT, VT>(90, 90, 6, 4);
  const auto b = erdos_renyi<IT, VT>(90, 90, 6, 5);
  const auto m = erdos_renyi<IT, VT>(90, 90, 30, 6);

  const auto o = opts(MaskKind::kComplement);
  const auto want = masked_spgemm<SR>(a, b, m, o);
  auto plan = masked_plan<SR>(a, b, m, o);
  EXPECT_TRUE(plan.execute() == want);
  EXPECT_TRUE(plan.execute() == want);
}

TEST_P(PlanP, ExecuteValuesMatchesFreshCallOnRefreshedMatrices) {
  auto a = erdos_renyi<IT, VT>(100, 100, 8, 7);
  auto b = erdos_renyi<IT, VT>(100, 100, 8, 8);
  const auto m = erdos_renyi<IT, VT>(100, 100, 12, 9);

  auto plan = masked_plan<SR>(a, b, m, opts());
  (void)plan.execute();  // warm, with the original values

  // New numerics, same sparsity.
  std::vector<VT> new_a(a.nnz()), new_b(b.nnz());
  for (std::size_t p = 0; p < new_a.size(); ++p) {
    new_a[p] = static_cast<VT>(p % 17) + 0.25;
  }
  for (std::size_t p = 0; p < new_b.size(); ++p) {
    new_b[p] = static_cast<VT>(p % 13) - 2.5;
  }
  const auto got = plan.execute_values(new_a, new_b);

  std::copy(new_a.begin(), new_a.end(), a.mutable_values().begin());
  std::copy(new_b.begin(), new_b.end(), b.mutable_values().begin());
  const auto want = masked_spgemm<SR>(a, b, m, opts());
  EXPECT_TRUE(got == want);

  // Refreshing only one operand (empty span = unchanged) also matches.
  for (auto& v : new_b) v *= -1.0;
  const auto got_b_only = plan.execute_values({}, new_b);
  std::copy(new_b.begin(), new_b.end(), b.mutable_values().begin());
  EXPECT_TRUE(got_b_only == masked_spgemm<SR>(a, b, m, opts()));
}

TEST_P(PlanP, RebindMatchesFreshCallOnNewStructure) {
  const auto a1 = erdos_renyi<IT, VT>(80, 80, 6, 10);
  const auto m1 = erdos_renyi<IT, VT>(80, 80, 9, 11);
  const auto b = erdos_renyi<IT, VT>(80, 80, 6, 12);

  auto plan = masked_plan<SR>(a1, b, m1, opts());
  (void)plan.execute();

  // Full rebind: all three operands change (different sizes too).
  const auto a2 = erdos_renyi<IT, VT>(60, 70, 5, 13);
  const auto b2 = erdos_renyi<IT, VT>(70, 50, 5, 14);
  const auto m2 = erdos_renyi<IT, VT>(60, 50, 8, 15);
  plan.rebind(a2, b2, m2);
  EXPECT_TRUE(plan.execute() == masked_spgemm<SR>(a2, b2, m2, opts()));

  // Stationary-B rebind: only A and the mask change.
  const auto a3 = erdos_renyi<IT, VT>(40, 70, 6, 16);
  const auto m3 = erdos_renyi<IT, VT>(40, 50, 7, 17);
  plan.rebind(a3, m3);
  EXPECT_TRUE(plan.execute() == masked_spgemm<SR>(a3, b2, m3, opts()));
}

TEST_P(PlanP, ResetWorkspacesKeepsResultsIdentical) {
  const auto a = erdos_renyi<IT, VT>(70, 70, 7, 18);
  const auto b = erdos_renyi<IT, VT>(70, 70, 7, 19);
  const auto m = erdos_renyi<IT, VT>(70, 70, 9, 20);

  auto plan = masked_plan<SR>(a, b, m, opts());
  const auto want = plan.execute();
  plan.reset_workspaces();
  EXPECT_TRUE(plan.execute() == want);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, PlanP,
    ::testing::Combine(::testing::ValuesIn(msx::testing::all_algos()),
                       ::testing::ValuesIn(msx::testing::all_phases())),
    [](const auto& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_" +
             to_string(std::get<1>(info.param));
    });

TEST_P(PlanP, AliasedOperandsMatchDistinctCopies) {
  // The k-truss shape: one matrix serves as A, B and mask. The plan stores a
  // single copy; results must match binding three distinct copies.
  const auto a = erdos_renyi<IT, VT>(70, 70, 6, 40);
  const auto a_copy1 = a;
  const auto a_copy2 = a;

  auto plan = masked_plan<SR>(a, a, a, opts());
  const auto want = masked_spgemm<SR>(a, a_copy1, a_copy2, opts());
  EXPECT_TRUE(plan.execute() == want);
  EXPECT_TRUE(plan.execute() == want);

  // Full aliased rebind (the pruning iteration).
  const auto a2 = erdos_renyi<IT, VT>(50, 50, 5, 41);
  plan.rebind(a2, a2, a2);
  EXPECT_TRUE(plan.execute() == masked_spgemm<SR>(a2, a2, a2, opts()));

  // Stationary-B rebind off an aliased plan: B must be materialized from
  // the outgoing A before A is replaced.
  const auto a3 = erdos_renyi<IT, VT>(50, 50, 6, 42);
  const auto m3 = erdos_renyi<IT, VT>(50, 50, 7, 43);
  plan.rebind(a3, m3);
  EXPECT_TRUE(plan.execute() == masked_spgemm<SR>(a3, a2, m3, opts()));

  // Mask aliasing B only.
  const auto b4 = erdos_renyi<IT, VT>(70, 70, 6, 44);
  auto plan_mb = masked_plan<SR>(a, b4, b4, opts());
  EXPECT_TRUE(plan_mb.execute() == masked_spgemm<SR>(a, b4, b4, opts()));
}

TEST_P(PlanP, AliasedExecuteValuesRefreshesTheSharedMatrix) {
  auto a = erdos_renyi<IT, VT>(60, 60, 6, 45);
  auto plan = masked_plan<SR>(a, a, a, opts());
  (void)plan.execute();

  std::vector<VT> fresh(a.nnz());
  for (std::size_t p = 0; p < fresh.size(); ++p) {
    fresh[p] = static_cast<VT>(p % 11) + 1.5;
  }
  // B aliases A: refreshing "B" refreshes the one stored matrix.
  const auto got = plan.execute_values(fresh, fresh);
  std::copy(fresh.begin(), fresh.end(), a.mutable_values().begin());
  EXPECT_TRUE(got == masked_spgemm<SR>(a, a, a, opts()));
}

TEST(Plan, InvalidateSymbolicCacheKeepsResultsIdentical) {
  const auto a = erdos_renyi<IT, VT>(80, 80, 7, 46);
  const auto b = erdos_renyi<IT, VT>(80, 80, 7, 47);
  const auto m = erdos_renyi<IT, VT>(80, 80, 9, 48);
  MaskedOptions o;
  o.algo = MaskedAlgo::kHash;
  o.phases = PhaseMode::kTwoPhase;
  auto plan = masked_plan<SR>(a, b, m, o);
  const auto want = plan.execute();
  plan.invalidate_symbolic_cache();
  EXPECT_TRUE(plan.execute() == want);
}

TEST(Plan, PartitionCacheSurvivesValueRefreshAndDiesOnRebind) {
  const auto a = erdos_renyi<IT, VT>(120, 120, 8, 61);
  const auto b = erdos_renyi<IT, VT>(120, 120, 8, 62);
  const auto m = erdos_renyi<IT, VT>(120, 120, 10, 63);
  MaskedOptions o;
  o.algo = MaskedAlgo::kHash;
  o.schedule = Schedule::kFlopBalanced;
  auto plan = masked_plan<SR>(a, b, m, o);
  EXPECT_FALSE(plan.partition_cached());  // built lazily by execute()

  const auto want = plan.execute();
  EXPECT_TRUE(plan.partition_cached());
  EXPECT_GE(plan.partition_blocks(), 1);

  // Value refresh keeps the partition (cost depends only on structure).
  std::vector<VT> fresh(a.nnz(), 2.0);
  (void)plan.execute_values(fresh, {});
  EXPECT_TRUE(plan.partition_cached());

  // Rebind to new structure must drop it.
  const auto a2 = erdos_renyi<IT, VT>(150, 150, 8, 64);
  const auto m2 = erdos_renyi<IT, VT>(150, 150, 10, 65);
  plan.rebind(a2, a2, m2);
  EXPECT_FALSE(plan.partition_cached());
  (void)plan.execute();
  EXPECT_TRUE(plan.partition_cached());

  // Explicit invalidation mirrors the symbolic cache and keeps results.
  plan.rebind(a, b, m);
  const auto again = plan.execute();
  EXPECT_TRUE(again == want);
  plan.invalidate_partition_cache();
  EXPECT_FALSE(plan.partition_cached());
  EXPECT_TRUE(plan.execute() == want);
}

TEST(Plan, NonFlopBalancedSchedulesBuildNoPartition) {
  const auto a = erdos_renyi<IT, VT>(60, 60, 5, 66);
  MaskedOptions o;
  o.algo = MaskedAlgo::kMSA;
  o.schedule = Schedule::kDynamic;
  auto plan = masked_plan<SR>(a, a, a, o);
  (void)plan.execute();
  EXPECT_FALSE(plan.partition_cached());
}

TEST(Plan, AutoScheduleResolvesToFlopBalancedAndExplicitIsHonoured) {
  // Large enough that the O(1) work hint clears the tiny-input cutoff
  // (nnz(A) × mean B degree ≈ 10000 × 20 = 2e5 > kAutoScheduleTinyWork).
  const auto a = erdos_renyi<IT, VT>(500, 500, 20, 67);
  auto plan = masked_plan<SR>(a, a, a);  // default options: schedule kAuto
  EXPECT_EQ(plan.options().schedule, Schedule::kAuto);
  (void)plan.execute();
  EXPECT_TRUE(plan.partition_cached());  // kAuto ran the partition

  // Every explicitly chosen schedule — including kDynamic, which used to be
  // indistinguishable from the default — runs as requested, with no
  // partition built behind the caller's back.
  for (Schedule s :
       {Schedule::kStatic, Schedule::kDynamic, Schedule::kGuided}) {
    MaskedOptions o;
    o.schedule = s;
    auto pinned = masked_plan<SR>(a, a, a, o);
    EXPECT_EQ(pinned.options().schedule, s);
    (void)pinned.execute();
    EXPECT_FALSE(pinned.partition_cached()) << to_string(s);
  }
}

TEST(Plan, StaleBlockBoundNeverSurvivesIntoNonPartitionedRuns) {
  // Regression: a flop-balanced run sizes MSA/Hash workspaces per block and
  // leaves each workspace's column bound at the width of the last block it
  // ran. rebind() deliberately retains workspaces, so a later run that
  // skips the per-block prologue — here a serial-context execute, which
  // downgrades the partition to a plain row loop — on a *wider* structure
  // must not inherit the old bound: the grow-only accumulator arrays would
  // stay at the narrow size while rows probe far wider columns.
  const auto narrow = erdos_renyi<IT, VT>(60, 60, 6, 171);   // ncols 60
  const auto wide = erdos_renyi<IT, VT>(500, 500, 2, 172);   // ncols 500

  for (MaskedAlgo algo : {MaskedAlgo::kMSA, MaskedAlgo::kMSABitmap,
                          MaskedAlgo::kHash}) {
    for (MaskKind kind : {MaskKind::kMask, MaskKind::kComplement}) {
      MaskedOptions o;
      o.algo = algo;
      o.kind = kind;
      o.schedule = Schedule::kFlopBalanced;
      auto plan = masked_plan<SR>(narrow, narrow, narrow, o);
      (void)plan.execute();  // partitioned: every slot's bound is <= 60
      plan.rebind(wide, wide, wide);
      const auto want = masked_spgemm<SR>(wide, wide, wide, o);
      EXPECT_TRUE(plan.execute(ExecContext::serial()) == want)
          << to_string(algo) << "/" << to_string(kind);
    }
  }
}

TEST(Plan, AutoScheduleStaysStaticBelowTinyWorkCutoff) {
  // ~80×6 rows: the work hint (~2900 estimated multiplies) is far below
  // kAutoScheduleTinyWork, so kAuto skips the partition prefix sum entirely
  // — results are unchanged (schedules are result-invariant).
  const auto a = erdos_renyi<IT, VT>(80, 80, 6, 68);
  auto plan = masked_plan<SR>(a, a, a);
  const auto got = plan.execute();
  EXPECT_FALSE(plan.partition_cached());

  // An explicit kFlopBalanced request on the same tiny input is honoured.
  MaskedOptions o;
  o.schedule = Schedule::kFlopBalanced;
  auto pinned = masked_plan<SR>(a, a, a, o);
  EXPECT_TRUE(pinned.execute() == got);
  EXPECT_TRUE(pinned.partition_cached());
}

TEST(Plan, AutoResolvesOnceAndMatchesStatelessAuto) {
  const auto a = erdos_renyi<IT, VT>(100, 100, 20, 21);
  const auto b = erdos_renyi<IT, VT>(100, 100, 20, 22);
  const auto m = erdos_renyi<IT, VT>(100, 100, 2, 23);

  auto plan = masked_plan<SR>(a, b, m);  // default options: kAuto
  EXPECT_NE(plan.algo(), MaskedAlgo::kAuto);
  EXPECT_TRUE(plan.execute() == masked_spgemm<SR>(a, b, m));
}

TEST(Plan, AutoNeverResolvesToDenseTileOrAdaptive) {
  for (double a_nnz : {1e2, 1e4, 1e6}) {
    for (double m_nnz : {1e2, 1e4, 1e6}) {
      for (std::int64_t ncols : {std::int64_t{1} << 10,
                                 std::int64_t{1} << 20}) {
        for (auto kind : {MaskKind::kMask, MaskKind::kComplement}) {
          const MaskedAlgo got = detail::choose_auto_algo(
              1e3, a_nnz, a_nnz, m_nnz, ncols, kind);
          EXPECT_NE(got, MaskedAlgo::kMSADense);
          EXPECT_NE(got, MaskedAlgo::kAdaptive);
        }
      }
    }
  }
}

TEST(Plan, CachesCscOnlyForPullBasedFamilies) {
  const auto a = erdos_renyi<IT, VT>(50, 50, 5, 24);
  const auto b = erdos_renyi<IT, VT>(50, 50, 5, 25);
  const auto m = erdos_renyi<IT, VT>(50, 50, 5, 26);

  MaskedOptions inner;
  inner.algo = MaskedAlgo::kInner;
  MaskedOptions msa;
  msa.algo = MaskedAlgo::kMSA;
  EXPECT_TRUE(masked_plan<SR>(a, b, m, inner).caches_csc());
  EXPECT_FALSE(masked_plan<SR>(a, b, m, msa).caches_csc());
}

TEST(Plan, RejectsUnsupportedCombination) {
  const auto a = erdos_renyi<IT, VT>(30, 30, 4, 27);
  MaskedOptions o;
  o.algo = MaskedAlgo::kMCA;
  o.kind = MaskKind::kComplement;
  EXPECT_THROW((masked_plan<SR>(a, a, a, o)), std::invalid_argument);
}

TEST(Plan, RejectsValueRefreshWithWrongSize) {
  const auto a = erdos_renyi<IT, VT>(30, 30, 4, 28);
  auto plan = masked_plan<SR>(a, a, a);
  std::vector<VT> wrong(a.nnz() + 3, 1.0);
  EXPECT_THROW((void)plan.execute_values(wrong, {}), std::invalid_argument);
  EXPECT_THROW((void)plan.execute_values({}, wrong), std::invalid_argument);
}

TEST(Plan, SecondExecutePaysNoLazySetup) {
  const auto a = erdos_renyi<IT, VT>(200, 200, 10, 29);
  const auto b = erdos_renyi<IT, VT>(200, 200, 10, 30);
  const auto m = erdos_renyi<IT, VT>(200, 200, 4, 31);
  MaskedOptions o;
  o.algo = MaskedAlgo::kInner;
  auto plan = masked_plan<SR>(a, b, m, o);
  (void)plan.execute();
  (void)plan.execute();
  EXPECT_EQ(plan.last_execute_setup_seconds(), 0.0);
}

// The complemented Heap path now honours heap_ninspect via complement-aware
// look-ahead; every setting must agree with the serial reference.
TEST(Plan, HeapComplementHonoursNinspect) {
  const auto a = erdos_renyi<IT, VT>(80, 80, 6, 32);
  const auto b = erdos_renyi<IT, VT>(80, 80, 6, 33);
  const auto m = erdos_renyi<IT, VT>(80, 80, 25, 34);

  MaskedOptions base;
  base.algo = MaskedAlgo::kHeap;
  base.kind = MaskKind::kComplement;
  const auto want =
      reference_masked_spgemm<SR>(a, b, m, MaskKind::kComplement);
  for (std::size_t ninspect : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                               kNInspectInfinity}) {
    for (PhaseMode ph : msx::testing::all_phases()) {
      MaskedOptions o = base;
      o.heap_ninspect = ninspect;
      o.phases = ph;
      auto plan = masked_plan<SR>(a, b, m, o);
      EXPECT_TRUE(matrices_near(plan.execute(), want))
          << "ninspect=" << ninspect << " " << to_string(ph);
    }
  }
}

}  // namespace
}  // namespace msx
