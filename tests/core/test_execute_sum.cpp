// MaskedPlan::execute_sum reduces the masked product to the SR::add fold of
// its entries without building C. On integer semirings it must equal
// reduce_sum(execute()) exactly for every algorithm, phase mode, mask kind,
// schedule and execution context, and stay equal across repeated calls,
// value refreshes and delta patches.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/plan.hpp"
#include "gen/erdos_renyi.hpp"
#include "matrix/build.hpp"
#include "matrix/ops.hpp"
#include "runtime/thread_pool.hpp"
#include "test_helpers.hpp"

namespace msx {
namespace {

using IT = std::int32_t;
using VT = std::int64_t;
using Mat = CSRMatrix<IT, VT>;

const std::vector<Schedule>& all_schedules() {
  static const std::vector<Schedule> s{
      Schedule::kAuto, Schedule::kStatic, Schedule::kDynamic,
      Schedule::kGuided, Schedule::kFlopBalanced};
  return s;
}

struct Combo {
  MaskedAlgo algo;
  PhaseMode phases;
  MaskKind kind;
};

std::vector<Combo> supported_combos() {
  std::vector<Combo> combos;
  for (PhaseMode ph : msx::testing::all_phases()) {
    for (MaskedAlgo algo : msx::testing::all_algos()) {
      combos.push_back({algo, ph, MaskKind::kMask});
    }
    for (MaskedAlgo algo : msx::testing::complement_algos()) {
      combos.push_back({algo, ph, MaskKind::kComplement});
    }
  }
  return combos;
}

std::string label(const Combo& c, Schedule s, int ctx) {
  return scheme_name(c.algo, c.phases) + "/" + to_string(c.kind) + "/" +
         to_string(s) + "/ctx" + std::to_string(ctx);
}

// Small positive integer values, so PlusTimes sums are nontrivial and exact.
Mat random_int(IT nrows, IT ncols, IT degree, std::uint64_t seed) {
  ErdosRenyiOptions eo;
  eo.value_min = 1.0;
  eo.value_max = 10.0;
  return erdos_renyi<IT, VT>(nrows, ncols, degree, seed, eo);
}

template <class Drop>
Mat clear_rows(const Mat& a, Drop drop) {
  return filter(a, [&](IT i, IT, const VT&) { return !drop(i); });
}

// A with empty rows; a mask with empty rows (fully masked out under kMask)
// and full rows (fully masked out under kComplement).
struct Operands {
  Mat a, b, m;
};

Operands make_operands() {
  constexpr IT kRows = 96, kInner = 80, kCols = 72;
  Operands o;
  o.a = clear_rows(random_int(kRows, kInner, 6, 1),
                   [](IT i) { return i % 11 == 3; });
  o.b = random_int(kInner, kCols, 5, 2);
  std::vector<Triple<IT, VT>> full;
  for (IT i = 5; i < kRows; i += 13) {
    for (IT j = 0; j < kCols; ++j) full.push_back({i, j, VT{1}});
  }
  o.m = ewise_add(clear_rows(random_int(kRows, kCols, 9, 3),
                             [](IT i) { return i % 7 == 2; }),
                  csr_from_triples<IT, VT>(kRows, kCols, std::move(full)));
  return o;
}

template <class SR>
void expect_sum_matches_every_combo(const Operands& ops) {
  ThreadPool pool(2);
  const std::vector<ExecContext> contexts{
      ExecContext::openmp(), ExecContext::serial(), ExecContext::arena(pool)};
  for (const Combo& c : supported_combos()) {
    for (Schedule s : all_schedules()) {
      MaskedOptions o;
      o.algo = c.algo;
      o.phases = c.phases;
      o.kind = c.kind;
      o.schedule = s;
      auto plan = masked_plan<SR>(ops.a, ops.b, ops.m, o);
      const VT want = reduce_sum(plan.execute());
      for (std::size_t k = 0; k < contexts.size(); ++k) {
        EXPECT_EQ(plan.execute_sum(contexts[k]), want)
            << label(c, s, static_cast<int>(k));
      }
    }
  }
}

TEST(ExecuteSum, PlusPairMatchesReducedProductForEveryCombo) {
  expect_sum_matches_every_combo<PlusPair<VT>>(make_operands());
}

TEST(ExecuteSum, PlusTimesMatchesReducedProductForEveryCombo) {
  expect_sum_matches_every_combo<PlusTimes<VT>>(make_operands());
}

TEST(ExecuteSum, EmptyAndFullyMaskedOutProductsSumToZero) {
  const Operands ops = make_operands();
  const Mat empty_mask(ops.m.nrows(), ops.m.ncols());
  const Mat empty(0, 0);
  for (MaskedAlgo algo : msx::testing::all_algos()) {
    MaskedOptions o;
    o.algo = algo;
    EXPECT_EQ(masked_plan<PlusTimes<VT>>(ops.a, ops.b, empty_mask, o)
                  .execute_sum(),
              VT{0})
        << to_string(algo);
    EXPECT_EQ(masked_plan<PlusTimes<VT>>(empty, empty, empty, o).execute_sum(),
              VT{0})
        << to_string(algo);
  }
}

TEST(ExecuteSum, RepeatedAndAfterValueRefreshAndDelta) {
  const Operands ops = make_operands();
  std::vector<VT> a_vals(ops.a.nnz()), b_vals(ops.b.nnz());
  for (std::size_t p = 0; p < a_vals.size(); ++p) a_vals[p] = VT(p % 5) + 2;
  for (std::size_t p = 0; p < b_vals.size(); ++p) b_vals[p] = VT(p % 3) + 1;
  EdgeDelta<IT, VT> delta;
  delta.insert(0, 1, 4);
  delta.insert(7, 70, 3);
  delta.insert(79, 0, 2);
  delta.erase(2, ops.b.row(2).cols[0]);
  delta.erase(3, ops.b.row(3).cols[0]);

  for (const Combo& c : supported_combos()) {
    MaskedOptions o;
    o.algo = c.algo;
    o.phases = c.phases;
    o.kind = c.kind;
    auto plan = masked_plan<PlusTimes<VT>>(ops.a, ops.b, ops.m, o);
    const std::string tag = label(c, Schedule::kAuto, 0);

    const VT first = plan.execute_sum();
    EXPECT_EQ(plan.execute_sum(), first) << tag;
    EXPECT_EQ(reduce_sum(plan.execute()), first) << tag;
    EXPECT_EQ(plan.execute_sum(), first) << tag;

    const auto refreshed = plan.execute_values(a_vals, b_vals);
    EXPECT_EQ(plan.execute_sum(), reduce_sum(refreshed)) << tag;

    plan.apply_delta(delta);
    const VT patched = plan.execute_sum();
    EXPECT_EQ(patched, reduce_sum(plan.execute())) << tag;
    // A cold plan over the refreshed, patched operands agrees.
    Mat a = ops.a, b = ops.b;
    std::copy(a_vals.begin(), a_vals.end(), a.mutable_values().begin());
    std::copy(b_vals.begin(), b_vals.end(), b.mutable_values().begin());
    b = apply_edge_delta(b, delta);
    EXPECT_EQ(masked_plan<PlusTimes<VT>>(a, b, ops.m, o).execute_sum(),
              patched)
        << tag;
  }
}

}  // namespace
}  // namespace msx
