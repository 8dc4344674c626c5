// Adaptive engine × streaming deltas: a delta that flips a block's density
// regime must flip the block's planned mode on the next execute (modes are
// cleared by apply_delta and replanned without rebuilding the partition),
// results stay bit-identical throughout, and the FeedbackStore keeps serving
// the structure across deltas (digest deliberately unchanged). Plus the
// delta-path CSC splice (patch_csc_for_delta) against the full rebuild.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "adaptive/feedback.hpp"
#include "adaptive/planner.hpp"
#include "core/delta.hpp"
#include "core/plan.hpp"
#include "gen/erdos_renyi.hpp"
#include "matrix/convert.hpp"

#include "../core/test_helpers.hpp"

namespace msx {
namespace {

using IT = int32_t;
using VT = double;
using SR = PlusTimes<VT>;

// Inserts a dense brick of edges into rows [lo, hi) of the delta.
void densify_rows(EdgeDelta<IT, VT>& delta, IT lo, IT hi, IT ncols,
                  IT stride) {
  for (IT r = lo; r < hi; ++r) {
    for (IT c = r % stride; c < ncols; c += stride) {
      delta.insert(r, c, 1.0);
    }
  }
}

TEST(AdaptiveStreaming, DeltaFlipsBlockModeWithoutReplan) {
  // Sized so the static cost model is unambiguous on both sides of the
  // delta: at width 2048 the dense tile's per-row clear (width/128 = 16
  // units) outweighs the sparse product work (~8 flops/row -> bitmap ~29 vs
  // dense ~36 per row), and after the delta densifies B to ~130 nnz/row the
  // flop term dominates (~520 flops/row -> dense ~548 vs bitmap ~1053).
  const IT dim = 2048;
  auto a = erdos_renyi<IT, VT>(dim, dim, 4, 301);
  auto b = erdos_renyi<IT, VT>(dim, dim, 2, 302);  // sparse: dense mode loses
  auto m = erdos_renyi<IT, VT>(dim, dim, 4, 303);

  MaskedOptions o;
  o.algo = MaskedAlgo::kAdaptive;
  o.schedule = Schedule::kFlopBalanced;
  auto plan = masked_plan<SR>(a, b, m, o);
  ASSERT_EQ(plan.algo(), MaskedAlgo::kAdaptive);

  plan.execute();
  ASSERT_TRUE(plan.partition_cached());
  const int blocks_before = plan.partition_blocks();
  const auto hist_before = plan.adaptive_mode_histogram();
  // Sparse B: no block should price dense cheapest.
  EXPECT_EQ(hist_before[static_cast<int>(adaptive::BlockMode::kDense)], 0);

  // Densify the whole B — every A row now multiplies dense B rows, pushing
  // per-block flops/row toward the block width where dense mode wins.
  EdgeDelta<IT, VT> delta;
  densify_rows(delta, 0, dim, dim, 16);
  const auto st = plan.apply_delta(delta);
  EXPECT_TRUE(st.partition_kept);

  const auto c_after = plan.execute();
  EXPECT_EQ(plan.partition_blocks(), blocks_before)  // no partition rebuild
      << "apply_delta must keep block boundaries";
  const auto hist_after = plan.adaptive_mode_histogram();
  EXPECT_GT(hist_after[static_cast<int>(adaptive::BlockMode::kDense)], 0)
      << "densifying delta must flip blocks to dense mode";

  // Bit-identity against a fresh Hash product on the patched B.
  const auto b2 = apply_edge_delta(b, delta);
  MaskedOptions off = o;
  off.algo = MaskedAlgo::kHash;
  auto fresh = masked_plan<SR>(a, b2, m, off);
  EXPECT_EQ(fresh.execute(), c_after);
}

TEST(AdaptiveStreaming, FeedbackSurvivesDeltaAndSecondExecuteHits) {
  const IT dim = 192;
  auto a = erdos_renyi<IT, VT>(dim, dim, 16, 311);
  auto b = erdos_renyi<IT, VT>(dim, dim, 8, 312);
  auto m = erdos_renyi<IT, VT>(dim, dim, 24, 313);

  MaskedOptions o;
  o.algo = MaskedAlgo::kAdaptive;
  o.schedule = Schedule::kFlopBalanced;
  auto plan = masked_plan<SR>(a, b, m, o);

  auto& store = adaptive::FeedbackStore::global();
  const auto before = store.stats();
  const auto c1 = plan.execute();  // plans modes + records timings
  const auto mid = store.stats();
  EXPECT_GT(mid.records, before.records) << "first execute must record";

  // Second execute: same digest, prior observations -> feedback hit; the
  // re-mode pass runs without replanning (no new plans beyond replans).
  const auto c2 = plan.execute();
  const auto after = store.stats();
  EXPECT_GT(after.feedback_hits, mid.feedback_hits)
      << "second execute must consult the store";
  EXPECT_EQ(c1, c2);

  // A small delta keeps the digest, so the store still serves the plan.
  EdgeDelta<IT, VT> delta;
  delta.insert(0, 1, 2.0);
  delta.erase(1, 0);
  plan.apply_delta(delta);
  plan.execute();          // replans modes (cleared by the delta)
  const auto c3 = plan.execute();  // ...and hits feedback again
  const auto final_st = store.stats();
  EXPECT_GT(final_st.feedback_hits, after.feedback_hits)
      << "digest must survive apply_delta";

  const auto b2 = apply_edge_delta(b, delta);
  MaskedOptions msa = o;
  msa.algo = MaskedAlgo::kMSA;
  EXPECT_EQ(c3, (masked_spgemm<SR>(a, b2, m, msa)));
}

TEST(AdaptiveStreaming, RepeatedDeltaLoopStaysBitIdentical) {
  const IT dim = 128;
  auto a = erdos_renyi<IT, VT>(dim, dim, 12, 321);
  auto b = erdos_renyi<IT, VT>(dim, dim, 4, 322);
  auto m = erdos_renyi<IT, VT>(dim, dim, 16, 323);

  MaskedOptions o;
  o.algo = MaskedAlgo::kAdaptive;
  o.schedule = Schedule::kFlopBalanced;
  o.phases = PhaseMode::kTwoPhase;  // exercise the symbolic splice too
  auto plan = masked_plan<SR>(a, b, m, o);

  auto cur_b = b;
  for (int step = 0; step < 4; ++step) {
    EdgeDelta<IT, VT> delta;
    // Alternate densifying and thinning one quarter of the rows so block
    // modes keep moving in both directions.
    const IT lo = static_cast<IT>((step % 4) * (dim / 4));
    if (step % 2 == 0) {
      densify_rows(delta, lo, static_cast<IT>(lo + dim / 4), dim, 3);
    } else {
      for (IT r = lo; r < lo + dim / 4; ++r) {
        const auto row = cur_b.row(r);
        for (IT p = 0; p < row.size(); p += 2) delta.erase(r, row.cols[p]);
      }
    }
    plan.apply_delta(delta);
    cur_b = apply_edge_delta(cur_b, delta);
    const auto got = plan.execute();
    MaskedOptions off = o;
    off.algo = MaskedAlgo::kHash;
    EXPECT_EQ(got, (masked_spgemm<SR>(a, cur_b, m, off)))
        << "delta step " << step;
  }
}

TEST(DeltaCscPatch, MatchesFullRebuild) {
  const IT dim = 64;
  auto b = erdos_renyi<IT, VT>(dim, dim, 5, 331);
  auto csc = csr_to_csc(b);

  EdgeDelta<IT, VT> delta;
  delta.insert(3, 7, 2.5);    // new edge
  delta.insert(3, 7, 3.5);    // duplicate insert: last wins
  delta.erase(10, 11);        // maybe-absent edge: no-op if absent
  const auto b0 = b.row(0);
  if (b0.size() > 0) {
    delta.erase(0, b0.cols[0]);            // delete an existing edge
    delta.insert(0, b0.cols[0], 9.0);      // ...and re-insert (replace)
  }
  densify_rows(delta, 20, 24, dim, 4);

  const std::size_t patched = patch_csc_for_delta(csc, delta);
  EXPECT_GT(patched, 0u);

  const auto b_new = apply_edge_delta(b, delta);
  const auto want = csr_to_csc(b_new);
  EXPECT_EQ(csc, want);
}

TEST(DeltaCscPatch, EmptyDeltaAndValidation) {
  auto b = erdos_renyi<IT, VT>(16, 16, 3, 341);
  auto csc = csr_to_csc(b);
  const auto orig = csc;
  EXPECT_EQ(patch_csc_for_delta(csc, EdgeDelta<IT, VT>{}), 0u);
  EXPECT_EQ(csc, orig);

  EdgeDelta<IT, VT> bad;
  bad.insert(0, 99, 1.0);  // out of range
  EXPECT_THROW(patch_csc_for_delta(csc, bad), std::invalid_argument);
}

TEST(DeltaCscPatch, CursorValueRefreshMatchesPermutation) {
  auto b = erdos_renyi<IT, VT>(32, 32, 4, 351);
  auto csc = csr_to_csc(b);
  // Perturb every CSR value, refresh the mirror via the cursor walk.
  std::vector<VT> vals(b.values().begin(), b.values().end());
  for (auto& v : vals) v *= 3.0;
  std::copy(vals.begin(), vals.end(), b.mutable_values().begin());
  refresh_csc_values(b, csc);
  EXPECT_EQ(csc, csr_to_csc(b));
}

}  // namespace
}  // namespace msx
