// The distributed 2D layer in isolation (ISSUE 8 tentpole): panel planning
// over cost prefixes, column/row/delta slicing, replica placement on the
// consistent ring, and the panel-grid merge — including its seam validation,
// which is what catches a mis-sliced panel before it silently corrupts a
// merged product.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/delta.hpp"
#include "gen/erdos_renyi.hpp"
#include "matrix/csr.hpp"
#include "service/distributed.hpp"
#include "service/routing.hpp"

using namespace msx;
using namespace msx::service;

using IT = int32_t;
using VT = double;
using Mat = CSRMatrix<IT, VT>;
using View = CSRView<IT, VT>;

namespace {

View view_of(const Mat& m) {
  return View{m.nrows(), m.ncols(), m.rowptr(), m.colidx(), m.values()};
}

// Brute-force reference slice: keep entries with column in [lo, hi).
Mat ref_slice_cols(const Mat& m, std::int64_t lo, std::int64_t hi) {
  std::vector<IT> rowptr{0}, colidx;
  std::vector<VT> values;
  for (IT i = 0; i < m.nrows(); ++i) {
    const auto row = m.row(i);
    for (IT t = 0; t < row.size(); ++t) {
      if (row.cols[t] >= static_cast<IT>(lo) &&
          row.cols[t] < static_cast<IT>(hi)) {
        colidx.push_back(row.cols[t]);
        values.push_back(row.vals[t]);
      }
    }
    rowptr.push_back(static_cast<IT>(colidx.size()));
  }
  return Mat(m.nrows(), m.ncols(), std::move(rowptr), std::move(colidx),
             std::move(values));
}

}  // namespace

// --- planning ---------------------------------------------------------------

TEST(Distributed2D, PanelBoundsCoverAndBalance) {
  // 100 items of unit cost -> 4 panels of 25 each.
  std::vector<std::uint64_t> prefix(101);
  std::iota(prefix.begin(), prefix.end(), 0u);
  const auto bounds = panel_bounds_from_cost(prefix, 4);
  ASSERT_EQ(bounds.size(), 5u);
  EXPECT_EQ(bounds.front(), 0);
  EXPECT_EQ(bounds.back(), 100);
  for (std::size_t k = 0; k + 1 < bounds.size(); ++k) {
    EXPECT_LT(bounds[k], bounds[k + 1]);
    EXPECT_NEAR(static_cast<double>(bounds[k + 1] - bounds[k]), 25.0, 5.0);
  }
}

TEST(Distributed2D, PanelBoundsDegenerateInputs) {
  // Empty cost domain -> one trivial panel.
  std::vector<std::uint64_t> empty{0};
  const auto b0 = panel_bounds_from_cost(empty, 4);
  ASSERT_GE(b0.size(), 2u);
  EXPECT_EQ(b0.front(), 0);
  EXPECT_EQ(b0.back(), 0);

  // More panels than items still yields ascending bounds covering [0, n].
  std::vector<std::uint64_t> tiny{0, 1, 2};
  const auto b1 = panel_bounds_from_cost(tiny, 8);
  EXPECT_EQ(b1.front(), 0);
  EXPECT_EQ(b1.back(), 2);
  for (std::size_t k = 0; k + 1 < b1.size(); ++k) EXPECT_LE(b1[k], b1[k + 1]);
}

TEST(Distributed2D, ColPanelsSplitByColumnMass) {
  const auto b = erdos_renyi<IT, VT>(200, 160, 6, 42);
  const auto bounds = plan_col_panels(b, 4);
  ASSERT_GE(bounds.size(), 2u);
  EXPECT_EQ(bounds.front(), 0);
  EXPECT_EQ(bounds.back(), 160);
  // Panel nnz within 2x of each other on this near-uniform matrix.
  std::vector<std::int64_t> mass;
  for (std::size_t k = 0; k + 1 < bounds.size(); ++k) {
    const auto p = slice_cols(b, bounds[k], bounds[k + 1]);
    mass.push_back(static_cast<std::int64_t>(p.nnz()));
  }
  const auto [lo, hi] = std::minmax_element(mass.begin(), mass.end());
  EXPECT_LE(*hi, 2 * std::max<std::int64_t>(*lo, 1));
}

TEST(Distributed2D, RowPanelsCoverAllRows) {
  const auto a = erdos_renyi<IT, VT>(150, 120, 5, 7);
  const auto b = erdos_renyi<IT, VT>(120, 120, 5, 8);
  const auto bounds = plan_row_panels(a, b, 3);
  ASSERT_GE(bounds.size(), 2u);
  EXPECT_EQ(bounds.front(), 0);
  EXPECT_EQ(bounds.back(), 150);
  for (std::size_t k = 0; k + 1 < bounds.size(); ++k) {
    EXPECT_LE(bounds[k], bounds[k + 1]);
  }
}

// --- slicing ----------------------------------------------------------------

TEST(Distributed2D, SliceColsMatchesBruteForceAndKeepsShape) {
  const auto m = erdos_renyi<IT, VT>(80, 64, 6, 11);
  const std::int64_t cuts[] = {0, 13, 40, 64};
  std::size_t total = 0;
  for (int k = 0; k < 3; ++k) {
    const auto p = slice_cols(m, cuts[k], cuts[k + 1]);
    EXPECT_EQ(p.nrows(), m.nrows());  // full shape, global columns
    EXPECT_EQ(p.ncols(), m.ncols());
    EXPECT_TRUE(p == ref_slice_cols(m, cuts[k], cuts[k + 1]));
    total += p.nnz();
  }
  EXPECT_EQ(total, m.nnz());  // disjoint ranges partition every entry

  // Empty range is a valid (empty) panel.
  const auto e = slice_cols(m, 20, 20);
  EXPECT_EQ(e.nnz(), 0u);
  EXPECT_EQ(e.nrows(), m.nrows());
}

TEST(Distributed2D, SliceRowsRebasesToRowZero) {
  const auto m = erdos_renyi<IT, VT>(60, 50, 5, 21);
  const auto p = slice_rows(m, 17, 41);
  ASSERT_EQ(p.nrows(), 24);
  EXPECT_EQ(p.ncols(), m.ncols());
  EXPECT_EQ(p.rowptr()[0], 0);
  for (IT li = 0; li < p.nrows(); ++li) {
    const auto got = p.row(li);
    const auto want = m.row(static_cast<IT>(17 + li));
    ASSERT_EQ(got.size(), want.size());
    for (IT t = 0; t < got.size(); ++t) {
      EXPECT_EQ(got.cols[t], want.cols[t]);
      EXPECT_EQ(got.vals[t], want.vals[t]);
    }
  }
}

TEST(Distributed2D, SliceDeltaColsPartitionsEdits) {
  EdgeDelta<IT, VT> d;
  d.insert(3, 5, 1.0);
  d.insert(7, 20, 2.0);
  d.insert(1, 33, 3.0);
  d.erase(2, 5);
  d.erase(9, 33);

  const auto left = slice_delta_cols(d, 0, 16);
  EXPECT_EQ(left.ins_row.size(), 1u);
  EXPECT_EQ(left.ins_col[0], 5);
  EXPECT_EQ(left.del_row.size(), 1u);

  const auto mid = slice_delta_cols(d, 16, 32);
  EXPECT_EQ(mid.ins_row.size(), 1u);
  EXPECT_EQ(mid.ins_col[0], 20);
  EXPECT_EQ(mid.del_row.size(), 0u);

  const auto right = slice_delta_cols(d, 32, 64);
  EXPECT_EQ(right.ins_row.size(), 1u);
  EXPECT_EQ(right.del_row.size(), 1u);

  // Untouched panel: empty delta (still shipped so versions stay coherent).
  const auto none = slice_delta_cols(d, 40, 48);
  EXPECT_TRUE(none.ins_row.empty() && none.del_row.empty());
}

// --- replica placement ------------------------------------------------------

TEST(Distributed2D, ReplicaShardsDistinctDeterministicCapped) {
  const ConsistentHashRing ring(5, 64);
  const std::uint64_t point = 0x9e3779b97f4a7c15ull;
  const auto r3 = replica_shards(ring, point, 3);
  ASSERT_EQ(r3.size(), 3u);
  // Distinct shards, and the first is exactly the unskipped pick.
  EXPECT_EQ(r3[0], ring.pick(point, std::vector<char>(5, 0)));
  EXPECT_NE(r3[0], r3[1]);
  EXPECT_NE(r3[1], r3[2]);
  EXPECT_NE(r3[0], r3[2]);
  // Deterministic across ring instances (clients agree on placement).
  const ConsistentHashRing ring2(5, 64);
  EXPECT_EQ(replica_shards(ring2, point, 3), r3);
  // Capped at the fleet size; nonsense replica counts clamp to 1.
  EXPECT_EQ(replica_shards(ring, point, 99).size(), 5u);
  EXPECT_EQ(replica_shards(ring, point, 0).size(), 1u);
}

// --- merging ----------------------------------------------------------------

TEST(Distributed2D, MergeGridReassemblesExactly) {
  const auto m = erdos_renyi<IT, VT>(90, 70, 6, 33);
  // 3 row panels x 3 col panels, deliberately uneven (one empty col range).
  const std::vector<std::int64_t> row_start{0, 30, 31, 90};
  const std::int64_t col_cut[] = {0, 25, 25, 70};
  std::vector<Mat> panels;  // keeps storage alive behind the views
  for (std::size_t r = 0; r + 1 < row_start.size(); ++r) {
    const auto rows = slice_rows(m, row_start[r], row_start[r + 1]);
    for (int j = 0; j < 3; ++j) {
      panels.push_back(slice_cols(rows, col_cut[j], col_cut[j + 1]));
    }
  }
  std::vector<View> slots;
  for (const auto& p : panels) slots.push_back(view_of(p));
  const auto merged = merge_panel_grid<IT, VT>(
      std::span<const View>(slots), std::span<const std::int64_t>(row_start),
      m.ncols());
  EXPECT_TRUE(merged == m);
}

TEST(Distributed2D, MergeSingleRowAndSingleColGrids) {
  const auto m = erdos_renyi<IT, VT>(40, 48, 5, 9);
  {
    // 1 x N: column panels only.
    const std::vector<std::int64_t> row_start{0, 40};
    std::vector<Mat> panels{slice_cols(m, 0, 16), slice_cols(m, 16, 48)};
    std::vector<View> slots{view_of(panels[0]), view_of(panels[1])};
    const auto merged = merge_panel_grid<IT, VT>(
        std::span<const View>(slots), std::span<const std::int64_t>(row_start),
        m.ncols());
    EXPECT_TRUE(merged == m);
  }
  {
    // N x 1: row panels only.
    const std::vector<std::int64_t> row_start{0, 11, 40};
    std::vector<Mat> panels{slice_rows(m, 0, 11), slice_rows(m, 11, 40)};
    std::vector<View> slots{view_of(panels[0]), view_of(panels[1])};
    const auto merged = merge_panel_grid<IT, VT>(
        std::span<const View>(slots), std::span<const std::int64_t>(row_start),
        m.ncols());
    EXPECT_TRUE(merged == m);
  }
}

TEST(Distributed2D, MergeRejectsShapeMismatchAndOverlap) {
  const auto m = erdos_renyi<IT, VT>(30, 30, 4, 5);
  const std::vector<std::int64_t> row_start{0, 30};

  const auto merge = [&](const std::vector<View>& slots) {
    return merge_panel_grid<IT, VT>(std::span<const View>(slots),
                                    std::span<const std::int64_t>(row_start),
                                    m.ncols());
  };
  // Wrong row count in a slot.
  {
    const auto bad = slice_rows(m, 0, 29);
    const std::vector<View> slots{view_of(bad)};
    EXPECT_THROW(merge(slots), std::invalid_argument);
  }
  // Overlapping column ranges: both "panels" carry the full matrix, so the
  // second panel's first column ties the first panel's last -> seam check.
  {
    const std::vector<View> slots{view_of(m), view_of(m)};
    EXPECT_THROW(merge(slots), std::invalid_argument);
  }
}
