#include "matrix/ops.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

#include "common/parallel.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/rmat.hpp"
#include "gen/structured.hpp"
#include "matrix/build.hpp"
#include "matrix/convert.hpp"

namespace msx {
namespace {

using IT = int32_t;
using VT = double;

TEST(Ops, RowDegrees) {
  auto a = csr_from_dense<IT, VT>({{1, 1, 0}, {0, 0, 0}, {1, 1, 1}});
  auto deg = row_degrees(a);
  EXPECT_EQ(deg, (std::vector<IT>{2, 0, 3}));
}

TEST(Ops, DegreeOrderDescStableTies) {
  auto a = csr_from_dense<IT, VT>({{1, 0, 0}, {1, 1, 0}, {1, 0, 0}});
  auto perm = degree_order_desc(a);
  EXPECT_EQ(perm, (std::vector<IT>{1, 0, 2}));  // deg 2 first, ties by id
}

// The comparison sort degree_order_desc replaced, kept as its reference.
std::vector<IT> stable_sort_degree_order(const CSRMatrix<IT, VT>& a) {
  std::vector<IT> perm(static_cast<std::size_t>(a.nrows()));
  std::iota(perm.begin(), perm.end(), IT{0});
  std::stable_sort(perm.begin(), perm.end(), [&](IT x, IT y) {
    const IT dx = a.row_nnz(x), dy = a.row_nnz(y);
    if (dx != dy) return dx > dy;
    return x < y;
  });
  return perm;
}

// Graphs with heavy degree ties and isolated vertices, plus n = 0 and n = 1.
std::vector<CSRMatrix<IT, VT>> ordering_cases() {
  std::vector<CSRMatrix<IT, VT>> cases;
  cases.push_back(CSRMatrix<IT, VT>(0, 0));
  cases.push_back(CSRMatrix<IT, VT>(1, 1));
  cases.push_back(csr_from_dense<IT, VT>({{1}}));
  cases.push_back(complete_graph<IT, VT>(9));   // every degree tied
  cases.push_back(star_graph<IT, VT>(40));      // one hub, tied leaves
  cases.push_back(cycle_graph<IT, VT>(17));
  // Isolated vertices between tied ones: every third row emptied.
  cases.push_back(filter(erdos_renyi<IT, VT>(120, 120, 3, 5),
                         [](IT i, IT, const VT&) { return i % 3 != 1; }));
  cases.push_back(rmat<IT, VT>(9, 3));
  return cases;
}

TEST(Ops, DegreeOrderDescMatchesStableSort) {
  for (const auto& g : ordering_cases()) {
    EXPECT_EQ(degree_order_desc(g), stable_sort_degree_order(g))
        << g.nrows() << " rows, " << g.nnz() << " entries";
  }
}

// Naive relabel: gather each new row, sort it, then filter the triangle.
CSRMatrix<IT, VT> naive_permute(const CSRMatrix<IT, VT>& a,
                                const std::vector<IT>& perm) {
  const IT n = a.nrows();
  std::vector<IT> inv(static_cast<std::size_t>(n));
  for (IT i = 0; i < n; ++i) inv[static_cast<std::size_t>(perm[i])] = i;
  std::vector<IT> rowptr{0}, colidx;
  std::vector<VT> values;
  for (IT i = 0; i < n; ++i) {
    const auto src = a.row(perm[static_cast<std::size_t>(i)]);
    std::vector<std::pair<IT, VT>> row;
    for (IT p = 0; p < src.size(); ++p) {
      row.emplace_back(inv[static_cast<std::size_t>(src.cols[p])],
                       src.vals[p]);
    }
    std::sort(row.begin(), row.end());
    for (const auto& [j, v] : row) {
      colidx.push_back(j);
      values.push_back(v);
    }
    rowptr.push_back(static_cast<IT>(colidx.size()));
  }
  return CSRMatrix<IT, VT>(n, n, std::move(rowptr), std::move(colidx),
                           std::move(values));
}

TEST(Ops, RelabelSymmetricMatchesNaiveReference) {
  auto cases = ordering_cases();
  // Unsymmetric, with random values and diagonal entries; the second is
  // large enough to be cut into many row blocks.
  cases.push_back(erdos_renyi<IT, VT>(300, 300, 7, 11));
  cases.push_back(erdos_renyi<IT, VT>(5000, 5000, 20, 12));
  for (const auto& g : cases) {
    std::vector<IT> shuffled(static_cast<std::size_t>(g.nrows()));
    std::iota(shuffled.begin(), shuffled.end(), IT{0});
    std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937(7));
    for (const auto& perm : {degree_order_desc(g), shuffled}) {
      const auto whole = naive_permute(g, perm);
      const auto lower =
          filter(whole, [](IT i, IT j, const VT&) { return j < i; });
      const auto upper =
          filter(whole, [](IT i, IT j, const VT&) { return j > i; });
      EXPECT_EQ(relabel_symmetric(g, perm, RelabelPart::kWhole), whole);
      EXPECT_EQ(permute_symmetric(g, perm), whole);
      EXPECT_EQ(relabel_symmetric(g, perm, RelabelPart::kStrictLower), lower);
      EXPECT_EQ(relabel_symmetric(g, perm, RelabelPart::kStrictUpper), upper);
      EXPECT_EQ(tril_strict(permute_symmetric(g, perm)), lower);
    }
  }
}

TEST(Ops, PermuteSymmetricIsRelabeling) {
  // Path 0-1-2; relabel reversing ids: new0=old2, new1=old1, new2=old0.
  auto p = path_graph<IT, VT>(3);
  std::vector<IT> perm{2, 1, 0};
  auto q = permute_symmetric(p, perm);
  // Reversed path is still a path with same degree sequence.
  EXPECT_EQ(q.row_nnz(0), 1);
  EXPECT_EQ(q.row_nnz(1), 2);
  EXPECT_EQ(q.row_nnz(2), 1);
  EXPECT_EQ(q.row(0).cols[0], 1);
  EXPECT_TRUE(q.validate());
}

TEST(Ops, PermuteSymmetricPreservesTriangleStructure) {
  auto g = erdos_renyi<IT, VT>(50, 50, 5, 9);
  auto sym = symmetrize_pattern(remove_diagonal(g));
  auto perm = degree_order_desc(sym);
  auto relabeled = permute_symmetric(sym, perm);
  EXPECT_TRUE(relabeled.validate());
  EXPECT_EQ(relabeled.nnz(), sym.nnz());
  EXPECT_TRUE(is_pattern_symmetric(relabeled));
  // Degrees must be non-increasing after relabeling.
  for (IT i = 0; i + 1 < relabeled.nrows(); ++i) {
    EXPECT_GE(relabeled.row_nnz(i), relabeled.row_nnz(i + 1));
  }
}

TEST(Ops, TrilTriuPartition) {
  auto g = symmetrize_pattern(erdos_renyi<IT, VT>(40, 40, 6, 4));
  auto l = tril_strict(g);
  std::vector<IT> identity(static_cast<std::size_t>(g.nrows()));
  std::iota(identity.begin(), identity.end(), IT{0});
  auto u = relabel_symmetric(g, identity, RelabelPart::kStrictUpper);
  auto d = filter(g, [](IT i, IT j, const VT&) { return i == j; });
  EXPECT_EQ(l.nnz() + u.nnz() + d.nnz(), g.nnz());
  for (IT i = 0; i < l.nrows(); ++i) {
    for (IT p = 0; p < l.row(i).size(); ++p) {
      EXPECT_LT(l.row(i).cols[p], i);
    }
  }
  // Symmetric pattern: lower and upper halves have equal size.
  EXPECT_EQ(l.nnz(), u.nnz());
}

TEST(Ops, RemoveDiagonal) {
  auto a = csr_from_dense<IT, VT>({{1, 2}, {3, 4}});
  auto b = remove_diagonal(a);
  EXPECT_EQ(b.nnz(), 2u);
  EXPECT_EQ(b.row(0).cols[0], 1);
  EXPECT_EQ(b.row(1).cols[0], 0);
}

TEST(Ops, SponesSetsAllValuesOne) {
  auto a = csr_from_dense<IT, VT>({{5, 0}, {0, -3}});
  auto b = spones(a);
  for (VT v : b.values()) EXPECT_EQ(v, 1.0);
  EXPECT_TRUE(pattern_equal(a, b));
}

TEST(Ops, EwiseAddUnionAndSum) {
  auto a = csr_from_dense<IT, VT>({{1, 0, 2}, {0, 0, 0}});
  auto b = csr_from_dense<IT, VT>({{0, 3, 4}, {5, 0, 0}});
  auto c = ewise_add(a, b);
  auto expect = csr_from_dense<IT, VT>({{1, 3, 6}, {5, 0, 0}});
  EXPECT_EQ(c, expect);
}

TEST(Ops, EwiseMultIntersection) {
  auto a = csr_from_dense<IT, VT>({{2, 0, 3}, {1, 1, 0}});
  auto b = csr_from_dense<IT, VT>({{4, 5, 0}, {0, 2, 2}});
  auto c = ewise_mult(a, b);
  auto expect = csr_from_dense<IT, VT>({{8, 0, 0}, {0, 2, 0}});
  EXPECT_EQ(c, expect);
}

TEST(Ops, EwiseShapeMismatchThrows) {
  CSRMatrix<IT, VT> a(2, 2), b(2, 3);
  EXPECT_THROW(ewise_add(a, b), std::invalid_argument);
  EXPECT_THROW(ewise_mult(a, b), std::invalid_argument);
}

TEST(Ops, SymmetrizeAndCheck) {
  auto a = csr_from_dense<IT, VT>({{0, 1, 0}, {0, 0, 0}, {1, 0, 0}});
  EXPECT_FALSE(is_pattern_symmetric(a));
  auto s = symmetrize_pattern(a);
  EXPECT_TRUE(is_pattern_symmetric(s));
  EXPECT_EQ(s.nnz(), 4u);  // (0,1),(1,0),(0,2),(2,0)
}

TEST(Ops, ReduceSum) {
  auto a = csr_from_dense<IT, VT>({{1.5, 0}, {2.5, 3.0}});
  EXPECT_DOUBLE_EQ(reduce_sum(a), 7.0);
  CSRMatrix<IT, VT> empty(3, 3);
  EXPECT_DOUBLE_EQ(reduce_sum(empty), 0.0);
}

TEST(Ops, PatternEqualIgnoresValues) {
  auto a = csr_from_dense<IT, VT>({{1, 0}, {0, 2}});
  auto b = csr_from_dense<IT, VT>({{9, 0}, {0, 8}});
  EXPECT_TRUE(pattern_equal(a, b));
  auto c = csr_from_dense<IT, VT>({{1, 1}, {0, 2}});
  EXPECT_FALSE(pattern_equal(a, c));
}

TEST(Ops, FilterByValue) {
  auto a = csr_from_dense<IT, VT>({{1, 5}, {3, 2}});
  auto big = filter(a, [](IT, IT, const VT& v) { return v >= 3; });
  auto expect = csr_from_dense<IT, VT>({{0, 5}, {3, 0}});
  EXPECT_EQ(big, expect);
}

// Serial two-pass filter: the row-block version must match it bit for bit.
template <class Pred>
CSRMatrix<IT, VT> serial_filter(const CSRMatrix<IT, VT>& a, Pred pred) {
  std::vector<Triple<IT, VT>> kept;
  for (IT i = 0; i < a.nrows(); ++i) {
    const auto row = a.row(i);
    for (IT p = 0; p < row.size(); ++p) {
      if (pred(i, row.cols[p], row.vals[p])) {
        kept.push_back({i, row.cols[p], row.vals[p]});
      }
    }
  }
  return csr_from_triples<IT, VT>(a.nrows(), a.ncols(), std::move(kept),
                                  DuplicatePolicy::kLast);
}

TEST(Ops, FilterAndSplitMatchSerialReference) {
  // Values vary along each row, so a misplaced entry shows in them too.
  auto g = rmat<IT, VT>(10, 7);
  auto vals = g.mutable_values();
  for (std::size_t p = 0; p < vals.size(); ++p) {
    vals[p] = static_cast<VT>(p % 97);
  }
  const auto pred = [](IT i, IT j, const VT& v) {
    return (i + j) % 3 != 0 && v < 60;
  };
  const auto rest = [&](IT i, IT j, const VT& v) { return !pred(i, j, v); };
  std::vector<CSRMatrix<IT, VT>> cases = ordering_cases();
  cases.push_back(g);
  cases.push_back(CSRMatrix<IT, VT>(5, 3));  // rectangular, empty
  for (const int threads : {1, 2, 4}) {
    ScopedNumThreads guard(threads);
    for (const auto& a : cases) {
      const auto want_kept = serial_filter(a, pred);
      const auto want_rest = serial_filter(a, rest);
      EXPECT_EQ(filter(a, pred), want_kept) << threads << " threads";
      const auto [kept, dropped] = split(a, pred);
      EXPECT_EQ(kept, want_kept) << threads << " threads";
      EXPECT_EQ(dropped, want_rest) << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace msx
