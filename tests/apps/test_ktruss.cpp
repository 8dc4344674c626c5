#include "apps/ktruss.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/parallel.hpp"
#include "core/reference.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/rmat.hpp"
#include "gen/structured.hpp"
#include "matrix/build.hpp"
#include "matrix/ops.hpp"
#include "test_helpers_apps.hpp"

namespace msx {
namespace {

using IT = int32_t;
using VT = double;

// The recompute loop ktruss() replaces: a full support product A .* (A·A)
// every round on the serial reference kernel, pruning until a fixed point.
struct RecomputeTruss {
  CSRMatrix<IT, std::int64_t> truss;
  std::size_t remaining_edges = 0;
  int iterations = 0;
  int pruning_rounds = 0;  // rounds that dropped at least one edge
};

RecomputeTruss recompute_ktruss(const CSRMatrix<IT, VT>& graph, int k) {
  const auto need = static_cast<std::int64_t>(k - 2);
  CSRMatrix<IT, std::int64_t> a(
      graph.nrows(), graph.ncols(),
      std::vector<IT>(graph.rowptr().begin(), graph.rowptr().end()),
      std::vector<IT>(graph.colidx().begin(), graph.colidx().end()),
      std::vector<std::int64_t>(graph.nnz(), 1));
  RecomputeTruss r;
  while (true) {
    ++r.iterations;
    const auto support =
        reference_masked_spgemm<PlusPair<std::int64_t>>(a, a, a);
    const auto pruned = filter(support, [&](IT, IT, const std::int64_t& v) {
      return v >= need;
    });
    const bool converged = (pruned.nnz() == a.nnz());
    if (!converged) ++r.pruning_rounds;
    a = spones(pruned);
    if (converged || a.nnz() == 0) break;
  }
  r.remaining_edges = a.nnz();
  r.truss = std::move(a);
  return r;
}

// ktruss() against the recompute oracle for every family; returns the
// oracle's result.
RecomputeTruss expect_matches_recompute(const CSRMatrix<IT, VT>& g, int k,
                                        const std::string& label) {
  auto want = recompute_ktruss(g, k);
  for (auto algo : msx::testing::all_algos()) {
    MaskedOptions o;
    o.algo = algo;
    const auto got = ktruss(g, k, o);
    EXPECT_EQ(got.truss, want.truss) << label << " " << to_string(algo);
    EXPECT_EQ(got.remaining_edges, want.remaining_edges)
        << label << " " << to_string(algo);
    EXPECT_EQ(got.iterations, want.iterations)
        << label << " " << to_string(algo);
  }
  return want;
}

// Symmetric, loop-free Erdős–Rényi graph.
CSRMatrix<IT, VT> er_graph(IT n, IT degree, std::uint64_t seed) {
  return remove_diagonal(
      symmetrize_pattern(erdos_renyi<IT, VT>(n, n, degree, seed)));
}

TEST(KTruss, CompleteGraphIsItsOwnTruss) {
  // Every edge of K6 sits in 4 triangles: K6 is a 6-truss (support >= k-2
  // for k <= 6), so k=5 keeps everything.
  auto k6 = complete_graph<IT, VT>(6);
  auto r = ktruss(k6, 5);
  EXPECT_EQ(r.remaining_edges, k6.nnz());
  EXPECT_EQ(r.iterations, 1);
}

TEST(KTruss, CompleteGraphVanishesAboveThreshold) {
  auto k5 = complete_graph<IT, VT>(5);
  auto r = ktruss(k5, 6);  // needs support 4; K5 edges have 3
  EXPECT_EQ(r.remaining_edges, 0u);
}

TEST(KTruss, TriangleFreeGraphVanishes) {
  auto g = grid2d<IT, VT>(8, 8);
  auto r = ktruss(g, 3);  // even k=3 needs support 1
  EXPECT_EQ(r.remaining_edges, 0u);
}

TEST(KTruss, PeelsPendantTriangle) {
  // Two triangles sharing no edge, connected by a bridge; plus a K5 core.
  // k=4 (support >= 2) kills isolated triangles but keeps K5.
  std::vector<std::pair<IT, IT>> edges;
  // K5 on 0..4
  for (IT i = 0; i < 5; ++i) {
    for (IT j = i + 1; j < 5; ++j) edges.push_back({i, j});
  }
  // pendant triangle 5-6-7 bridged from 0.
  edges.push_back({5, 6});
  edges.push_back({6, 7});
  edges.push_back({5, 7});
  edges.push_back({0, 5});
  auto g = csr_from_edges<IT, VT>(8, 8, [&] {
    std::vector<std::pair<IT, IT>> both;
    for (auto [u, v] : edges) {
      both.push_back({u, v});
      both.push_back({v, u});
    }
    return both;
  }());
  auto r = ktruss(g, 4);
  EXPECT_EQ(r.remaining_edges, 20u);  // the K5 only
  // All remaining vertices are in 0..4.
  for (IT i = 5; i < 8; ++i) EXPECT_EQ(r.truss.row_nnz(i), 0);
}

TEST(KTruss, IterativePeelingTakesMultipleRounds) {
  // A chain of triangles: each triangle edge has support 1 except shared
  // edges; k=4 forces cascading removal over >1 iteration on suitable
  // structures. Use an RMAT graph and simply check iteration accounting.
  auto g = rmat<IT, VT>(7, 1);
  auto r = ktruss(g, 5);
  EXPECT_GE(r.iterations, 1);
  EXPECT_GT(r.multiplies, 0u);
  EXPECT_GE(r.seconds_total, r.seconds_spgemm);
}

TEST(KTruss, ResultIsAFixedPoint) {
  auto g = rmat<IT, VT>(7, 2);
  auto r = ktruss(g, 5);
  if (r.remaining_edges > 0) {
    // Running again on the result must change nothing.
    auto again = ktruss(r.truss, 5);
    EXPECT_EQ(again.remaining_edges, r.remaining_edges);
    EXPECT_EQ(again.iterations, 1);
  }
}

TEST(KTruss, SymmetryPreserved) {
  auto g = rmat<IT, VT>(7, 3);
  auto r = ktruss(g, 4);
  if (r.remaining_edges > 0) {
    EXPECT_TRUE(is_pattern_symmetric(r.truss));
  }
}

TEST(KTruss, AllSchemesAgree) {
  auto g = rmat<IT, VT>(7, 4);
  const auto want = ktruss(g, 5).remaining_edges;
  for (auto algo : msx::testing::all_algos()) {
    MaskedOptions o;
    o.algo = algo;
    EXPECT_EQ(ktruss(g, 5, o).remaining_edges, want) << to_string(algo);
  }
}

TEST(KTruss, DeltaRoundsMatchRecomputeOracle) {
  std::vector<std::pair<std::string, CSRMatrix<IT, VT>>> graphs;
  for (int scale = 8; scale <= 10; ++scale) {
    graphs.emplace_back("rmat-" + std::to_string(scale),
                        rmat<IT, VT>(scale, 11));
  }
  graphs.emplace_back("er-400", er_graph(400, 12, 3));
  graphs.emplace_back("er-1000", er_graph(1000, 24, 5));
  const auto k6 = complete_graph<IT, VT>(6);
  const auto grid = grid2d<IT, VT>(8, 8);
  for (const int threads : {0, 1}) {  // OpenMP default, then serial
    ScopedNumThreads guard(threads);
    const std::string mode = threads == 1 ? " serial" : " openmp";
    for (const auto& [name, g] : graphs) {
      for (int k = 3; k <= 6; ++k) {
        const auto label = name + " k=" + std::to_string(k) + mode;
        const auto want = expect_matches_recompute(g, k, label);
        if (name == "rmat-10" && k == 6) {  // a cascade of pruning rounds
          EXPECT_GE(want.pruning_rounds, 3);
          EXPECT_GT(want.remaining_edges, 0u);
        }
      }
    }
    // A first round that prunes nothing, and a graph that vanishes.
    EXPECT_EQ(expect_matches_recompute(k6, 5, "K6" + mode).pruning_rounds, 0);
    EXPECT_EQ(expect_matches_recompute(grid, 3, "grid" + mode).remaining_edges,
              0u);
  }
}

TEST(KTruss, RejectsBadK) {
  auto g = complete_graph<IT, VT>(4);
  EXPECT_THROW(ktruss(g, 2), std::invalid_argument);
}

}  // namespace
}  // namespace msx
