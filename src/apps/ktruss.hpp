// k-truss decomposition via iterated Masked SpGEMM (paper §8.3).
//
// The k-truss of a graph is the maximal subgraph in which every edge is
// supported by at least k-2 triangles. The paper uses Masked SpGEMM "in an
// iterative manner where the graph keeps changing due to pruning of some
// edges". Round 1 is its product: per-edge support S = A .* (A·A) on the
// plus-pair semiring, with the edge set as the mask. Later rounds do not
// recompute it. Each prune splits the edge set E into the kept edges K and
// the dropped edges D (E = K + D), and every wedge that lost an edge lies in
// exactly one of two small delta products:
//
//   S' = S|K - K .* (D·E) - K .* (K·D)
//
// All of it is integer arithmetic, so the truss is bit-identical to
// recomputing K .* (K·K) every round. The paper's k-truss metrics (Figs.
// 12–14) are the time spent in the products and the sum of their flops over
// that time; here the products are the round-1 product plus the delta
// products actually run.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "client/client.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "core/flops.hpp"
#include "core/plan.hpp"
#include "matrix/ops.hpp"
#include "obs/trace.hpp"
#include "semiring/semirings.hpp"

namespace msx {

template <class IT>
struct KTrussResult {
  int iterations = 0;               // support computations (rounds)
  std::size_t remaining_edges = 0;  // directed edge slots (nnz of pattern)
  double seconds_spgemm = 0.0;      // total time in Masked SpGEMM calls
  double seconds_total = 0.0;
  // Summed flops of the products actually run: the round-1 A·A, then each
  // delta round's D·E and K·D (the recompute loops of the session overload
  // and StreamingKTruss: one A·A per round).
  std::size_t multiplies = 0;
  MaskedAlgo algo = MaskedAlgo::kAuto;  // resolved once by the plan
  CSRMatrix<IT, std::int64_t> truss;  // final k-truss (values = 1)
};

namespace detail {

// Subtracts the wedges a prune removed from the support of the kept edges.
// `lost_first` and `lost_second` are K .* (D·E) and K .* (K·D); their
// patterns lie inside kept's.
template <class IT>
CSRMatrix<IT, std::int64_t> subtract_lost_wedges(
    CSRMatrix<IT, std::int64_t> kept,
    const CSRMatrix<IT, std::int64_t>& lost_first,
    const CSRMatrix<IT, std::int64_t>& lost_second) {
  const auto cols = kept.colidx();
  const auto rowptr = kept.rowptr();
  const auto support = kept.mutable_values();
  parallel_for(IT{0}, kept.nrows(), Schedule::kDynamic, [&](IT i) {
    for (const auto* lost : {&lost_first, &lost_second}) {
      const auto row = lost->row(i);
      auto p = static_cast<std::size_t>(rowptr[static_cast<std::size_t>(i)]);
      for (IT t = 0; t < row.size(); ++t) {
        while (cols[p] != row.cols[t]) {
          ++p;
          MSX_ASSERT(p < static_cast<std::size_t>(
                             rowptr[static_cast<std::size_t>(i) + 1]));
        }
        support[p] -= row.vals[t];
      }
    }
  }, /*chunk=*/256);
  return kept;
}

// The k-truss round loop over a support product:
// product(A, B, M) -> M .* (A·B) on PlusPair<int64>. Round 1 calls it as
// (A, A, A). Every later round calls it as (D, E, K), then (K, D, K), where
// E is the edge set before the prune, K the kept edges and D the dropped
// ones; a product may tell the shapes apart by operand aliasing. The edge
// set carries each edge's support as its value. seconds_spgemm times the
// product calls; `multiplies` sums their flops.
template <class IT, class VT, class Product>
KTrussResult<IT> ktruss_rounds(const CSRMatrix<IT, VT>& graph, int k,
                               Product&& product) {
  check_arg(graph.nrows() == graph.ncols(), "ktruss: matrix must be square");
  check_arg(k >= 3, "ktruss: k must be at least 3");
  WallTimer total;
  using Mat = CSRMatrix<IT, std::int64_t>;
  const auto support_needed = static_cast<std::int64_t>(k - 2);

  KTrussResult<IT> result;
  const auto timed = [&](const Mat& a, const Mat& b, const Mat& m) {
    result.multiplies += total_flops(a, b);
    WallTimer kernel;
    Mat c = product(a, b, m);
    result.seconds_spgemm += kernel.seconds();
    return c;
  };

  // Round 1. S omits the edges in no triangle; no wedge runs through them,
  // so they drop out of every later product, and E = S from here on.
  Mat edges;
  std::size_t live = graph.nnz();  // edges whose support was last computed
  {
    const Mat a(graph.nrows(), graph.ncols(),
                std::vector<IT>(graph.rowptr().begin(), graph.rowptr().end()),
                std::vector<IT>(graph.colidx().begin(), graph.colidx().end()),
                std::vector<std::int64_t>(graph.nnz(), 1));
    result.iterations = 1;
    edges = timed(a, a, a);
  }
  while (true) {
    Mat kept, dropped;
    {
      obs::ScopedSpan span("ktruss.prune");
      std::tie(kept, dropped) =
          split(edges, [&](IT, IT, const std::int64_t& support) {
            return support >= support_needed;
          });
    }
    // Fixed point: nothing dropped since support was last computed.
    const bool converged = kept.nnz() == live;
    live = kept.nnz();
    if (converged || live == 0) {
      edges = std::move(kept);
      break;
    }
    ++result.iterations;
    const Mat lost_first = timed(dropped, edges, kept);
    const Mat lost_second = timed(kept, dropped, kept);
    obs::ScopedSpan span("ktruss.prune");
    edges = subtract_lost_wedges(std::move(kept), lost_first, lost_second);
  }

  std::fill(edges.mutable_values().begin(), edges.mutable_values().end(),
            std::int64_t{1});
  result.remaining_edges = edges.nnz();
  result.truss = std::move(edges);
  result.seconds_total = total.seconds();
  return result;
}

}  // namespace detail

// `graph` must have a symmetric pattern without self-loops. k >= 3.
template <class IT, class VT>
KTrussResult<IT> ktruss(const CSRMatrix<IT, VT>& graph, int k,
                        const MaskedOptions& opts = {}) {
  using SR = PlusPair<std::int64_t>;
  using Mat = CSRMatrix<IT, std::int64_t>;
  ScopedNumThreads threads(opts.threads);

  // Round 1 resolves the family against the whole graph (kAuto); both delta
  // products are pinned to it. Each delta shape keeps one plan that is
  // rebound every round, so its per-thread accumulators stay warm. Plan
  // setup (resolution, operand copies, B's CSC for the pull-based families)
  // stays outside seconds_spgemm, as in triangle_count.
  MaskedOptions pinned = opts;
  std::optional<MaskedPlan<SR, IT, std::int64_t>> dropped_first, kept_first;
  double setup_seconds = 0.0;
  const auto product = [&](const Mat& a, const Mat& b, const Mat& m) {
    if (&a == &b) {  // round 1: A .* (A·A)
      auto plan = masked_plan<SR>(a, a, a, opts);
      pinned.algo = plan.algo();
      setup_seconds += plan.setup_seconds();
      return plan.execute();
    }
    auto& plan = &a == &m ? kept_first : dropped_first;
    if (plan) {
      plan->rebind(a, b, m);
    } else {
      plan.emplace(a, b, m, pinned);
    }
    setup_seconds += plan->setup_seconds();
    return plan->execute();
  };
  auto result = detail::ktruss_rounds(graph, k, product);
  result.algo = pinned.algo;
  result.seconds_spgemm -= setup_seconds;
  return result;
}

// Client-session round loop (ISSUE 5): each iteration registers the current
// edge set as a structure — A, B and the mask all alias it, so a sharded
// backend ships the (shrinking) graph once per round and the submit itself
// is nothing but flags — computes per-edge support through the session, and
// releases the structure after pruning. One code path serves the local
// runtime and a shard fleet. Every round recomputes the full A .* (A·A):
// the delta rounds of the local overload would need two registrations per
// round.
template <class IT, class VT>
KTrussResult<IT> ktruss(
    const CSRMatrix<IT, VT>& graph, int k,
    client::Session<PlusPair<std::int64_t>, IT, std::int64_t>& session,
    const MaskedOptions& opts = {}) {
  check_arg(graph.nrows() == graph.ncols(), "ktruss: matrix must be square");
  check_arg(k >= 3, "ktruss: k must be at least 3");
  WallTimer total;

  const auto support_needed = static_cast<std::int64_t>(k - 2);
  using Mat = CSRMatrix<IT, std::int64_t>;
  auto a = std::make_shared<const Mat>(
      graph.nrows(), graph.ncols(),
      std::vector<IT>(graph.rowptr().begin(), graph.rowptr().end()),
      std::vector<IT>(graph.colidx().begin(), graph.colidx().end()),
      std::vector<std::int64_t>(graph.nnz(), 1));

  KTrussResult<IT> result;
  result.algo = opts.algo;  // resolution happens backend-side per round
  client::SubmitOptions sopts;
  sopts.masked = opts;
  while (true) {
    ++result.iterations;
    result.multiplies += total_flops(*a, *a);

    auto handle = session.register_structure(
        client::StructureSpec<IT, std::int64_t>(a).self_mask());
    WallTimer kernel;
    auto res = session.submit(a, handle, sopts).get();
    result.seconds_spgemm += kernel.seconds();
    session.release(handle);
    auto support = std::move(res.value());  // throws on typed failure

    auto pruned = filter(support, [&](IT, IT, const std::int64_t& v) {
      return v >= support_needed;
    });
    const bool converged = (pruned.nnz() == a->nnz());
    a = std::make_shared<const Mat>(spones(pruned));
    if (converged || a->nnz() == 0) break;
  }

  result.remaining_edges = a->nnz();
  result.truss = *a;
  result.seconds_total = total.seconds();
  return result;
}

}  // namespace msx
