// Triangle counting via Masked SpGEMM (paper §8.2).
//
// Vertices are relabeled in non-increasing degree order (Lumsdaine et al.'s
// optimization, cited by the paper), L is the strictly-lower-triangular part
// of the relabeled adjacency matrix, and the triangle count is
// sum(L .* (L·L)) on the plus-pair semiring — "known to be among the fastest
// ways to compute Triangle Counting". The masked product, reduced to its sum
// without building C (MaskedPlan::execute_sum), is the measured kernel; the
// degree order and the fused relabel-and-extract pass are reported
// separately (the "tc.prep" span).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "client/client.hpp"
#include "common/timer.hpp"
#include "core/flops.hpp"
#include "core/plan.hpp"
#include "matrix/ops.hpp"
#include "obs/trace.hpp"
#include "semiring/semirings.hpp"

namespace msx {

struct TriCountResult {
  std::uint64_t triangles = 0;
  double seconds_spgemm = 0.0;  // the Masked SpGEMM only (what §8.2 reports)
  double seconds_total = 0.0;   // including relabel + extraction + reduction
  std::size_t multiplies = 0;   // flops of the masked product's operands
  MaskedAlgo algo = MaskedAlgo::kAuto;  // resolved once by the plan
};

// Which masked formulation counts each triangle exactly once. All are
// mathematically equivalent; they trade the shapes of the mask and inputs
// (Azad et al. / Wolf et al., cited by the paper):
//   kLL : sum(L .* (L·L))  — the paper's choice (§8.2)
//   kLU : sum(L .* (L·U))  — wedge through the middle vertex
//   kUU : sum(U .* (U·U))  — the upper-triangular mirror
enum class TriCountVariant {
  kLL,
  kLU,
  kUU,
};

// `graph` must have a symmetric pattern without self-loops (use
// symmetrize_pattern / remove_diagonal to normalize arbitrary input).
template <class IT, class VT>
TriCountResult triangle_count(const CSRMatrix<IT, VT>& graph,
                              const MaskedOptions& opts = {},
                              TriCountVariant variant = TriCountVariant::kLL) {
  check_arg(graph.nrows() == graph.ncols(),
            "triangle_count: adjacency matrix must be square");
  WallTimer total;

  // L and U come straight from the graph in one relabel pass each; the
  // relabeled whole matrix is never built.
  CSRMatrix<IT, VT> lower, upper;
  {
    obs::ScopedSpan span("tc.prep");
    const auto perm = degree_order_desc(graph);
    if (variant != TriCountVariant::kUU) {
      lower = relabel_symmetric(graph, perm, RelabelPart::kStrictLower);
    }
    if (variant != TriCountVariant::kLL) {
      upper = relabel_symmetric(graph, perm, RelabelPart::kStrictUpper);
    }
  }

  // Plan/execute split: plan construction carries the setup the paper keeps
  // outside the timed kernel (algorithm resolution; B's CSC copy for the
  // pull-based families), so seconds_spgemm times the masked product alone.
  // Only the sum of L .* (L·L) is used, so the plan reduces it in place of
  // building C. The mask is always the left operand.
  TriCountResult result;
  const auto count = [&](const CSRMatrix<IT, VT>& a,
                         const CSRMatrix<IT, VT>& b) {
    result.multiplies = total_flops(a, b);
    auto plan = masked_plan<PlusPair<std::int64_t>>(a, b, a, opts);
    result.algo = plan.algo();
    WallTimer kernel;
    const std::int64_t sum = plan.execute_sum();
    result.seconds_spgemm = kernel.seconds();
    return static_cast<std::uint64_t>(sum);
  };
  switch (variant) {
    case TriCountVariant::kLL:
      result.triangles = count(lower, lower);
      break;
    case TriCountVariant::kLU:
      result.triangles = count(lower, upper);
      break;
    case TriCountVariant::kUU:
      result.triangles = count(upper, upper);
      break;
  }
  result.seconds_total = total.seconds();
  return result;
}

// Client-session variant (ISSUE 5): the masked product is submitted through
// a MaskedClient session, so the same call serves the local runtime or a
// shard fleet. The triangular factors are registered as the stationary
// structure; for kLL/kUU the submit is fully aliased (flags only on the
// wire).
template <class IT, class VT>
TriCountResult triangle_count(
    const CSRMatrix<IT, VT>& graph,
    client::Session<PlusPair<std::int64_t>, IT, std::int64_t>& session,
    const MaskedOptions& opts = {},
    TriCountVariant variant = TriCountVariant::kLL) {
  check_arg(graph.nrows() == graph.ncols(),
            "triangle_count: adjacency matrix must be square");
  WallTimer total;

  // The session is typed over the plus-pair semiring's int64 operands, which
  // take the value 1 everywhere (plus-pair ignores values).
  using Mat = CSRMatrix<IT, std::int64_t>;
  std::shared_ptr<const Mat> lower, upper;
  {
    obs::ScopedSpan span("tc.prep");
    const auto perm = degree_order_desc(graph);
    const auto ones = [&](RelabelPart part) {
      const auto t = relabel_symmetric(graph, perm, part);
      return std::make_shared<const Mat>(
          t.nrows(), t.ncols(),
          std::vector<IT>(t.rowptr().begin(), t.rowptr().end()),
          std::vector<IT>(t.colidx().begin(), t.colidx().end()),
          std::vector<std::int64_t>(t.nnz(), 1));
    };
    if (variant != TriCountVariant::kUU) {
      lower = ones(RelabelPart::kStrictLower);
    }
    if (variant != TriCountVariant::kLL) {
      upper = ones(RelabelPart::kStrictUpper);
    }
  }

  TriCountResult result;
  result.algo = opts.algo;  // resolution happens backend-side
  client::SubmitOptions sopts;
  sopts.masked = opts;
  Mat c;
  auto run = [&](std::shared_ptr<const Mat> a, std::shared_ptr<const Mat> b,
                 std::shared_ptr<const Mat> m) {
    result.multiplies = total_flops(*a, *b);
    auto spec = client::StructureSpec<IT, std::int64_t>(b);
    if (m == b) spec.self_mask();
    auto handle = session.register_structure(std::move(spec));
    WallTimer kernel;
    auto fut = m == b ? session.submit(a, handle, sopts)
                      : session.submit(a, m, handle, sopts);
    c = std::move(fut.get().value());
    result.seconds_spgemm = kernel.seconds();
    session.release(handle);
  };
  switch (variant) {
    case TriCountVariant::kLL:
      run(lower, lower, lower);
      break;
    case TriCountVariant::kLU:
      run(lower, upper, lower);
      break;
    case TriCountVariant::kUU:
      run(upper, upper, upper);
      break;
  }

  result.triangles = static_cast<std::uint64_t>(reduce_sum(c));
  result.seconds_total = total.seconds();
  return result;
}

}  // namespace msx
