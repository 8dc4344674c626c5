// Distributed 2D masked products (ISSUE 8 tentpole): the planning, slicing
// and merging layer that lets one oversized masked product run as an
// A-row-panel × B-col-panel task grid scattered across the shard fleet.
//
// Decomposition, following the Buluç–Gilbert 2D SpGEMM line adapted to the
// masked setting:
//
//   * B is cut into C column panels. A panel keeps B's full shape and global
//     column indices — entries outside its column range are dropped, nothing
//     is rebased — so A·B_j is an ordinary product whose support is confined
//     to the panel's columns. That confinement is what makes the mask slice
//     correct for BOTH mask kinds: M_j (the same column slice of M) selects
//     exactly M's entries there under kMask, and under kComplement the extra
//     "allowed" columns outside the panel contribute nothing because the
//     product is structurally zero there.
//   * A is cut into R row panels by the existing flop-balanced RowPartition
//     machinery (per-row flops against the FULL B), rebased to row 0; the
//     mask rows follow via the wire-v4 kSubMaskRows window on the registered
//     panel mask.
//   * Each (r, j) task is therefore a self-contained masked product; the
//     client concatenates row panels and, within each row, splices the col
//     panels back in ascending column order (their ranges are disjoint), so
//     the merged CSR is exactly the single-shard result: per output entry
//     the same B(k, c) contributions accumulate in the same k order.
//
// This header is deliberately backend-agnostic: planning produces plain
// boundary vectors, slicing produces ordinary CSRMatrix / EdgeDelta values
// (registered and updated over the wire like any structure), and the merge
// consumes CSRView spans straight over receive payloads (wire v4 zero-copy).
// The scatter/gather executor and replica placement live in
// client/sharded_backend.hpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/prefix_sum.hpp"
#include "core/delta.hpp"
#include "core/flops.hpp"
#include "core/partition.hpp"
#include "matrix/csr.hpp"
#include "service/routing.hpp"  // ConsistentHashRing
#include "service/wire.hpp"    // CSRView

namespace msx::service {

// --- planning ---------------------------------------------------------------

// Splits a cost prefix sum (n+1 entries, prefix[0] == 0) into at most
// `npanels` contiguous near-equal-cost panels, returning the panels+1
// ascending boundaries (front 0, back n). Reuses the flop-balanced
// RowPartition splitter; degenerates to {0, n} when n == 0 (distributed.cpp).
std::vector<std::int64_t> panel_bounds_from_cost(
    std::span<const std::uint64_t> prefix, int npanels);

// The first `replicas` distinct shards clockwise from `point` on the ring —
// the replica set of a hot panel. Deterministic across client instances
// (the ring depends only on (nshards, vnodes)), capped at the fleet size
// (distributed.cpp).
std::vector<int> replica_shards(const ConsistentHashRing& ring,
                                std::uint64_t point, int replicas);

// Column-panel boundaries for B: per-column nnz is the cost (the column mass
// a panel task must scan), balanced the same way row partitions are.
template <class IT, class VT>
std::vector<std::int64_t> plan_col_panels(const CSRMatrix<IT, VT>& b,
                                          int npanels) {
  std::vector<std::uint64_t> prefix(static_cast<std::size_t>(b.ncols()) + 1,
                                    0);
  for (const IT c : b.colidx()) {
    ++prefix[static_cast<std::size_t>(c) + 1];
  }
  inclusive_scan_serial(prefix.data(), prefix.size());
  return panel_bounds_from_cost(prefix, npanels);
}

// Row-panel boundaries for A against the full B: the same per-row flops cost
// the flop-balanced schedule uses, so panel tasks carry near-equal work.
template <class IT, class VT, class VT2>
std::vector<std::int64_t> plan_row_panels(const CSRMatrix<IT, VT>& a,
                                          const CSRMatrix<IT, VT2>& b,
                                          int npanels) {
  RowPartition part = build_row_partition(
      a.nrows(), npanels,
      [&](IT i) { return row_flops(a, b, i); });
  if (part.block_start.empty()) {
    return {0, static_cast<std::int64_t>(a.nrows())};
  }
  return std::move(part.block_start);
}

// --- slicing ----------------------------------------------------------------

// B column panel: entries with column outside [lo, hi) dropped, shape and
// column indices unchanged (see the header comment for why full width).
template <class IT, class VT>
CSRMatrix<IT, VT> slice_cols(const CSRMatrix<IT, VT>& m, std::int64_t lo,
                             std::int64_t hi) {
  check_arg(lo >= 0 && lo <= hi && hi <= static_cast<std::int64_t>(m.ncols()),
            "slice_cols: bad column range");
  const auto rp = m.rowptr();
  const auto ci = m.colidx();
  const auto vv = m.values();
  const IT nrows = m.nrows();
  std::vector<IT> rowptr(static_cast<std::size_t>(nrows) + 1, 0);
  // Columns are strictly increasing per row: the panel's slice of a row is
  // one contiguous run found by binary search.
  const auto row_range = [&](IT i) {
    const auto* base = ci.data();
    const auto* first = base + rp[i];
    const auto* last = base + rp[i + 1];
    const auto* s = std::lower_bound(first, last, static_cast<IT>(lo));
    const auto* e = std::lower_bound(s, last, static_cast<IT>(hi));
    return std::pair<std::size_t, std::size_t>(
        static_cast<std::size_t>(s - base), static_cast<std::size_t>(e - base));
  };
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(nrows); ++i) {
    const auto [s, e] = row_range(static_cast<IT>(i));
    rowptr[static_cast<std::size_t>(i) + 1] = static_cast<IT>(e - s);
  }
  counts_to_offsets(rowptr);
  std::vector<IT> colidx(static_cast<std::size_t>(rowptr.back()));
  std::vector<VT> values(colidx.size());
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(nrows); ++i) {
    const auto [s, e] = row_range(static_cast<IT>(i));
    const auto out = static_cast<std::size_t>(rowptr[i]);
    std::copy(ci.begin() + s, ci.begin() + e, colidx.begin() + out);
    std::copy(vv.begin() + s, vv.begin() + e, values.begin() + out);
  }
  return CSRMatrix<IT, VT>(nrows, m.ncols(), std::move(rowptr),
                           std::move(colidx), std::move(values));
}

// A row panel (or a mask row window): rows [r0, r1) rebased to row 0.
template <class IT, class VT>
CSRMatrix<IT, VT> slice_rows(const CSRMatrix<IT, VT>& m, std::int64_t r0,
                             std::int64_t r1) {
  check_arg(r0 >= 0 && r0 <= r1 && r1 <= static_cast<std::int64_t>(m.nrows()),
            "slice_rows: bad row range");
  const auto rp = m.rowptr();
  const auto ci = m.colidx();
  const auto vv = m.values();
  const auto nrows = static_cast<IT>(r1 - r0);
  const auto base = static_cast<std::size_t>(rp[r0]);
  const auto end = static_cast<std::size_t>(rp[r1]);
  std::vector<IT> rowptr(static_cast<std::size_t>(nrows) + 1);
  for (std::int64_t i = r0; i <= r1; ++i) {
    rowptr[static_cast<std::size_t>(i - r0)] =
        static_cast<IT>(rp[i] - static_cast<IT>(base));
  }
  std::vector<IT> colidx(ci.begin() + base, ci.begin() + end);
  std::vector<VT> values(vv.begin() + base, vv.begin() + end);
  return CSRMatrix<IT, VT>(nrows, m.ncols(), std::move(rowptr),
                           std::move(colidx), std::move(values));
}

// The column slice of an edge delta: edits landing in [lo, hi) — the part of
// a structure update that concerns one column panel. Row indices are global
// (panels keep B's full shape). Panels whose range the delta never touches
// get an EMPTY delta, which still crosses the wire so every panel's version
// advances in step (apply_edge_delta is the identity for an empty delta).
template <class IT, class VT>
EdgeDelta<IT, VT> slice_delta_cols(const EdgeDelta<IT, VT>& delta,
                                   std::int64_t lo, std::int64_t hi) {
  EdgeDelta<IT, VT> out;
  for (std::size_t k = 0; k < delta.ins_row.size(); ++k) {
    const auto c = static_cast<std::int64_t>(delta.ins_col[k]);
    if (c >= lo && c < hi) {
      out.insert(delta.ins_row[k], delta.ins_col[k], delta.ins_val[k]);
    }
  }
  for (std::size_t k = 0; k < delta.del_row.size(); ++k) {
    const auto c = static_cast<std::int64_t>(delta.del_col[k]);
    if (c >= lo && c < hi) {
      out.erase(delta.del_row[k], delta.del_col[k]);
    }
  }
  return out;
}

// --- merging ----------------------------------------------------------------

// Reassembles the full product from an R×C grid of panel results, row-major
// (slots[r*C + j]), reading entries straight out of the panel views (which
// alias receive payloads — wire v4 zero-copy). Row panel r covers global
// rows [row_start[r], row_start[r+1]); within a row, panels are spliced in
// ascending j order, which IS ascending column order because panel column
// ranges are disjoint and ascending — validated cheaply at the seams.
// Bit-identical to single-shard execution whenever per-entry accumulation
// is exact or order-independent (each output entry receives the same
// contributions in the same k order as the undecomposed product).
template <class IT, class VT>
CSRMatrix<IT, VT> merge_panel_grid(std::span<const CSRView<IT, VT>> slots,
                                   std::span<const std::int64_t> row_start,
                                   IT ncols) {
  check_arg(row_start.size() >= 2, "merge: missing row panel bounds");
  const std::size_t nr = row_start.size() - 1;
  check_arg(nr > 0 && slots.size() % nr == 0,
            "merge: slot grid does not match row panels");
  const std::size_t nc = slots.size() / nr;
  const auto nrows = static_cast<IT>(row_start.back());
  for (std::size_t r = 0; r < nr; ++r) {
    const auto want = row_start[r + 1] - row_start[r];
    for (std::size_t j = 0; j < nc; ++j) {
      const auto& s = slots[r * nc + j];
      check_arg(static_cast<std::int64_t>(s.nrows) == want &&
                    s.ncols == ncols,
                "merge: panel result shape mismatch");
    }
  }

  std::vector<IT> rowptr(static_cast<std::size_t>(nrows) + 1, 0);
  for (std::size_t r = 0; r < nr; ++r) {
    const std::int64_t g0 = row_start[r];
    const std::int64_t rows = row_start[r + 1] - g0;
#pragma omp parallel for schedule(static)
    for (std::int64_t li = 0; li < rows; ++li) {
      IT cnt = 0;
      for (std::size_t j = 0; j < nc; ++j) {
        const auto& s = slots[r * nc + j];
        cnt += s.rowptr[li + 1] - s.rowptr[li];
      }
      rowptr[static_cast<std::size_t>(g0 + li) + 1] = cnt;
    }
  }
  counts_to_offsets(rowptr);

  std::vector<IT> colidx(static_cast<std::size_t>(rowptr.back()));
  std::vector<VT> values(colidx.size());
  for (std::size_t r = 0; r < nr; ++r) {
    const std::int64_t g0 = row_start[r];
    const std::int64_t rows = row_start[r + 1] - g0;
#pragma omp parallel for schedule(static)
    for (std::int64_t li = 0; li < rows; ++li) {
      auto out = static_cast<std::size_t>(rowptr[g0 + li]);
      bool seam_ok = true;
      IT prev_last = 0;
      bool have_prev = false;
      for (std::size_t j = 0; j < nc; ++j) {
        const auto& s = slots[r * nc + j];
        const auto lo = static_cast<std::size_t>(s.rowptr[li]);
        const auto hi = static_cast<std::size_t>(s.rowptr[li + 1]);
        if (lo == hi) continue;
        if (have_prev && s.colidx[lo] <= prev_last) seam_ok = false;
        prev_last = s.colidx[hi - 1];
        have_prev = true;
        std::copy(s.colidx.begin() + lo, s.colidx.begin() + hi,
                  colidx.begin() + out);
        std::copy(s.values.begin() + lo, s.values.begin() + hi,
                  values.begin() + out);
        out += hi - lo;
      }
      // check_arg throws; keep the throw out of the parallel loop body's hot
      // path but still fail loudly on overlapping panel ranges.
      if (!seam_ok) {
        rowptr[g0 + li] = static_cast<IT>(-1);  // flagged below
      }
    }
  }
  for (std::size_t r = 0; r < nr; ++r) {
    const std::int64_t g0 = row_start[r];
    for (std::int64_t li = 0; li < row_start[r + 1] - g0; ++li) {
      check_arg(rowptr[g0 + li] != static_cast<IT>(-1),
                "merge: panel column ranges overlap");
    }
  }
  return CSRMatrix<IT, VT>(nrows, ncols, std::move(rowptr), std::move(colidx),
                           std::move(values));
}

}  // namespace msx::service
