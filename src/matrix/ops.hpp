// Structural and element-wise operations on CSR matrices.
//
// These are the substrate operations the graph applications are assembled
// from: triangular extraction and degree-relabeling (triangle counting,
// §8.2), value filtering and splitting (k-truss pruning, §8.3), element-wise
// multiply/add and reductions (betweenness centrality, §8.4).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "common/platform.hpp"
#include "common/prefix_sum.hpp"
#include "core/partition.hpp"
#include "matrix/build.hpp"
#include "matrix/convert.hpp"
#include "matrix/csr.hpp"

namespace msx {

// Out-degree (row nnz) of each row.
template <class IT, class VT>
std::vector<IT> row_degrees(const CSRMatrix<IT, VT>& a) {
  std::vector<IT> deg(static_cast<std::size_t>(a.nrows()));
  for (IT i = 0; i < a.nrows(); ++i) deg[static_cast<std::size_t>(i)] = a.row_nnz(i);
  return deg;
}

// Permutation that sorts vertices by non-increasing degree (ties broken by
// vertex id for determinism). perm[new_id] = old_id. A stable counting sort
// over degree buckets, O(n + max degree): the same permutation as a stable
// comparison sort on (degree desc, id asc).
template <class IT, class VT>
std::vector<IT> degree_order_desc(const CSRMatrix<IT, VT>& a) {
  const IT n = a.nrows();
  IT max_deg = 0;
  for (IT i = 0; i < n; ++i) max_deg = std::max(max_deg, a.row_nnz(i));
  // Bucket k holds the vertices of degree max_deg - k, so bucket 0 (the
  // highest degree) comes first; start[k] is its first output slot.
  std::vector<IT> start(static_cast<std::size_t>(max_deg) + 2, IT{0});
  for (IT i = 0; i < n; ++i) {
    ++start[static_cast<std::size_t>(max_deg - a.row_nnz(i)) + 1];
  }
  inclusive_scan_serial(start.data(), start.size());
  std::vector<IT> perm(static_cast<std::size_t>(n));
  for (IT i = 0; i < n; ++i) {
    perm[static_cast<std::size_t>(
        start[static_cast<std::size_t>(max_deg - a.row_nnz(i))]++)] = i;
  }
  return perm;
}

// What relabel_symmetric keeps of the relabeled matrix.
enum class RelabelPart {
  kWhole,
  kStrictLower,  // col < row
  kStrictUpper,  // col > row
};

// Symmetric relabeling B = P A Pᵀ (perm[new_id] = old_id), keeping the whole
// of B or only its strictly lower or strictly upper triangle. Requires a
// square matrix and a permutation. Rows are counted, prefix-summed and filled
// in place; each row's relabeled entries are gathered into a buffer owned by
// its block and sorted by column, so nothing is allocated per row. Rows are
// handed out in blocks of near-equal source nnz (core/partition.hpp), which
// spreads the hub rows a degree order puts first over the whole team.
template <class IT, class VT>
CSRMatrix<IT, VT> relabel_symmetric(const CSRMatrix<IT, VT>& a,
                                    const std::vector<IT>& perm,
                                    RelabelPart part) {
  check_arg(a.nrows() == a.ncols(),
            "symmetric permutation needs square matrix");
  check_arg(perm.size() == static_cast<std::size_t>(a.nrows()),
            "permutation size mismatch");
  const IT n = a.nrows();
  const auto un = static_cast<std::size_t>(n);
  std::vector<IT> inv(un);
  parallel_for(IT{0}, n, Schedule::kStatic, [&](IT i) {
    inv[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])] = i;
  });
  // One unit per row on top of its nnz, so runs of empty rows still split.
  const auto part_rows = build_row_partition(
      n, partition_target_blocks(max_threads()), [&](IT i) {
        return a.row_nnz(perm[static_cast<std::size_t>(i)]) + 1;
      });
  const auto bounds = part_rows.bounds();

  const auto relabel = [&](auto keep) {
    std::vector<IT> rowptr(un + 1, IT{0});
    parallel_for_blocks<IT>(bounds, [&](IT i) {
      const auto src = a.row(perm[static_cast<std::size_t>(i)]);
      IT cnt = 0;
      for (IT p = 0; p < src.size(); ++p) {
        cnt += keep(i, inv[static_cast<std::size_t>(src.cols[p])]) ? 1 : 0;
      }
      rowptr[static_cast<std::size_t>(i) + 1] = cnt;
    });
    counts_to_offsets(rowptr);
    std::vector<IT> colidx(static_cast<std::size_t>(rowptr.back()));
    std::vector<VT> values(colidx.size());
    parallel_for_block_ranges<IT>(bounds, [&](int, int, IT lo, IT hi) {
      std::vector<std::pair<IT, VT>> entries;
      for (IT i = lo; i < hi; ++i) {
        const auto src = a.row(perm[static_cast<std::size_t>(i)]);
        if (entries.size() < static_cast<std::size_t>(src.size())) {
          entries.resize(static_cast<std::size_t>(src.size()));
        }
        // Branch-free gather: every entry is written, kept ones advance.
        std::size_t kept = 0;
        for (IT p = 0; p < src.size(); ++p) {
          const IT j = inv[static_cast<std::size_t>(src.cols[p])];
          entries[kept] = {j, src.vals[p]};
          kept += keep(i, j) ? 1 : 0;
        }
        std::sort(entries.data(), entries.data() + kept,
                  [](const auto& x, const auto& y) {
                    return x.first < y.first;
                  });
        const auto q =
            static_cast<std::size_t>(rowptr[static_cast<std::size_t>(i)]);
        for (std::size_t t = 0; t < kept; ++t) {
          colidx[q + t] = entries[t].first;
          values[q + t] = entries[t].second;
        }
      }
    });
    return CSRMatrix<IT, VT>(n, n, std::move(rowptr), std::move(colidx),
                             std::move(values));
  };
  switch (part) {
    case RelabelPart::kStrictLower:
      return relabel([](IT i, IT j) { return j < i; });
    case RelabelPart::kStrictUpper:
      return relabel([](IT i, IT j) { return j > i; });
    case RelabelPart::kWhole:
      break;
  }
  return relabel([](IT, IT) { return true; });
}

// Symmetric relabeling: B = P A Pᵀ where perm[new_id] = old_id.
// Requires a square matrix.
template <class IT, class VT>
CSRMatrix<IT, VT> permute_symmetric(const CSRMatrix<IT, VT>& a,
                                    const std::vector<IT>& perm) {
  return relabel_symmetric(a, perm, RelabelPart::kWhole);
}

namespace detail {

// Row-block count/prefix/fill over the entries of `a`: entries satisfying
// keep(row, col, value) go to the first matrix and, when kSplit, the rest to
// the second. Rows are handed out in blocks of near-equal nnz
// (core/partition.hpp), as relabel_symmetric does; every row is written at
// its prefix offset, so the output does not depend on the thread count.
template <bool kSplit, class IT, class VT, class Pred>
std::pair<CSRMatrix<IT, VT>, CSRMatrix<IT, VT>> route_entries(
    const CSRMatrix<IT, VT>& a, Pred& keep) {
  const IT n = a.nrows();
  const auto un = static_cast<std::size_t>(n);
  const auto part_rows = build_row_partition(
      n, partition_target_blocks(max_threads()),
      [&](IT i) { return a.row_nnz(i) + 1; });
  const auto bounds = part_rows.bounds();

  std::vector<IT> kept_ptr(un + 1, IT{0});
  std::vector<IT> drop_ptr(kSplit ? un + 1 : 1, IT{0});
  parallel_for_blocks<IT>(bounds, [&](IT i) {
    const auto row = a.row(i);
    IT cnt = 0;
    for (IT p = 0; p < row.size(); ++p) {
      cnt += keep(i, row.cols[p], row.vals[p]) ? 1 : 0;
    }
    const auto ui = static_cast<std::size_t>(i);
    kept_ptr[ui + 1] = cnt;
    if constexpr (kSplit) drop_ptr[ui + 1] = row.size() - cnt;
  });
  counts_to_offsets(kept_ptr);
  counts_to_offsets(drop_ptr);
  std::vector<IT> kept_cols(static_cast<std::size_t>(kept_ptr.back()));
  std::vector<VT> kept_vals(kept_cols.size());
  std::vector<IT> drop_cols(static_cast<std::size_t>(drop_ptr.back()));
  std::vector<VT> drop_vals(drop_cols.size());
  parallel_for_blocks<IT>(bounds, [&](IT i) {
    const auto row = a.row(i);
    const auto ui = static_cast<std::size_t>(i);
    auto q = static_cast<std::size_t>(kept_ptr[ui]);
    auto d = kSplit ? static_cast<std::size_t>(drop_ptr[ui]) : 0;
    for (IT p = 0; p < row.size(); ++p) {
      if (keep(i, row.cols[p], row.vals[p])) {
        kept_cols[q] = row.cols[p];
        kept_vals[q] = row.vals[p];
        ++q;
      } else if constexpr (kSplit) {
        drop_cols[d] = row.cols[p];
        drop_vals[d] = row.vals[p];
        ++d;
      }
    }
  });
  CSRMatrix<IT, VT> dropped;
  if constexpr (kSplit) {
    dropped = CSRMatrix<IT, VT>(a.nrows(), a.ncols(), std::move(drop_ptr),
                                std::move(drop_cols), std::move(drop_vals));
  }
  return {CSRMatrix<IT, VT>(a.nrows(), a.ncols(), std::move(kept_ptr),
                            std::move(kept_cols), std::move(kept_vals)),
          std::move(dropped)};
}

}  // namespace detail

// Keeps entries satisfying pred(row, col, value); drops the rest.
template <class IT, class VT, class Pred>
CSRMatrix<IT, VT> filter(const CSRMatrix<IT, VT>& a, Pred&& pred) {
  return detail::route_entries</*kSplit=*/false>(a, pred).first;
}

// Splits the entries of `a` in one pass: {those satisfying pred(row, col,
// value), the rest}. Both keep a's shape and values; together they are `a`.
template <class IT, class VT, class Pred>
std::pair<CSRMatrix<IT, VT>, CSRMatrix<IT, VT>> split(
    const CSRMatrix<IT, VT>& a, Pred&& pred) {
  return detail::route_entries</*kSplit=*/true>(a, pred);
}

// Strictly-lower-triangular part (col < row).
template <class IT, class VT>
CSRMatrix<IT, VT> tril_strict(const CSRMatrix<IT, VT>& a) {
  return filter(a, [](IT i, IT j, const VT&) { return j < i; });
}

// Removes diagonal entries.
template <class IT, class VT>
CSRMatrix<IT, VT> remove_diagonal(const CSRMatrix<IT, VT>& a) {
  return filter(a, [](IT i, IT j, const VT&) { return i != j; });
}

// Replaces every stored value with one (GraphBLAS "spones").
template <class IT, class VT>
CSRMatrix<IT, VT> spones(const CSRMatrix<IT, VT>& a) {
  std::vector<VT> ones(a.nnz(), VT{1});
  return CSRMatrix<IT, VT>(a.nrows(), a.ncols(),
                           std::vector<IT>(a.rowptr().begin(), a.rowptr().end()),
                           std::vector<IT>(a.colidx().begin(), a.colidx().end()),
                           std::move(ones));
}

// Structural union A + B on (+): values added where both present.
template <class IT, class VT>
CSRMatrix<IT, VT> ewise_add(const CSRMatrix<IT, VT>& a,
                            const CSRMatrix<IT, VT>& b) {
  check_arg(a.nrows() == b.nrows() && a.ncols() == b.ncols(),
            "ewise_add shape mismatch");
  std::vector<IT> rowptr(static_cast<std::size_t>(a.nrows()) + 1, IT{0});
  // Two-pointer merge per row: count pass, then fill pass.
  for (IT i = 0; i < a.nrows(); ++i) {
    const auto ra = a.row(i), rb = b.row(i);
    IT pa = 0, pb = 0, cnt = 0;
    while (pa < ra.size() && pb < rb.size()) {
      const IT ca = ra.cols[pa], cb = rb.cols[pb];
      pa += (ca <= cb);
      pb += (cb <= ca);
      ++cnt;
    }
    cnt += (ra.size() - pa) + (rb.size() - pb);
    rowptr[static_cast<std::size_t>(i) + 1] = cnt;
  }
  counts_to_offsets(rowptr);
  std::vector<IT> colidx(static_cast<std::size_t>(rowptr.back()));
  std::vector<VT> values(colidx.size());
  parallel_for(IT{0}, a.nrows(), Schedule::kStatic, [&](IT i) {
    const auto ra = a.row(i), rb = b.row(i);
    IT pa = 0, pb = 0;
    auto q = static_cast<std::size_t>(rowptr[static_cast<std::size_t>(i)]);
    while (pa < ra.size() && pb < rb.size()) {
      const IT ca = ra.cols[pa], cb = rb.cols[pb];
      if (ca < cb) {
        colidx[q] = ca;
        values[q] = ra.vals[pa++];
      } else if (cb < ca) {
        colidx[q] = cb;
        values[q] = rb.vals[pb++];
      } else {
        colidx[q] = ca;
        values[q] = ra.vals[pa++] + rb.vals[pb++];
      }
      ++q;
    }
    for (; pa < ra.size(); ++pa, ++q) {
      colidx[q] = ra.cols[pa];
      values[q] = ra.vals[pa];
    }
    for (; pb < rb.size(); ++pb, ++q) {
      colidx[q] = rb.cols[pb];
      values[q] = rb.vals[pb];
    }
  });
  return CSRMatrix<IT, VT>(a.nrows(), a.ncols(), std::move(rowptr),
                           std::move(colidx), std::move(values));
}

// Structural intersection with multiplied values: C = A .* B (values a*b).
template <class IT, class VT>
CSRMatrix<IT, VT> ewise_mult(const CSRMatrix<IT, VT>& a,
                             const CSRMatrix<IT, VT>& b) {
  check_arg(a.nrows() == b.nrows() && a.ncols() == b.ncols(),
            "ewise_mult shape mismatch");
  std::vector<IT> rowptr(static_cast<std::size_t>(a.nrows()) + 1, IT{0});
  for (IT i = 0; i < a.nrows(); ++i) {
    const auto ra = a.row(i), rb = b.row(i);
    IT pa = 0, pb = 0, cnt = 0;
    while (pa < ra.size() && pb < rb.size()) {
      const IT ca = ra.cols[pa], cb = rb.cols[pb];
      if (ca == cb) ++cnt;
      pa += (ca <= cb);
      pb += (cb <= ca);
    }
    rowptr[static_cast<std::size_t>(i) + 1] = cnt;
  }
  counts_to_offsets(rowptr);
  std::vector<IT> colidx(static_cast<std::size_t>(rowptr.back()));
  std::vector<VT> values(colidx.size());
  parallel_for(IT{0}, a.nrows(), Schedule::kStatic, [&](IT i) {
    const auto ra = a.row(i), rb = b.row(i);
    IT pa = 0, pb = 0;
    auto q = static_cast<std::size_t>(rowptr[static_cast<std::size_t>(i)]);
    while (pa < ra.size() && pb < rb.size()) {
      const IT ca = ra.cols[pa], cb = rb.cols[pb];
      if (ca == cb) {
        colidx[q] = ca;
        values[q] = ra.vals[pa] * rb.vals[pb];
        ++q;
      }
      pa += (ca <= cb);
      pb += (cb <= ca);
    }
  });
  return CSRMatrix<IT, VT>(a.nrows(), a.ncols(), std::move(rowptr),
                           std::move(colidx), std::move(values));
}

// Symmetrizes the pattern: returns A | Aᵀ with value 1 everywhere.
template <class IT, class VT>
CSRMatrix<IT, VT> symmetrize_pattern(const CSRMatrix<IT, VT>& a) {
  check_arg(a.nrows() == a.ncols(), "symmetrize needs a square matrix");
  std::vector<Triple<IT, VT>> triples;
  triples.reserve(2 * a.nnz());
  for (IT i = 0; i < a.nrows(); ++i) {
    const auto row = a.row(i);
    for (IT p = 0; p < row.size(); ++p) {
      triples.push_back({i, row.cols[p], VT{1}});
      triples.push_back({row.cols[p], i, VT{1}});
    }
  }
  return csr_from_triples<IT, VT>(a.nrows(), a.ncols(), std::move(triples),
                                  DuplicatePolicy::kLast);
}

// True iff the nonzero pattern is symmetric.
template <class IT, class VT>
bool is_pattern_symmetric(const CSRMatrix<IT, VT>& a) {
  if (a.nrows() != a.ncols()) return false;
  auto t = transpose(a);
  return std::equal(a.rowptr().begin(), a.rowptr().end(), t.rowptr().begin()) &&
         std::equal(a.colidx().begin(), a.colidx().end(), t.colidx().begin());
}

// Sum of all stored values.
template <class IT, class VT>
VT reduce_sum(const CSRMatrix<IT, VT>& a) {
  VT sum{};
  for (const VT& v : a.values()) sum = sum + v;
  return sum;
}

// True iff both matrices have the same shape and pattern (values ignored).
template <class IT, class VT, class VT2>
bool pattern_equal(const CSRMatrix<IT, VT>& a, const CSRMatrix<IT, VT2>& b) {
  return a.nrows() == b.nrows() && a.ncols() == b.ncols() &&
         std::equal(a.rowptr().begin(), a.rowptr().end(), b.rowptr().begin()) &&
         std::equal(a.colidx().begin(), a.colidx().end(), b.colidx().begin());
}

}  // namespace msx
