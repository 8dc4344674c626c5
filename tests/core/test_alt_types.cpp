// Template-parameter coverage: the whole stack instantiated with 64-bit
// indices and float values (everything else tests int32/double). Catches
// narrowing, sentinel (-1 key) and index-arithmetic assumptions.
#include <gtest/gtest.h>

#include "core/masked_spgemm.hpp"
#include "core/reference.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/rmat.hpp"
#include "matrix/build.hpp"
#include "matrix/convert.hpp"
#include "matrix/ops.hpp"

namespace msx {
namespace {

using IT = std::int64_t;
using VT = float;

const std::vector<MaskedAlgo> kAlgos{
    MaskedAlgo::kMSA,  MaskedAlgo::kHash,    MaskedAlgo::kMCA,
    MaskedAlgo::kHeap, MaskedAlgo::kHeapDot, MaskedAlgo::kInner,
    MaskedAlgo::kHybrid, MaskedAlgo::kMSABitmap, MaskedAlgo::kMSADense,
    MaskedAlgo::kAdaptive};

TEST(AltTypes, AllSchemesMatchReference) {
  auto a = erdos_renyi<IT, VT>(120, 120, 7, 1);
  auto b = erdos_renyi<IT, VT>(120, 120, 7, 2);
  auto m = erdos_renyi<IT, VT>(120, 120, 9, 3);
  auto want = reference_masked_spgemm<PlusTimes<VT>>(a, b, m);
  for (auto algo : kAlgos) {
    MaskedOptions o;
    o.algo = algo;
    auto got = masked_spgemm<PlusTimes<VT>>(a, b, m, o);
    ASSERT_EQ(got.nnz(), want.nnz()) << to_string(algo);
    for (std::size_t p = 0; p < got.nnz(); ++p) {
      ASSERT_EQ(got.colidx()[p], want.colidx()[p]) << to_string(algo);
      ASSERT_NEAR(got.values()[p], want.values()[p], 1e-4f)
          << to_string(algo);
    }
  }
}

TEST(AltTypes, ComplementWorks) {
  auto a = erdos_renyi<IT, VT>(60, 60, 5, 4);
  auto b = erdos_renyi<IT, VT>(60, 60, 5, 5);
  auto m = erdos_renyi<IT, VT>(60, 60, 7, 6);
  auto want =
      reference_masked_spgemm<PlusTimes<VT>>(a, b, m, MaskKind::kComplement);
  for (auto algo : {MaskedAlgo::kMSA, MaskedAlgo::kHash, MaskedAlgo::kHeap,
                    MaskedAlgo::kInner}) {
    MaskedOptions o;
    o.algo = algo;
    o.kind = MaskKind::kComplement;
    auto got = masked_spgemm<PlusTimes<VT>>(a, b, m, o);
    EXPECT_TRUE(pattern_equal(got, want)) << to_string(algo);
  }
}

TEST(AltTypes, MatrixOpsRoundTrip) {
  auto a = rmat<IT, VT>(7, 7);
  EXPECT_EQ(transpose(transpose(a)), a);
  auto csc = csr_to_csc(a);
  EXPECT_EQ(csc_to_csr(csc), a);
  EXPECT_TRUE(is_pattern_symmetric(a));
}

TEST(AltTypes, IntegerSemiringOverFloatMatrices) {
  auto a = erdos_renyi<IT, VT>(50, 50, 4, 8);
  auto m = erdos_renyi<IT, VT>(50, 50, 6, 9);
  auto c = masked_spgemm<PlusPair<std::int64_t>>(a, a, m);
  static_assert(std::is_same_v<decltype(c)::index_type, std::int64_t>);
  static_assert(std::is_same_v<decltype(c)::value_type, std::int64_t>);
  for (auto v : c.values()) EXPECT_GE(v, 1);
}

TEST(AltTypes, HashSentinelSafeWithHuge64BitKeys) {
  // The hash table's empty sentinel is IT(-1); legitimate keys far beyond
  // 2^32 must hash, probe and gather correctly.
  HashMasked<IT, VT> acc;
  const IT big = (IT{1} << 40) + 12345;
  const std::vector<IT> mask{big, big + 1, big + (IT{1} << 20)};
  acc.prepare(mask);
  constexpr auto add = [](VT a, VT b) { return a + b; };
  acc.insert(big, [] { return 1.5f; }, add);
  acc.insert(big + 1, [] { return 2.5f; }, add);
  acc.insert(big + 1, [] { return 0.5f; }, add);
  acc.insert(big + 2, [] { return 9.0f; }, add);  // not in mask
  std::vector<IT> cols(3);
  std::vector<VT> vals(3);
  const IT cnt = acc.gather(mask, cols.data(), vals.data());
  ASSERT_EQ(cnt, 2);
  EXPECT_EQ(cols[0], big);
  EXPECT_FLOAT_EQ(vals[0], 1.5f);
  EXPECT_EQ(cols[1], big + 1);
  EXPECT_FLOAT_EQ(vals[1], 3.0f);
}

}  // namespace
}  // namespace msx
