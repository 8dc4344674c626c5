// The three masked triangle-counting formulations must agree with each
// other and with first principles on every graph.
#include "apps/tricount.hpp"

#include <gtest/gtest.h>

#include "core/reference.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/rmat.hpp"
#include "gen/structured.hpp"
#include "matrix/ops.hpp"
#include "test_helpers_apps.hpp"

namespace msx {
namespace {

using IT = int32_t;
using VT = double;

const TriCountVariant kVariants[] = {TriCountVariant::kLL,
                                     TriCountVariant::kLU,
                                     TriCountVariant::kUU};

TEST(TriCountVariants, AgreeOnKnownGraphs) {
  struct Case {
    CSRMatrix<IT, VT> g;
    std::uint64_t expect;
  };
  std::vector<Case> cases;
  cases.push_back({complete_graph<IT, VT>(7), 35});    // C(7,3)
  cases.push_back({cycle_graph<IT, VT>(3), 1});
  cases.push_back({cycle_graph<IT, VT>(11), 0});
  cases.push_back({grid2d<IT, VT>(5, 5), 0});
  cases.push_back({star_graph<IT, VT>(20), 0});
  for (const auto& c : cases) {
    for (auto variant : kVariants) {
      MaskedOptions o;
      EXPECT_EQ(triangle_count(c.g, o, variant).triangles, c.expect)
          << static_cast<int>(variant);
    }
  }
}

TEST(TriCountVariants, AgreeOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    auto g = rmat<IT, VT>(8, seed);
    MaskedOptions o;
    const auto base = triangle_count(g, o, TriCountVariant::kLL).triangles;
    EXPECT_EQ(triangle_count(g, o, TriCountVariant::kLU).triangles, base)
        << "seed " << seed;
    EXPECT_EQ(triangle_count(g, o, TriCountVariant::kUU).triangles, base)
        << "seed " << seed;
  }
}

TEST(TriCountVariants, AllSchemesAllVariants) {
  auto g = symmetrize_pattern(
      remove_diagonal(erdos_renyi<IT, VT>(80, 80, 10, 3)));
  MaskedOptions base;
  const auto want = triangle_count(g, base).triangles;
  for (auto algo : msx::testing::all_algos()) {
    for (auto variant : kVariants) {
      MaskedOptions o;
      o.algo = algo;
      EXPECT_EQ(triangle_count(g, o, variant).triangles, want)
          << to_string(algo) << "/" << static_cast<int>(variant);
    }
  }
}

TEST(TriCountVariants, EveryFamilyAndVariantMatchesSerialOracleOnRmat) {
  const auto g = rmat<IT, VT>(9, 7);
  const auto lower = tril_strict(permute_symmetric(g, degree_order_desc(g)));
  const auto oracle = static_cast<std::uint64_t>(reduce_sum(
      reference_masked_spgemm<PlusPair<std::int64_t>>(lower, lower, lower)));
  ASSERT_GT(oracle, 0u);
  for (auto algo : msx::testing::all_algos()) {
    for (auto phases : msx::testing::all_phases()) {
      for (auto variant : kVariants) {
        MaskedOptions o;
        o.algo = algo;
        o.phases = phases;
        const auto r = triangle_count(g, o, variant);
        EXPECT_EQ(r.triangles, oracle)
            << scheme_name(algo, phases) << "/" << static_cast<int>(variant);
        EXPECT_EQ(r.algo, algo);
      }
    }
  }
}

TEST(TriCountVariants, FlopCountsDifferAcrossVariants) {
  // The formulations do different amounts of work on skewed graphs — that is
  // the whole point of choosing among them.
  auto g = rmat<IT, VT>(9, 5);
  MaskedOptions o;
  const auto ll = triangle_count(g, o, TriCountVariant::kLL);
  const auto lu = triangle_count(g, o, TriCountVariant::kLU);
  EXPECT_EQ(ll.triangles, lu.triangles);
  EXPECT_NE(ll.multiplies, lu.multiplies);
}

}  // namespace
}  // namespace msx
