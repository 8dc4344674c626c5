// PlanCache: fingerprint discrimination, leases, LRU eviction and the
// value-refresh contract.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/masked_spgemm.hpp"
#include "core/plan.hpp"
#include "gen/erdos_renyi.hpp"
#include "runtime/plan_cache.hpp"

using namespace msx;

using IT = int32_t;
using VT = double;
using SR = PlusTimes<VT>;
using Mat = CSRMatrix<IT, VT>;
using Cache = PlanCache<SR, IT, VT>;

namespace {

Mat mat(IT n, IT deg, unsigned seed) {
  return erdos_renyi<IT, VT>(n, n, deg, seed);
}

}  // namespace

TEST(PlanFingerprint, DiscriminatesStructureOptionsAndAliasing) {
  const auto a = mat(60, 5, 1);
  const auto b = mat(60, 5, 2);
  const auto m = mat(60, 6, 3);
  MaskedOptions opts;

  const auto base = plan_fingerprint(a, b, m, opts);
  EXPECT_EQ(base, plan_fingerprint(a, b, m, opts));  // deterministic

  // Different structure.
  const auto a2 = mat(60, 5, 4);
  EXPECT_FALSE(base == plan_fingerprint(a2, b, m, opts));

  // Same structure, different values: SAME key (values are refreshed).
  Mat a_vals = a;
  for (auto& v : a_vals.mutable_values()) v += 1.0;
  EXPECT_EQ(base, plan_fingerprint(a_vals, b, m, opts));

  // Options participate.
  MaskedOptions o2;
  o2.algo = MaskedAlgo::kHash;
  EXPECT_FALSE(base == plan_fingerprint(a, b, m, o2));
  MaskedOptions o3;
  o3.kind = MaskKind::kComplement;
  EXPECT_FALSE(base == plan_fingerprint(a, b, m, o3));

  // Aliasing participates: (a, a, m) with B aliasing A differs from two
  // structurally identical but distinct operands.
  Mat a_copy = a;
  EXPECT_FALSE(plan_fingerprint(a, a, m, opts) ==
               plan_fingerprint(a, a_copy, m, opts));
}

TEST(PlanCache, HitsAfterMissAndComputesCorrectly) {
  obs::Registry reg;
  Cache cache(reg, 8);
  const auto a = mat(80, 6, 11);
  const auto b = mat(80, 6, 12);
  const auto m = mat(80, 8, 13);
  const auto want = masked_spgemm<SR>(a, b, m);

  {
    auto lease = cache.acquire(a, b, m);
    EXPECT_FALSE(lease.reused());
    EXPECT_TRUE(lease.plan().execute() == want);
  }
  {
    auto lease = cache.acquire(a, b, m);
    EXPECT_TRUE(lease.reused());
    EXPECT_TRUE(lease.plan().execute() == want);
  }
  const auto st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.instances, 1u);
  // The registry is the storage: counters and render-time gauges agree with
  // the view without any publish step.
  const std::string page = reg.render();
  EXPECT_NE(page.find("msx_plan_cache_hits_total 1\n"), std::string::npos);
  EXPECT_NE(page.find("msx_plan_cache_misses_total 1\n"), std::string::npos);
  EXPECT_NE(page.find("msx_plan_cache_instances 1\n"), std::string::npos);
  EXPECT_NE(page.find("msx_plan_cache_hit_rate 0.5\n"), std::string::npos);
}

TEST(PlanCache, ConcurrentLeasesOfSameKeyGetDistinctInstances) {
  obs::Registry reg;
  Cache cache(reg, 8);
  const auto a = mat(80, 6, 21);
  const auto b = mat(80, 6, 22);
  const auto m = mat(80, 8, 23);

  auto l1 = cache.acquire(a, b, m);
  auto l2 = cache.acquire(a, b, m);  // first is busy -> extra instance
  EXPECT_NE(&l1.plan(), &l2.plan());
  const auto st = cache.stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.grows, 1u);
  EXPECT_EQ(st.instances, 2u);
}

TEST(PlanCache, LruEvictsColdEntries) {
  obs::Registry reg;
  Cache cache(reg, 2);
  const auto m = mat(40, 4, 30);
  std::vector<Mat> as;
  for (unsigned s = 0; s < 4; ++s) as.push_back(mat(40, 4, 31 + s));

  for (const auto& a : as) {
    auto lease = cache.acquire(a, a, m);  // 4 distinct keys, capacity 2
  }
  const auto st = cache.stats();
  EXPECT_EQ(st.misses, 4u);
  EXPECT_GE(st.evictions, 2u);
  EXPECT_LE(st.instances, 2u);

  // The oldest entry is gone: re-acquiring it is a miss; the newest should
  // still be cached.
  { auto lease = cache.acquire(as[0], as[0], m); }
  { auto lease = cache.acquire(as[3], as[3], m); }
  const auto st2 = cache.stats();
  EXPECT_EQ(st2.misses, 5u);  // as[0] re-planned
  EXPECT_EQ(st2.hits, 1u);    // as[3] still warm
}

TEST(PlanCache, BusyInstancesSurviveEviction) {
  obs::Registry reg;
  Cache cache(reg, 1);
  const auto m = mat(40, 4, 40);
  const auto a1 = mat(40, 4, 41);
  const auto a2 = mat(40, 4, 42);
  const auto want1 = masked_spgemm<SR>(a1, a1, m);

  auto lease = cache.acquire(a1, a1, m);
  {
    // Fills the only capacity slot; a1's entry is LRU but busy, so the
    // cache exceeds capacity instead of invalidating the lease.
    auto other = cache.acquire(a2, a2, m);
  }
  EXPECT_TRUE(lease.plan().execute() == want1);
}

TEST(PlanCache, ValueRefreshOnHitMatchesDirectCall) {
  obs::Registry reg;
  Cache cache(reg, 4);
  const auto a = mat(70, 5, 51);
  const auto b = mat(70, 5, 52);
  const auto m = mat(70, 7, 53);
  { auto lease = cache.acquire(a, b, m); (void)lease.plan().execute(); }

  Mat a2 = a;
  for (auto& v : a2.mutable_values()) v *= 3.0;
  const auto want = masked_spgemm<SR>(a2, b, m);
  auto lease = cache.acquire(a2, b, m);
  ASSERT_TRUE(lease.reused());
  EXPECT_TRUE(lease.plan().execute_values(a2.values(), b.values()) == want);
}

TEST(PlanResidentBytes, CoversOperandCopiesAndCaches) {
  const auto a = mat(200, 6, 71);
  const auto b = mat(200, 6, 72);
  const auto m = mat(200, 8, 73);

  auto plan = masked_plan<SR>(a, b, m);
  // At least the three operand copies must be accounted.
  EXPECT_GE(plan.resident_bytes(), a.storage_bytes() + b.storage_bytes() +
                                       m.rowptr().size_bytes() +
                                       m.colidx().size_bytes());

  // Aliased operands are stored once, so the plan is smaller.
  auto aliased = masked_plan<SR>(a, a, a);
  EXPECT_LT(aliased.resident_bytes(), plan.resident_bytes());

  // A pull-based plan additionally holds the CSC of B + permutation.
  MaskedOptions inner;
  inner.algo = MaskedAlgo::kInner;
  auto pulled = masked_plan<SR>(a, b, m, inner);
  EXPECT_TRUE(pulled.caches_csc());
  EXPECT_GT(pulled.resident_bytes(), plan.resident_bytes());
}

TEST(PlanCacheByteBudget, EvictsLruUntilUnderBudget) {
  // Budget sized to hold roughly two of the four plans.
  const auto m = mat(300, 6, 80);
  std::vector<Mat> as;
  for (unsigned s = 0; s < 4; ++s) as.push_back(mat(300, 6, 81 + s));

  std::size_t one_plan_bytes = 0;
  {
    auto probe = masked_plan<SR>(as[0], as[0], m);
    one_plan_bytes = probe.resident_bytes();
  }

  obs::Registry reg;
  Cache cache(reg, /*capacity=*/16,
              /*byte_budget=*/2 * one_plan_bytes + one_plan_bytes / 2);
  for (const auto& a : as) {
    auto lease = cache.acquire(a, a, m);
  }
  const auto st = cache.stats();
  EXPECT_EQ(st.misses, 4u);
  // Entry capacity (16) never binds; the byte budget forced evictions.
  EXPECT_GE(st.evictions, 1u);
  EXPECT_LE(st.bytes_held, cache.byte_budget());
  EXPECT_LT(st.instances, 4u);

  // MRU survives, LRU was evicted.
  { auto lease = cache.acquire(as[3], as[3], m); }
  { auto lease = cache.acquire(as[0], as[0], m); }
  const auto st2 = cache.stats();
  EXPECT_EQ(st2.hits, 1u);    // as[3] still resident
  EXPECT_EQ(st2.misses, 5u);  // as[0] had been evicted
}

TEST(PlanCacheByteBudget, ZeroBudgetMeansUnlimited) {
  obs::Registry reg;
  Cache cache(reg, 8);  // default: entry-count LRU only
  const auto m = mat(100, 5, 90);
  std::vector<Mat> as;
  for (unsigned s = 0; s < 6; ++s) as.push_back(mat(100, 5, 91 + s));
  for (const auto& a : as) {
    auto lease = cache.acquire(a, a, m);
  }
  const auto st = cache.stats();
  EXPECT_EQ(st.evictions, 0u);  // under entry capacity, bytes unconstrained
  EXPECT_GT(st.bytes_held, 0u);

  cache.clear();
  EXPECT_EQ(cache.stats().bytes_held, 0u);
  EXPECT_EQ(cache.stats().instances, 0u);
}

TEST(PlanCacheByteBudget, LeaseReleaseRefreshesLazilyBuiltBytes) {
  // The two-phase symbolic rowptr is built by the first execute(), after
  // the insert-time measurement; handing the lease back must re-account.
  obs::Registry reg;
  Cache cache(reg, 8);
  const auto a = mat(150, 6, 99);
  const auto m = mat(150, 7, 100);
  MaskedOptions opts;
  opts.algo = MaskedAlgo::kHash;
  opts.phases = PhaseMode::kTwoPhase;

  std::uint64_t at_insert = 0;
  {
    auto lease = cache.acquire(a, a, m, opts);
    at_insert = cache.stats().bytes_held;
    EXPECT_GT(at_insert, 0u);
    (void)lease.plan().execute();
  }
  EXPECT_GT(cache.stats().bytes_held, at_insert);
}

TEST(PlanCacheByteBudget, BusyInstancesAreNotEvictedByBytes) {
  const auto m = mat(200, 6, 95);
  const auto a1 = mat(200, 6, 96);
  const auto a2 = mat(200, 6, 97);
  // Budget below a single plan: every insert is over budget immediately.
  obs::Registry reg;
  Cache cache(reg, 8, /*byte_budget=*/1);
  auto lease = cache.acquire(a1, a1, m);
  {
    auto other = cache.acquire(a2, a2, m);
    // Both leased: nothing evictable, the cache exceeds its budget softly.
    EXPECT_EQ(cache.stats().instances, 2u);
  }
  // a2's lease returned; the next insert can evict it, but never the busy a1.
  const auto a3 = mat(200, 6, 98);
  { auto third = cache.acquire(a3, a3, m); }
  const auto want1 = masked_spgemm<SR>(a1, a1, m);
  EXPECT_TRUE(lease.plan().execute() == want1);
}

TEST(PlanCache, ParallelAcquireIsSafe) {
  obs::Registry reg;
  Cache cache(reg, 16);
  const auto a = mat(60, 5, 61);
  const auto b = mat(60, 5, 62);
  const auto m = mat(60, 6, 63);
  const auto want = masked_spgemm<SR>(a, b, m);

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int r = 0; r < 20; ++r) {
        auto lease = cache.acquire(a, b, m);
        auto got = lease.reused()
                       ? lease.plan().execute_values(a.values(), b.values(),
                                                     ExecContext::serial())
                       : lease.plan().execute(ExecContext::serial());
        if (!(got == want)) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  const auto st = cache.stats();
  EXPECT_EQ(st.hits + st.misses + st.grows, 80u);
}
