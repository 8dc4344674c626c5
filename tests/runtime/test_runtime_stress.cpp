// Runtime stress: hundreds of mixed-size submits through the BatchExecutor,
// every result bit-identical to a direct masked_spgemm call (ISSUE 3
// satellite). This is the suite the CI TSan job runs with OMP_NUM_THREADS=1:
// all runtime concurrency is std::thread/mutex/atomic-based and fully
// modeled by ThreadSanitizer.
#include <gtest/gtest.h>

#include <cstddef>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "core/masked_spgemm.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/rmat.hpp"
#include "runtime/batch.hpp"

using namespace msx;

using IT = int32_t;
using VT = double;
using SR = PlusTimes<VT>;
using Mat = CSRMatrix<IT, VT>;

namespace {

struct Request {
  Mat a, b, m;
  MaskedOptions opts;
  Mat want;
};

// A mixed workload: tiny through mid-size structures, several algorithm
// families, both mask kinds, skewed and uniform degree distributions.
std::vector<Request> make_requests() {
  std::vector<Request> reqs;
  const MaskedAlgo algos[] = {MaskedAlgo::kMSA, MaskedAlgo::kHash,
                              MaskedAlgo::kHeap, MaskedAlgo::kAuto};
  const IT sizes[] = {24, 64, 150, 400, 900};
  unsigned seed = 1;
  for (IT n : sizes) {
    for (MaskedAlgo algo : algos) {
      for (MaskKind kind : {MaskKind::kMask, MaskKind::kComplement}) {
        Request r;
        r.a = erdos_renyi<IT, VT>(n, n, 5, seed++);
        r.b = erdos_renyi<IT, VT>(n, n, 5, seed++);
        r.m = erdos_renyi<IT, VT>(n, n, 6, seed++);
        r.opts.algo = algo;
        r.opts.kind = kind;
        r.want = masked_spgemm<SR>(r.a, r.b, r.m, r.opts);
        reqs.push_back(std::move(r));
      }
    }
  }
  // One skewed structure large enough for the wide lane under the default
  // threshold.
  {
    Request r;
    r.a = rmat<IT, VT>(10, 7);
    r.b = rmat<IT, VT>(10, 8);
    r.m = rmat<IT, VT>(10, 9);
    r.want = masked_spgemm<SR>(r.a, r.b, r.m, r.opts);
    reqs.push_back(std::move(r));
  }
  return reqs;
}

}  // namespace

TEST(RuntimeStress, HundredsOfMixedSubmitsAreBitIdentical) {
  const auto requests = make_requests();
  BatchLimits limits;
  limits.pool_threads = 8;
  limits.plan_cache_capacity = 24;  // below the key count: exercises LRU
  limits.wide_work_threshold = 2e4;  // pushes the mid-size jobs wide too
  BatchExecutor<SR, IT, VT> exec(limits);

  // Several rounds over every request, interleaved, all in flight at once.
  std::vector<std::pair<std::size_t, std::future<Mat>>> inflight;
  for (int round = 0; round < 8; ++round) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const auto& r = requests[i];
      inflight.emplace_back(i, exec.submit(r.a, r.b, r.m, r.opts));
    }
  }
  ASSERT_GE(inflight.size(), 300u);

  std::size_t mismatches = 0;
  for (auto& [i, fut] : inflight) {
    if (!(fut.get() == requests[i].want)) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u);

  // future.get() returns when the result is ready; the executor's own
  // bookkeeping settles at wait_idle().
  exec.wait_idle();
  const auto st = exec.stats();
  EXPECT_EQ(st.submitted, inflight.size());
  EXPECT_EQ(st.completed, inflight.size());
  EXPECT_GT(st.small_jobs, 0u);
  EXPECT_GT(st.wide_jobs, 0u);
  EXPECT_GT(st.cache.hits, 0u);
}

TEST(RuntimeStress, ValueChurnOnRecurringStructure) {
  // Same structures resubmitted with changing values — the plan-cache
  // value-refresh path under concurrency.
  const auto b = erdos_renyi<IT, VT>(200, 200, 6, 101);
  const auto m = erdos_renyi<IT, VT>(200, 200, 7, 102);
  Mat a = erdos_renyi<IT, VT>(200, 200, 6, 103);

  BatchLimits limits;
  limits.pool_threads = 4;
  BatchExecutor<SR, IT, VT> exec(limits);

  for (int round = 0; round < 8; ++round) {
    auto vals = a.mutable_values();
    for (std::size_t p = 0; p < vals.size(); ++p) {
      vals[p] = static_cast<double>((p + static_cast<std::size_t>(round)) % 9) + 0.5;
    }
    const auto want = masked_spgemm<SR>(a, b, m);
    std::vector<std::future<Mat>> burst;
    for (int j = 0; j < 12; ++j) burst.push_back(exec.submit(a, b, m));
    for (auto& f : burst) EXPECT_TRUE(f.get() == want) << round;
  }
  EXPECT_GT(exec.stats().cache.hits, 0u);
}

TEST(RuntimeStress, SharedWarmPlanSupportsConcurrentExecute) {
  // A single warmed plan executed concurrently: the kernel leases a
  // workspace pool per run, so accumulators are never shared.
  const auto a = erdos_renyi<IT, VT>(300, 300, 7, 111);
  const auto m = erdos_renyi<IT, VT>(300, 300, 8, 112);
  auto plan = masked_plan<SR>(a, a, m);
  const auto want = plan.execute();  // warms symbolic + partition caches

  ThreadPool pool(6);
  std::vector<std::future<bool>> futures;
  for (int i = 0; i < 24; ++i) {
    futures.push_back(pool.submit(
        [&] { return plan.execute(ExecContext::serial()) == want; }));
  }
  for (auto& f : futures) EXPECT_TRUE(f.get());
}

// Drain ordering: a job's completion is counted before wait_idle() can
// return, so concurrent submitters that drop their futures still settle to
// completed == submitted exactly, with nothing but wait_idle() in between.
TEST(RuntimeStress, WaitIdleSettlesCompletionCountsExactly) {
  const auto a = erdos_renyi<IT, VT>(40, 40, 4, 121);
  const auto b = erdos_renyi<IT, VT>(40, 40, 4, 122);
  const auto m = erdos_renyi<IT, VT>(40, 40, 5, 123);
  BatchLimits limits;
  limits.pool_threads = 4;
  BatchExecutor<SR, IT, VT> exec(limits);

  constexpr int kThreads = 4;
  constexpr int kSubmits = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kSubmits; ++i) (void)exec.submit(a, b, m);
    });
  }
  for (auto& t : threads) t.join();
  exec.wait_idle();
  const auto st = exec.stats();
  EXPECT_EQ(st.submitted, static_cast<std::uint64_t>(kThreads * kSubmits));
  EXPECT_EQ(st.completed, st.submitted);
  EXPECT_EQ(st.pending_jobs, 0u);
}
