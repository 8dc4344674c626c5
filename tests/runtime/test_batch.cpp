// BatchExecutor: moldable policy, both lanes, stats, aliasing, error
// propagation and the executor-batched apps.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "apps/bc.hpp"
#include "apps/bfs.hpp"
#include "core/masked_spgemm.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/rmat.hpp"
#include "matrix/ops.hpp"
#include "runtime/batch.hpp"

using namespace msx;

using IT = int32_t;
using VT = double;
using SR = PlusTimes<VT>;
using Mat = CSRMatrix<IT, VT>;
using Exec = BatchExecutor<SR, IT, VT>;

TEST(MoldableShape, ThresholdSplitsSmallAndWide) {
  EXPECT_EQ(moldable_shape(10.0, 100.0), JobShape::kSmall);
  EXPECT_EQ(moldable_shape(100.0, 100.0), JobShape::kWide);
  EXPECT_EQ(moldable_shape(1e12, 100.0), JobShape::kWide);
  // Non-positive threshold forces the small lane.
  EXPECT_EQ(moldable_shape(1e12, 0.0), JobShape::kSmall);
}

TEST(BatchExecutor, SmallJobsMatchDirectCalls) {
  BatchLimits limits;
  limits.pool_threads = 4;
  Exec exec(limits);
  const auto a = erdos_renyi<IT, VT>(120, 120, 5, 1);
  const auto b = erdos_renyi<IT, VT>(120, 120, 5, 2);
  const auto m = erdos_renyi<IT, VT>(120, 120, 7, 3);
  const auto want = masked_spgemm<SR>(a, b, m);

  std::vector<std::future<Mat>> futures;
  for (int i = 0; i < 16; ++i) futures.push_back(exec.submit(a, b, m));
  for (auto& f : futures) EXPECT_TRUE(f.get() == want);

  exec.wait_idle();  // bookkeeping settles after the futures
  const auto st = exec.stats();
  EXPECT_EQ(st.submitted, 16u);
  EXPECT_EQ(st.completed, 16u);
  EXPECT_EQ(st.small_jobs, 16u);
  EXPECT_EQ(st.wide_jobs, 0u);
  EXPECT_GE(st.cache.hits, 1u);
}

TEST(BatchExecutor, WideJobsMatchDirectCalls) {
  BatchLimits limits;
  limits.pool_threads = 4;
  limits.wide_work_threshold = 1.0;  // everything is wide
  Exec exec(limits);
  const auto a = erdos_renyi<IT, VT>(300, 300, 8, 4);
  const auto m = erdos_renyi<IT, VT>(300, 300, 8, 5);
  const auto want = masked_spgemm<SR>(a, a, m);

  std::vector<std::future<Mat>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(exec.submit(a, a, m));
  for (auto& f : futures) EXPECT_TRUE(f.get() == want);
  const auto st = exec.stats();
  EXPECT_EQ(st.wide_jobs, 6u);
  EXPECT_EQ(st.small_jobs, 0u);
}

TEST(BatchExecutor, FullyAliasedOperandsWork) {
  Exec exec;
  const auto a = erdos_renyi<IT, VT>(100, 100, 6, 6);
  const auto want = masked_spgemm<SR>(a, a, a);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(exec.submit(a, a, a).get() == want);
  }
  EXPECT_GE(exec.stats().cache.hits, 3u);
}

TEST(BatchExecutor, ValueRefreshAcrossRepeatedStructure) {
  Exec exec;
  const auto b = erdos_renyi<IT, VT>(90, 90, 5, 7);
  const auto m = erdos_renyi<IT, VT>(90, 90, 6, 8);
  Mat a = erdos_renyi<IT, VT>(90, 90, 5, 9);
  for (int round = 0; round < 4; ++round) {
    for (auto& v : a.mutable_values()) v += static_cast<double>(round);
    const auto want = masked_spgemm<SR>(a, b, m);
    EXPECT_TRUE(exec.submit(a, b, m).get() == want) << round;
  }
}

TEST(BatchExecutor, OptionVariantsAreIndependentlyCached) {
  Exec exec;
  const auto a = erdos_renyi<IT, VT>(110, 110, 6, 10);
  const auto m = erdos_renyi<IT, VT>(110, 110, 7, 11);
  for (auto algo : {MaskedAlgo::kMSA, MaskedAlgo::kHash, MaskedAlgo::kHeap}) {
    for (auto kind : {MaskKind::kMask, MaskKind::kComplement}) {
      MaskedOptions o;
      o.algo = algo;
      o.kind = kind;
      const auto want = masked_spgemm<SR>(a, a, m, o);
      EXPECT_TRUE(exec.submit(a, a, m, o).get() == want)
          << to_string(algo) << "/" << to_string(kind);
    }
  }
  EXPECT_EQ(exec.stats().cache.misses, 6u);
}

TEST(BatchExecutor, ErrorsSurfaceAtFutureGet) {
  Exec exec;
  const auto a = erdos_renyi<IT, VT>(50, 50, 4, 12);
  const auto bad = erdos_renyi<IT, VT>(40, 40, 4, 13);  // dimension mismatch
  auto f = exec.submit(a, bad, a);
  EXPECT_THROW(f.get(), std::invalid_argument);
  // MCA × complement is rejected by the registry.
  MaskedOptions o;
  o.algo = MaskedAlgo::kMCA;
  o.kind = MaskKind::kComplement;
  auto f2 = exec.submit(a, a, a, o);
  EXPECT_THROW(f2.get(), std::invalid_argument);
  // The completion form receives the same error as an exception_ptr, and a
  // successful job's result with its run time.
  const auto sa = std::make_shared<const Mat>(a);
  const auto sbad = std::make_shared<const Mat>(bad);
  std::promise<Exec::JobResult> failed;
  std::promise<Exec::JobResult> ok;
  exec.submit_shared(sa, sbad, sa, {}, {}, nullptr, [&](Exec::JobResult r) {
    failed.set_value(std::move(r));
  });
  exec.submit_shared(sa, sa, sa, {}, {}, nullptr,
                     [&](Exec::JobResult r) { ok.set_value(std::move(r)); });
  const auto r3 = failed.get_future().get();
  ASSERT_TRUE(r3.error != nullptr);
  EXPECT_THROW(std::rethrow_exception(r3.error), std::invalid_argument);
  const auto r4 = ok.get_future().get();
  EXPECT_TRUE(r4.error == nullptr);
  EXPECT_GT(r4.run_ns, 0u);
  EXPECT_TRUE(r4.matrix == masked_spgemm<SR>(a, a, a));
  exec.wait_idle();
  EXPECT_EQ(exec.stats().completed, 4u);
}

TEST(BatchExecutor, DisabledPlanCachePlansEveryJob) {
  BatchLimits limits;
  limits.cache_plans = false;
  Exec exec(limits);
  const auto a = erdos_renyi<IT, VT>(80, 80, 5, 14);
  const auto want = masked_spgemm<SR>(a, a, a);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(exec.submit(a, a, a).get() == want);
  EXPECT_EQ(exec.stats().cache.hits, 0u);
}

TEST(Admission, RejectPolicyThrowsWhenPendingJobsAtLimit) {
  BatchLimits limits;
  limits.pool_threads = 1;
  limits.max_pending_jobs = 1;
  limits.admission = AdmissionPolicy::kReject;
  Exec exec(limits);
  const auto a = erdos_renyi<IT, VT>(70, 70, 5, 20);
  const auto want = masked_spgemm<SR>(a, a, a);

  // Park the only pool worker so the first job stays pending.
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  exec.pool().submit_detached([opened] { opened.wait(); });

  auto f1 = exec.submit(a, a, a);
  EXPECT_THROW(exec.submit(a, a, a), BatchRejected);
  {
    const auto st = exec.stats();
    EXPECT_EQ(st.rejected, 1u);
    EXPECT_EQ(st.submitted, 1u);  // rejected jobs are not submitted
    EXPECT_EQ(st.pending_jobs, 1u);
    EXPECT_GT(st.pending_bytes, 0u);
  }
  gate.set_value();
  EXPECT_TRUE(f1.get() == want);
  exec.wait_idle();
  // Capacity freed: the executor admits again.
  EXPECT_TRUE(exec.submit(a, a, a).get() == want);
  exec.wait_idle();  // futures settle slightly before the gauges do
  const auto st = exec.stats();
  EXPECT_EQ(st.pending_jobs, 0u);
  EXPECT_EQ(st.pending_bytes, 0u);
}

TEST(Admission, BlockPolicyWaitsForCapacityInsteadOfRejecting) {
  BatchLimits limits;
  limits.pool_threads = 1;
  limits.max_pending_jobs = 1;
  limits.admission = AdmissionPolicy::kBlock;
  Exec exec(limits);
  const auto a = erdos_renyi<IT, VT>(60, 60, 5, 21);
  const auto want = masked_spgemm<SR>(a, a, a);

  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  exec.pool().submit_detached([opened] { opened.wait(); });

  auto f1 = exec.submit(a, a, a);
  std::thread submitter([&] {
    // Blocks in admit() until job 1 completes, then runs to completion.
    auto f2 = exec.submit(a, a, a);
    EXPECT_TRUE(f2.get() == want);
  });
  // Wait until the submitter is provably parked at the admission gate.
  while (exec.stats().admission_blocks == 0) std::this_thread::yield();
  EXPECT_EQ(exec.stats().submitted, 1u);

  gate.set_value();
  submitter.join();
  EXPECT_TRUE(f1.get() == want);
  exec.wait_idle();
  const auto st = exec.stats();
  EXPECT_EQ(st.submitted, 2u);
  EXPECT_EQ(st.completed, 2u);
  EXPECT_EQ(st.rejected, 0u);
  EXPECT_GE(st.admission_blocks, 1u);
}

TEST(Admission, ByteBoundAdmitsOversizedJobWhenAlone) {
  BatchLimits limits;
  limits.pool_threads = 1;
  limits.max_pending_bytes = 1;  // every job is oversized
  limits.admission = AdmissionPolicy::kReject;
  Exec exec(limits);
  const auto a = erdos_renyi<IT, VT>(80, 80, 5, 22);
  const auto want = masked_spgemm<SR>(a, a, a);

  // Alone -> admitted despite exceeding the byte bound (liveness).
  EXPECT_TRUE(exec.submit(a, a, a).get() == want);
  exec.wait_idle();

  // With one in flight, the byte bound rejects the next.
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  exec.pool().submit_detached([opened] { opened.wait(); });
  auto f1 = exec.submit(a, a, a);
  EXPECT_THROW(exec.submit(a, a, a), BatchRejected);
  gate.set_value();
  EXPECT_TRUE(f1.get() == want);
}

TEST(Admission, UnboundedByDefault) {
  Exec exec;
  const auto a = erdos_renyi<IT, VT>(50, 50, 4, 23);
  std::vector<std::future<Mat>> fs;
  for (int i = 0; i < 32; ++i) fs.push_back(exec.submit(a, a, a));
  for (auto& f : fs) f.get();
  const auto st = exec.stats();
  EXPECT_EQ(st.rejected, 0u);
  EXPECT_EQ(st.admission_blocks, 0u);
}

TEST(BatchedBC, MatchesMonolithicBC) {
  const auto graph = symmetrize_pattern(rmat<IT, VT>(7, 77));
  std::vector<IT> sources;
  for (IT q = 0; q < 12; ++q) {
    sources.push_back(static_cast<IT>((q * 37) % graph.nrows()));
  }
  MaskedOptions opts;
  opts.algo = MaskedAlgo::kMSA;
  const auto want = betweenness_centrality(graph, sources, opts);

  BatchExecutor<PlusTimes<double>, IT, double> exec;
  const auto got = betweenness_centrality(graph, sources, exec, 4, opts);
  ASSERT_EQ(got.centrality.size(), want.centrality.size());
  EXPECT_EQ(got.depth, want.depth);
  for (std::size_t v = 0; v < want.centrality.size(); ++v) {
    EXPECT_DOUBLE_EQ(got.centrality[v], want.centrality[v]) << v;
  }
}

TEST(BatchedBFS, MatchesMonolithicBFS) {
  const auto graph = rmat<IT, VT>(8, 99);
  std::vector<IT> sources;
  for (IT q = 0; q < 10; ++q) {
    sources.push_back(static_cast<IT>((q * 53 + 5) % graph.nrows()));
  }
  MaskedOptions opts;
  opts.algo = MaskedAlgo::kHash;
  const auto want = multi_source_bfs(graph, sources, opts);

  BatchExecutor<PlusPair<std::int64_t>, IT, std::int64_t> exec;
  const auto got = multi_source_bfs(graph, sources, exec, 3, opts);
  EXPECT_EQ(got.depth, want.depth);
  EXPECT_EQ(got.levels, want.levels);
}

// --- priority queue (ISSUE 5 satellite: executor priorities) ---------------

TEST(PriorityQueue, InteractiveJobsPopBeforeBatchJobs) {
  // One parked worker, five queued small jobs: the two interactive submits
  // must execute before the three batch submits, FIFO within each level.
  BatchLimits limits;
  limits.pool_threads = 1;
  Exec exec(limits);
  const auto a =
      std::make_shared<const Mat>(erdos_renyi<IT, VT>(50, 50, 5, 31));

  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  exec.pool().submit_detached([opened] { opened.wait(); });

  std::mutex order_mu;
  std::vector<int> order;
  auto tagged = [&](int tag, Priority prio) {
    JobOptions job;
    job.priority = prio;
    exec.submit_shared(a, a, a, MaskedOptions{}, job, nullptr,
                       [&, tag](Exec::JobResult r) {
                         EXPECT_TRUE(r.error == nullptr);
                         std::lock_guard<std::mutex> lock(order_mu);
                         order.push_back(tag);
                       });
  };

  tagged(100, Priority::kBatch);
  tagged(101, Priority::kBatch);
  tagged(1, Priority::kInteractive);
  tagged(102, Priority::kBatch);
  tagged(2, Priority::kInteractive);

  gate.set_value();
  exec.wait_idle();

  const std::vector<int> want{1, 2, 100, 101, 102};
  EXPECT_EQ(order, want);
  EXPECT_EQ(exec.stats().interactive_jobs, 2u);
}

TEST(PriorityQueue, WideLaneAlsoPrefersInteractive) {
  // Force every job wide (threshold 0 forces small; a tiny positive
  // threshold lands everything in the wide lane). The first job's
  // completion blocks the lane on a gate — it runs on the wide thread,
  // which cannot pop the next job until the hook returns — so the jobs
  // queued behind it are ordered deterministically: interactive first.
  BatchLimits limits;
  limits.pool_threads = 1;
  limits.wide_work_threshold = 1e-9;
  Exec exec(limits);
  const auto a =
      std::make_shared<const Mat>(erdos_renyi<IT, VT>(60, 60, 5, 32));
  const auto want_mat = masked_spgemm<SR>(*a, *a, *a);

  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::promise<void> parked;
  std::mutex order_mu;
  std::vector<int> order;
  auto tagged = [&](int tag, Priority prio, bool stall) {
    JobOptions job;
    job.priority = prio;
    exec.submit_shared(a, a, a, MaskedOptions{}, job, nullptr,
                       [&, tag, stall](Exec::JobResult r) {
                         EXPECT_TRUE(r.matrix == want_mat);
                         if (stall) {
                           // The lane is provably busy with this job now.
                           parked.set_value();
                           opened.wait();
                         }
                         std::lock_guard<std::mutex> lock(order_mu);
                         order.push_back(tag);
                       });
  };

  tagged(0, Priority::kBatch, /*stall=*/true);
  parked.get_future().wait();  // everything below queues BEHIND job 0
  tagged(100, Priority::kBatch, false);
  tagged(101, Priority::kBatch, false);
  tagged(1, Priority::kInteractive, false);
  gate.set_value();
  exec.wait_idle();
  const std::vector<int> want{0, 1, 100, 101};
  EXPECT_EQ(order, want);
  EXPECT_EQ(exec.stats().wide_jobs, 4u);
}
