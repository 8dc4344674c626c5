// MaskedClient over LocalBackend (ISSUE 5 tentpole): session pipelining is
// bit-identical to direct masked_spgemm, structure handles reuse shared
// operands zero-copy, the error taxonomy surfaces as typed results, and
// bounded in-flight depth throttles a fast producer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "client/client.hpp"
#include "client/local_backend.hpp"
#include "core/masked_spgemm.hpp"
#include "gen/erdos_renyi.hpp"

using namespace msx;
using namespace msx::client;

using IT = int32_t;
using VT = double;
using SR = PlusTimes<VT>;
using Mat = CSRMatrix<IT, VT>;
using Client = MaskedClient<SR, IT, VT>;
using Local = LocalBackend<SR, IT, VT>;

namespace {

void refresh(Mat& mat, int salt) {
  auto vals = mat.mutable_values();
  for (std::size_t p = 0; p < vals.size(); ++p) {
    vals[p] = 1.0 + static_cast<double>((p + static_cast<std::size_t>(salt)) % 7);
  }
}

}  // namespace

TEST(ClientLocal, PipelinedResultsBitIdenticalToDirectCalls) {
  auto client = make_local_client<SR, IT, VT>();
  auto session = client.open_session({.max_in_flight = 8});

  // Catalog of recurring structures; B and M are stationary per structure.
  const int kStructures = 4;
  const int kRequests = 24;
  std::vector<std::shared_ptr<const Mat>> bs, ms;
  std::vector<Session<SR, IT, VT>::Handle> handles;
  for (int k = 0; k < kStructures; ++k) {
    const IT rows = 60 + 12 * static_cast<IT>(k);
    bs.push_back(std::make_shared<const Mat>(
        erdos_renyi<IT, VT>(rows, rows, 5, 200 + k)));
    ms.push_back(std::make_shared<const Mat>(
        erdos_renyi<IT, VT>(rows, rows, 7, 300 + k)));
    handles.push_back(session.register_structure(
        StructureSpec<IT, VT>(bs.back()).mask(ms.back())));
  }

  std::vector<std::future<Client::Result>> futures;
  std::vector<Mat> want;
  for (int r = 0; r < kRequests; ++r) {
    const auto k = static_cast<std::size_t>(r % kStructures);
    Mat a = erdos_renyi<IT, VT>(bs[k]->nrows(), bs[k]->nrows(), 5,
                                400 + r);
    refresh(a, r);
    want.push_back(masked_spgemm<SR>(a, *bs[k], *ms[k]));
    futures.push_back(session.submit(std::make_shared<const Mat>(std::move(a)),
                                     handles[k]));
  }
  for (int r = 0; r < kRequests; ++r) {
    auto res = futures[static_cast<std::size_t>(r)].get();
    ASSERT_TRUE(res.ok()) << res.message;
    EXPECT_TRUE(res.matrix == want[static_cast<std::size_t>(r)]);
  }
}

// Drain ordering: drain() is the executor's wait_idle(), which returns only
// after every completion is counted — 4 submitting threads x 100 requests,
// futures dropped, and the executor's view is exact after one drain().
TEST(ClientLocal, DrainSettlesCompletionCountsExactly) {
  auto backend = std::make_shared<Local>();
  Client client(backend);
  const auto b =
      std::make_shared<const Mat>(erdos_renyi<IT, VT>(40, 40, 4, 71));
  const auto a =
      std::make_shared<const Mat>(erdos_renyi<IT, VT>(40, 40, 4, 72));

  constexpr int kThreads = 4;
  constexpr int kSubmits = 100;
  std::vector<Session<SR, IT, VT>> sessions;  // one per submitting thread
  for (int t = 0; t < kThreads; ++t) sessions.push_back(client.open_session());
  std::vector<std::thread> threads;
  for (auto& session : sessions) {
    threads.emplace_back([&session, &a, &b] {
      const auto h =
          session.register_structure(StructureSpec<IT, VT>(b).self_mask());
      for (int i = 0; i < kSubmits; ++i) (void)session.submit(a, h);
    });
  }
  for (auto& t : threads) t.join();
  client.drain();
  const auto st = backend->executor().stats();
  EXPECT_EQ(st.submitted, static_cast<std::uint64_t>(kThreads * kSubmits));
  EXPECT_EQ(st.completed, st.submitted);
  EXPECT_EQ(st.pending_jobs, 0u);
}

TEST(ClientLocal, AliasedStructureUsesRegisteredMask) {
  // k-truss shape: A, B and the mask are one matrix, expressed by sharing
  // the pointer. The submit ships/copies nothing beyond the handle.
  auto client = make_local_client<SR, IT, VT>();
  auto session = client.open_session();
  auto a = std::make_shared<const Mat>(erdos_renyi<IT, VT>(90, 90, 6, 42));
  auto handle =
      session.register_structure(StructureSpec<IT, VT>(a).self_mask());

  auto res = session.submit(a, handle).get();
  ASSERT_TRUE(res.ok()) << res.message;
  EXPECT_TRUE(res.matrix == masked_spgemm<SR>(*a, *a, *a));
}

TEST(ClientLocal, PerRequestMaskOverride) {
  auto client = make_local_client<SR, IT, VT>();
  auto session = client.open_session();
  auto b = std::make_shared<const Mat>(erdos_renyi<IT, VT>(70, 70, 5, 1));
  auto handle = session.register_structure(
      StructureSpec<IT, VT>(b));  // no registered mask

  auto a = std::make_shared<const Mat>(erdos_renyi<IT, VT>(70, 70, 5, 2));
  auto m = std::make_shared<const Mat>(erdos_renyi<IT, VT>(70, 70, 7, 3));
  auto res = session.submit(a, m, handle).get();
  ASSERT_TRUE(res.ok()) << res.message;
  EXPECT_TRUE(res.matrix == masked_spgemm<SR>(*a, *b, *m));
}

TEST(ClientLocal, ErrorTaxonomyAsTypedResults) {
  auto client = make_local_client<SR, IT, VT>();
  auto session = client.open_session();
  auto b = std::make_shared<const Mat>(erdos_renyi<IT, VT>(50, 50, 5, 1));
  auto m = std::make_shared<const Mat>(erdos_renyi<IT, VT>(50, 50, 5, 2));
  auto handle =
      session.register_structure(StructureSpec<IT, VT>(b).mask(m));

  // Shape mismatch: validation happens inside the job, surfaces kBadRequest.
  auto bad_a = std::make_shared<const Mat>(erdos_renyi<IT, VT>(40, 40, 5, 3));
  auto res = session.submit(bad_a, handle).get();
  EXPECT_EQ(res.status, RequestStatus::kBadRequest);
  EXPECT_FALSE(res.message.empty());
  EXPECT_THROW(res.value(), std::runtime_error);

  // Invalid handle and missing mask resolve without touching the executor.
  Session<SR, IT, VT>::Handle invalid;
  EXPECT_EQ(session.submit(bad_a, invalid).get().status,
            RequestStatus::kBadRequest);
  auto no_mask = session.register_structure(StructureSpec<IT, VT>(b));
  EXPECT_EQ(session.submit(bad_a, no_mask).get().status,
            RequestStatus::kBadRequest);
}

TEST(ClientLocal, OverloadSurfacesAsTypedResult) {
  // A one-worker executor at its admission limit, with the worker parked:
  // the second submit is refused, typed kOverloaded — no exception.
  BatchLimits limits;
  limits.pool_threads = 1;
  limits.max_pending_jobs = 1;
  limits.admission = AdmissionPolicy::kReject;
  BatchExecutor<SR, IT, VT> exec(limits);
  auto backend = std::make_shared<Local>(exec);
  Client client(backend);
  auto session = client.open_session();

  auto b = std::make_shared<const Mat>(erdos_renyi<IT, VT>(60, 60, 5, 1));
  auto m = std::make_shared<const Mat>(erdos_renyi<IT, VT>(60, 60, 5, 2));
  auto a = std::make_shared<const Mat>(erdos_renyi<IT, VT>(60, 60, 5, 3));
  auto handle =
      session.register_structure(StructureSpec<IT, VT>(b).mask(m));

  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  exec.pool().submit_detached([gate] { gate.wait(); });

  auto first = session.submit(a, handle);   // admitted, stuck behind the gate
  auto second = session.submit(a, handle);  // refused at admission
  auto rejected = second.get();
  EXPECT_EQ(rejected.status, RequestStatus::kOverloaded);

  release.set_value();
  auto ok = first.get();
  ASSERT_TRUE(ok.ok()) << ok.message;
  EXPECT_TRUE(ok.matrix == masked_spgemm<SR>(*a, *b, *m));
}

TEST(ClientLocal, BoundedInFlightDepthBlocksProducer) {
  BatchLimits limits;
  limits.pool_threads = 1;
  BatchExecutor<SR, IT, VT> exec(limits);
  auto backend = std::make_shared<Local>(exec);
  Client client(backend);
  auto session = client.open_session({.max_in_flight = 2});

  auto b = std::make_shared<const Mat>(erdos_renyi<IT, VT>(40, 40, 4, 1));
  auto handle =
      session.register_structure(StructureSpec<IT, VT>(b).self_mask());

  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  exec.pool().submit_detached([gate] { gate.wait(); });

  auto f1 = session.submit(b, handle);
  auto f2 = session.submit(b, handle);
  EXPECT_EQ(session.in_flight(), 2u);

  std::atomic<bool> third_returned{false};
  std::thread producer([&] {
    auto f3 = session.submit(b, handle);
    third_returned.store(true);
    f3.get();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_returned.load());  // depth 2 reached: submit blocks

  release.set_value();
  producer.join();
  EXPECT_TRUE(third_returned.load());
  EXPECT_TRUE(f1.get().ok());
  EXPECT_TRUE(f2.get().ok());
  session.drain();
  EXPECT_EQ(session.in_flight(), 0u);
}

TEST(ClientLocal, InteractivePrioritySubmitsServeCorrectly) {
  auto client = make_local_client<SR, IT, VT>();
  auto session = client.open_session();
  auto b = std::make_shared<const Mat>(erdos_renyi<IT, VT>(50, 50, 5, 9));
  auto handle =
      session.register_structure(StructureSpec<IT, VT>(b).self_mask());
  SubmitOptions interactive;
  interactive.priority = Priority::kInteractive;
  auto res = session.submit(b, handle, interactive).get();
  ASSERT_TRUE(res.ok()) << res.message;
  EXPECT_TRUE(res.matrix == masked_spgemm<SR>(*b, *b, *b));
}

TEST(ClientLocal, SessionReleaseAndReRegister) {
  auto client = make_local_client<SR, IT, VT>();
  auto session = client.open_session();
  auto b = std::make_shared<const Mat>(erdos_renyi<IT, VT>(50, 50, 5, 4));
  auto handle =
      session.register_structure(StructureSpec<IT, VT>(b).self_mask());
  ASSERT_TRUE(session.submit(b, handle).get().ok());

  session.release(handle);
  EXPECT_FALSE(handle.valid());
  // The id is gone backend-side.
  auto stale = session.submit(b, handle).get();
  EXPECT_EQ(stale.status, RequestStatus::kBadRequest);

  auto again =
      session.register_structure(StructureSpec<IT, VT>(b).self_mask());
  EXPECT_TRUE(session.submit(b, again).get().ok());
}
