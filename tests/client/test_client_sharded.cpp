// MaskedClient over ShardedBackend (ISSUE 5 tentpole): pipelined submits are
// bit-identical to direct masked_spgemm, responses resolve to the right
// future by request id even when they arrive out of order, shutdown with
// futures in flight resolves them (typed, never hanging), a shard dying
// mid-pipeline re-submits its in-flight requests without loss or
// duplication, an overloaded shard spills one request without losing its
// affinity, a throwing dial marks its shard down, and down shards are
// probed back up (ROADMAP health-probe item).
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "client/client.hpp"
#include "client/sharded_backend.hpp"
#include "core/masked_spgemm.hpp"
#include "gen/erdos_renyi.hpp"
#include "service/shard.hpp"

using namespace msx;
using namespace msx::client;
using msx::service::LoopbackListener;
using msx::service::ServiceShard;
using msx::service::ShardEndpoint;

using IT = int32_t;
using VT = double;
using SR = PlusTimes<VT>;
using Mat = CSRMatrix<IT, VT>;
using Shard = ServiceShard<SR, IT, VT>;
using Client = MaskedClient<SR, IT, VT>;
using Sharded = ShardedBackend<SR, IT, VT>;

namespace {

struct Fleet {
  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<ShardEndpoint> endpoints;

  explicit Fleet(std::size_t n, service::ShardConfig cfg = {}) {
    for (std::size_t i = 0; i < n; ++i) {
      shards.push_back(std::make_unique<Shard>(cfg));
      auto listener = std::make_unique<LoopbackListener>();
      auto* raw = listener.get();
      shards.back()->serve(std::move(listener));
      endpoints.push_back(ShardEndpoint{"shard-" + std::to_string(i),
                                        [raw] { return raw->connect(); }});
    }
  }
};

void refresh(Mat& mat, int salt) {
  auto vals = mat.mutable_values();
  for (std::size_t p = 0; p < vals.size(); ++p) {
    vals[p] = 1.0 + static_cast<double>((p + static_cast<std::size_t>(salt)) % 7);
  }
}

}  // namespace

TEST(ClientSharded, PipelinedBitIdenticalAcrossShards) {
  Fleet fleet(3);
  auto backend = std::make_shared<Sharded>(fleet.endpoints);
  Client client(backend);
  auto session = client.open_session({.max_in_flight = 8});

  const int kStructures = 6;
  const int kRequests = 30;
  std::vector<std::shared_ptr<const Mat>> bs, ms;
  std::vector<Session<SR, IT, VT>::Handle> handles;
  for (int k = 0; k < kStructures; ++k) {
    const IT rows = 60 + 14 * static_cast<IT>(k);
    bs.push_back(std::make_shared<const Mat>(
        erdos_renyi<IT, VT>(rows, rows, 5, 500 + k)));
    ms.push_back(std::make_shared<const Mat>(
        erdos_renyi<IT, VT>(rows, rows, 7, 600 + k)));
    handles.push_back(session.register_structure(
        StructureSpec<IT, VT>(bs[static_cast<std::size_t>(k)])
            .mask(ms[static_cast<std::size_t>(k)])));
  }

  // Per-structure A patterns stay fixed (that is what makes the shard's plan
  // cache warm); only the numeric values change per request.
  std::vector<Mat> as;
  for (int k = 0; k < kStructures; ++k) {
    as.push_back(erdos_renyi<IT, VT>(bs[static_cast<std::size_t>(k)]->nrows(),
                                     bs[static_cast<std::size_t>(k)]->nrows(),
                                     5, 700 + k));
  }
  std::vector<std::future<Client::Result>> futures;
  std::vector<Mat> want;
  for (int r = 0; r < kRequests; ++r) {
    const auto k = static_cast<std::size_t>(r % kStructures);
    Mat a = as[k];
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

  backend->drain();  // bookkeeping settles after the futures
  const auto st = backend->stats();
  EXPECT_EQ(st.submitted, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(st.completed, static_cast<std::uint64_t>(kRequests));
  // The stationary operands were registered, not shipped per request: every
  // shard that served traffic saw at least one registration, and repeated
  // structures hit warm plans server-side.
  std::uint64_t registrations = 0, hits = 0;
  for (std::size_t i = 0; i < fleet.shards.size(); ++i) {
    const auto ss = fleet.shards[i]->stats();
    registrations += ss.registrations;
    hits += ss.cache_hits;
  }
  EXPECT_GE(registrations, static_cast<std::uint64_t>(kStructures));
  EXPECT_GT(hits, 0u);
}

// Drain ordering: the backend counts a completion before inflight_total_
// drops, so after drain() the view is exact — 4 submitting threads x 100
// requests, futures dropped, nothing but drain() in between.
TEST(ClientSharded, DrainSettlesCompletionCountsExactly) {
  Fleet fleet(2);
  auto backend = std::make_shared<Sharded>(fleet.endpoints);
  Client client(backend);
  const auto b =
      std::make_shared<const Mat>(erdos_renyi<IT, VT>(40, 40, 4, 91));
  const auto a =
      std::make_shared<const Mat>(erdos_renyi<IT, VT>(40, 40, 4, 92));

  constexpr int kThreads = 4;
  constexpr int kSubmits = 100;
  // One session per thread (sessions are single-caller); kept open past
  // drain() so no release traffic overlaps the check.
  std::vector<Session<SR, IT, VT>> sessions;
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
  backend->drain();
  const auto st = backend->stats();
  EXPECT_EQ(st.submitted, static_cast<std::uint64_t>(kThreads * kSubmits));
  EXPECT_EQ(st.completed, st.submitted);
  std::uint64_t routed = 0;
  for (const auto r : st.routed) routed += r;
  EXPECT_EQ(routed, st.submitted);
}

TEST(ClientSharded, AliasedKTrussStyleSubmitShipsOnlyFlags) {
  Fleet fleet(2);
  auto backend = std::make_shared<Sharded>(fleet.endpoints);
  Client client(backend);
  auto session = client.open_session();

  auto a = std::make_shared<const Mat>(erdos_renyi<IT, VT>(80, 80, 6, 11));
  auto handle =
      session.register_structure(StructureSpec<IT, VT>(a).self_mask());
  auto res = session.submit(a, handle).get();
  ASSERT_TRUE(res.ok()) << res.message;
  EXPECT_TRUE(res.matrix == masked_spgemm<SR>(*a, *a, *a));
}

// A hand-rolled server that answers correctly but in REVERSE order of
// arrival within each batch: completions must still land on the right
// futures via request-id matching.
TEST(ClientSharded, OutOfOrderResponsesResolveByRequestId) {
  auto listener = std::make_shared<LoopbackListener>();
  const int kBatch = 4;

  std::thread server([listener] {
    auto stream = listener->accept();
    ASSERT_NE(stream, nullptr);
    std::unordered_map<std::uint64_t, service::WireRegister<IT, VT>> registry;
    std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>> replies;
    service::FrameHeader header;
    std::vector<std::uint8_t> payload;
    int served = 0;
    try {
      while (recv_frame(*stream, header, payload)) {
        if (header.type == service::MessageType::kRegisterRequest) {
          auto reg = service::decode_register<IT, VT>(payload);
          registry[reg.structure_id] = std::move(reg);
          continue;
        }
        ASSERT_EQ(header.type, service::MessageType::kSubmitRequest);
        auto sub = service::decode_submit<IT, VT>(payload);
        const auto& reg = registry.at(sub.structure_id);
        const Mat& b = reg.b;
        const Mat& a = sub.a_is_b ? b : sub.a_storage;
        const Mat& m = sub.m_is_a ? a
                       : sub.m_is_b ? b
                       : sub.m_registered
                           ? (reg.mask_is_b ? reg.b : reg.m_storage)
                           : sub.m_storage;
        replies.emplace_back(header.request_id,
                             service::encode_response(
                                 masked_spgemm<SR>(a, b, m, sub.opts)));
        if (replies.size() == static_cast<std::size_t>(kBatch)) {
          // Scramble: newest first.
          for (auto it = replies.rbegin(); it != replies.rend(); ++it) {
            send_frame(*stream, service::MessageType::kResponse, it->first,
                       it->second);
          }
          replies.clear();
          served += kBatch;
          if (served >= kBatch) break;
        }
      }
    } catch (const service::TransportError&) {
    } catch (const service::WireError&) {
    }
    stream->shutdown();
  });

  {
    std::vector<ShardEndpoint> endpoints{
        {"scrambler", [listener] { return listener->connect(); }}};
    auto backend = std::make_shared<Sharded>(endpoints);
    Client client(backend);
    auto session = client.open_session({.max_in_flight = kBatch});

    std::vector<std::shared_ptr<const Mat>> bs;
    std::vector<Session<SR, IT, VT>::Handle> handles;
    std::vector<std::future<Client::Result>> futures;
    std::vector<Mat> want;
    for (int r = 0; r < kBatch; ++r) {
      // Distinct structures with distinct results so a mismatched rid would
      // be caught by content.
      const IT rows = 40 + 10 * static_cast<IT>(r);
      bs.push_back(std::make_shared<const Mat>(
          erdos_renyi<IT, VT>(rows, rows, 5, 800 + r)));
      handles.push_back(session.register_structure(
          StructureSpec<IT, VT>(bs.back()).self_mask()));
      auto a = std::make_shared<const Mat>(
          erdos_renyi<IT, VT>(rows, rows, 5, 900 + r));
      want.push_back(masked_spgemm<SR>(*a, *bs.back(), *bs.back()));
      futures.push_back(session.submit(a, handles.back()));
    }
    for (int r = 0; r < kBatch; ++r) {
      auto res = futures[static_cast<std::size_t>(r)].get();
      ASSERT_TRUE(res.ok()) << res.message;
      EXPECT_TRUE(res.matrix == want[static_cast<std::size_t>(r)]);
    }
  }
  listener->close();
  server.join();
}

// A shard that accepts a few requests and then dies mid-pipeline: every
// in-flight request is re-submitted to the surviving shard — none lost,
// none duplicated, results still correct.
TEST(ClientSharded, FailoverMidPipelineResubmitsInFlight) {
  // Flaky "shard": reads frames until it has swallowed kSwallow submits,
  // then slams the connection without answering any of them.
  auto flaky = std::make_shared<LoopbackListener>();
  const int kSwallow = 3;
  std::thread flaky_server([flaky] {
    while (auto stream = flaky->accept()) {
      service::FrameHeader header;
      std::vector<std::uint8_t> payload;
      int submits = 0;
      try {
        while (submits < kSwallow && recv_frame(*stream, header, payload)) {
          if (header.type == service::MessageType::kSubmitRequest) ++submits;
        }
      } catch (const service::TransportError&) {
      } catch (const service::WireError&) {
      }
      stream->shutdown();
    }
  });

  Fleet real(1);
  std::vector<ShardEndpoint> endpoints{
      {"flaky", [flaky] { return flaky->connect(); }},
      real.endpoints[0]};

  std::uint64_t resubmits = 0;
  {
    auto backend = std::make_shared<Sharded>(endpoints);
    Client client(backend);
    auto session = client.open_session({.max_in_flight = 16});

    // Enough structures that the flaky shard owns several (64 vnodes spread
    // structures across both shards for any seed).
    const int kStructures = 8;
    const int kRequests = 24;
    std::vector<std::shared_ptr<const Mat>> bs;
    std::vector<Session<SR, IT, VT>::Handle> handles;
    for (int k = 0; k < kStructures; ++k) {
      const IT rows = 50 + 12 * static_cast<IT>(k);
      bs.push_back(std::make_shared<const Mat>(
          erdos_renyi<IT, VT>(rows, rows, 5, 110 + k)));
      handles.push_back(session.register_structure(
          StructureSpec<IT, VT>(bs.back()).self_mask()));
    }
    std::vector<std::future<Client::Result>> futures;
    std::vector<Mat> want;
    for (int r = 0; r < kRequests; ++r) {
      const auto k = static_cast<std::size_t>(r % kStructures);
      auto a = std::make_shared<const Mat>(
          erdos_renyi<IT, VT>(bs[k]->nrows(), bs[k]->nrows(), 5, 130 + r));
      want.push_back(masked_spgemm<SR>(*a, *bs[k], *bs[k]));
      futures.push_back(session.submit(a, handles[k]));
    }
    for (int r = 0; r < kRequests; ++r) {
      auto res = futures[static_cast<std::size_t>(r)].get();
      ASSERT_TRUE(res.ok()) << res.message;  // no loss
      EXPECT_TRUE(res.matrix == want[static_cast<std::size_t>(r)]);
    }
    backend->drain();  // bookkeeping settles after the futures
    const auto st = backend->stats();
    EXPECT_EQ(st.completed, static_cast<std::uint64_t>(kRequests));  // no dup
    EXPECT_EQ(st.submitted, static_cast<std::uint64_t>(kRequests));
    resubmits = st.failover_resubmits;
    // The flaky shard owned at least one structure (with 8 structures over
    // 2 shards the ring assigns both sides), so its death re-submitted
    // in-flight work and marked it down.
    EXPECT_GE(st.down_marks, 1u);
  }
  EXPECT_GE(resubmits, 1u);
  flaky->close();
  flaky_server.join();
}

// Destroying / shutting down the client with futures still in flight must
// resolve them with a typed kShardDown — never leave a future hanging.
TEST(ClientSharded, CleanShutdownResolvesInFlightFutures) {
  // A black-hole shard: accepts connections and frames, never answers.
  auto hole = std::make_shared<LoopbackListener>();
  std::thread hole_server([hole] {
    while (auto stream = hole->accept()) {
      service::FrameHeader header;
      std::vector<std::uint8_t> payload;
      try {
        while (recv_frame(*stream, header, payload)) {
        }
      } catch (const service::TransportError&) {
      } catch (const service::WireError&) {
      }
    }
  });

  std::vector<ShardEndpoint> endpoints{
      {"hole", [hole] { return hole->connect(); }}};
  auto backend = std::make_shared<Sharded>(endpoints);
  Client client(backend);

  std::vector<std::future<Client::Result>> futures;
  {
    auto session = client.open_session({.max_in_flight = 4});
    auto b = std::make_shared<const Mat>(erdos_renyi<IT, VT>(40, 40, 4, 5));
    auto handle =
      session.register_structure(StructureSpec<IT, VT>(b).self_mask());
    for (int r = 0; r < 3; ++r) futures.push_back(session.submit(b, handle));

    backend->shutdown();  // futures in flight -> resolved, typed
    for (auto& f : futures) {
      auto res = f.get();
      EXPECT_EQ(res.status, RequestStatus::kShardDown);
      EXPECT_FALSE(res.message.empty());
    }
    // Session destruction drains instantly now — nothing left in flight.
  }
  hole->close();
  hole_server.join();
}

TEST(ClientSharded, AllShardsDownYieldsTypedShardDown) {
  auto closed = std::make_shared<LoopbackListener>();
  closed->close();  // dials fail immediately
  std::vector<ShardEndpoint> endpoints{
      {"gone", [closed] { return closed->connect(); }}};
  auto backend = std::make_shared<Sharded>(endpoints);
  Client client(backend);
  auto session = client.open_session();
  auto b = std::make_shared<const Mat>(erdos_renyi<IT, VT>(30, 30, 4, 6));
  auto handle =
      session.register_structure(StructureSpec<IT, VT>(b).self_mask());
  auto res = session.submit(b, handle).get();
  EXPECT_EQ(res.status, RequestStatus::kShardDown);
}

// Back-pressure: a kOverloaded answer spills the one request to the next
// shard on the ring without marking its home shard down.
TEST(ClientSharded, OverloadedShardSpillsSingleRequest) {
  service::ShardConfig cfg;
  cfg.limits.pool_threads = 1;
  cfg.limits.max_pending_jobs = 1;
  cfg.limits.admission = AdmissionPolicy::kReject;
  Fleet fleet(2, cfg);
  auto backend = std::make_shared<Sharded>(fleet.endpoints);
  Client client(backend);
  auto session = client.open_session();

  auto a = std::make_shared<const Mat>(erdos_renyi<IT, VT>(64, 64, 5, 12));
  auto handle =
      session.register_structure(StructureSpec<IT, VT>(a).self_mask());
  const auto want = masked_spgemm<SR>(*a, *a, *a);

  // One product finds the structure's home shard.
  ASSERT_TRUE(session.submit(a, handle).get().ok());
  const auto before = backend->stats();
  const std::size_t home = before.routed[0] == 1 ? 0 : 1;
  ASSERT_EQ(before.routed[home], 1u);

  // Saturate the home shard: park its only pool worker and fill the
  // admission slot with a job submitted to its executor directly (once the
  // first job's bookkeeping, which settles after its future, has freed it).
  auto& home_shard = *fleet.shards[home];
  home_shard.executor().wait_idle();
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  home_shard.executor().pool().submit_detached([opened] { opened.wait(); });
  auto parked = home_shard.executor().submit(*a, *a, *a);

  // The submit gets kOverloaded from home and completes on the other shard,
  // still bit-identical.
  auto res = session.submit(a, handle).get();
  ASSERT_TRUE(res.ok()) << res.message;
  EXPECT_TRUE(res.matrix == want);
  const auto st = backend->stats();
  EXPECT_EQ(st.overload_reroutes, 1u);
  EXPECT_EQ(st.routed[1 - home], 1u);
  EXPECT_FALSE(backend->is_down(home));

  gate.set_value();
  parked.get();
}

// An endpoint whose dial throws is marked down on first contact; every
// request still completes on the surviving shards.
TEST(ClientSharded, ThrowingDialIsMarkedDown) {
  Fleet fleet(2);
  auto endpoints = fleet.endpoints;
  endpoints.push_back(ShardEndpoint{
      "dead", []() -> std::unique_ptr<service::Stream> {
        throw service::TransportError("connection refused");
      }});
  auto backend = std::make_shared<Sharded>(endpoints);
  Client client(backend);
  auto session = client.open_session({.max_in_flight = 8});

  const int kStructures = 8;
  std::vector<std::future<Client::Result>> futures;
  std::vector<Mat> want;
  for (int k = 0; k < kStructures; ++k) {
    const IT rows = 50 + 12 * static_cast<IT>(k);
    auto b = std::make_shared<const Mat>(
        erdos_renyi<IT, VT>(rows, rows, 5, 140 + k));
    auto handle =
        session.register_structure(StructureSpec<IT, VT>(b).self_mask());
    auto a = std::make_shared<const Mat>(
        erdos_renyi<IT, VT>(rows, rows, 5, 160 + k));
    want.push_back(masked_spgemm<SR>(*a, *b, *b));
    futures.push_back(session.submit(a, handle));
  }
  for (int k = 0; k < kStructures; ++k) {
    auto res = futures[static_cast<std::size_t>(k)].get();
    ASSERT_EQ(res.status, RequestStatus::kOk) << res.message;
    EXPECT_TRUE(res.matrix == want[static_cast<std::size_t>(k)]);
  }
  // With 8 structures over 3 shards the ring sends some to the dead one.
  const auto st = backend->stats();
  EXPECT_TRUE(backend->is_down(2));
  EXPECT_EQ(st.down_marks, 1u);
  EXPECT_EQ(st.routed[2], 0u);
  EXPECT_EQ(st.routed[0] + st.routed[1],
            static_cast<std::uint64_t>(kStructures));
}

TEST(ClientSharded, HealthProbeRejoinsDownShard) {
  Fleet fleet(2);
  auto backend = std::make_shared<Sharded>(fleet.endpoints);
  backend->mark_down(0);
  ASSERT_TRUE(backend->is_down(0));

  // Manual round: the shard is alive, so one probe brings it back.
  EXPECT_EQ(backend->probe_down_shards(), 1u);
  EXPECT_FALSE(backend->is_down(0));
  const auto st = backend->stats();
  EXPECT_GE(st.probes, 1u);
  EXPECT_EQ(st.rejoins, 1u);

  // A dead endpoint stays down.
  auto closed = std::make_shared<LoopbackListener>();
  closed->close();
  std::vector<ShardEndpoint> dead{
      {"dead", [closed] { return closed->connect(); }}};
  auto backend2 = std::make_shared<Sharded>(dead);
  backend2->mark_down(0);
  EXPECT_EQ(backend2->probe_down_shards(), 0u);
  EXPECT_TRUE(backend2->is_down(0));
}

TEST(ClientSharded, BackgroundProberRejoinsAutomatically) {
  Fleet fleet(2);
  ShardedBackendConfig cfg;
  cfg.probe_interval = std::chrono::milliseconds(5);
  auto backend = std::make_shared<Sharded>(fleet.endpoints, cfg);
  backend->mark_down(1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (backend->is_down(1) && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_FALSE(backend->is_down(1));
}
