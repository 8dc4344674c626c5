// ServiceShard: serving loop, pipelining, completion-order responses, error
// statuses, back-pressure (kOverloaded), teardown and counters, all driven
// through the session protocol (kRegisterRequest + kSubmitRequest frames).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/masked_spgemm.hpp"
#include "gen/erdos_renyi.hpp"
#include "service/shard.hpp"
#include "service/transport.hpp"

using namespace msx;
using namespace msx::service;

using IT = int32_t;
using VT = double;
using SR = PlusTimes<VT>;
using Mat = CSRMatrix<IT, VT>;
using Shard = ServiceShard<SR, IT, VT>;

namespace {

// Installs {B[, M]} under `id` on this connection (one-way frame).
void send_register(Stream& s, std::uint64_t id, const Mat& b,
                   const Mat* m = nullptr) {
  GatherPayload g;
  encode_register_parts(g, id, 1, b, m);
  send_frame_parts(s, MessageType::kRegisterRequest, 0, g);
}

// A product against registered structure `id`: A inline unless `flags`
// says it aliases B, the mask as `flags` selects.
void send_submit(Stream& s, std::uint64_t rid, std::uint64_t id,
                 std::uint8_t flags, const Mat* a = nullptr,
                 const Mat* m = nullptr, const MaskedOptions& opts = {}) {
  GatherPayload g;
  encode_submit_parts(g, id, 1, flags, a, m, opts);
  send_frame_parts(s, MessageType::kSubmitRequest, rid, g);
}

}  // namespace

TEST(ServiceShard, ServesRequestsBitIdenticalToDirectCalls) {
  Shard shard;
  auto [client, server] = loopback_pair();
  shard.attach(std::move(server));

  const auto a = erdos_renyi<IT, VT>(120, 120, 5, 1);
  const auto b = erdos_renyi<IT, VT>(120, 120, 5, 2);
  const auto m = erdos_renyi<IT, VT>(120, 120, 7, 3);
  send_register(*client, 1, b, &m);

  for (auto kind : {MaskKind::kMask, MaskKind::kComplement}) {
    MaskedOptions opts;
    opts.algo = MaskedAlgo::kHash;
    opts.kind = kind;
    const auto want = masked_spgemm<SR>(a, b, m, opts);
    send_submit(*client, 11, 1, kSubMRegistered, &a, nullptr, opts);
    FrameHeader h;
    std::vector<std::uint8_t> reply;
    ASSERT_TRUE(recv_frame(*client, h, reply));
    EXPECT_EQ(h.type, MessageType::kResponse);
    EXPECT_EQ(h.request_id, 11u);
    const auto resp = decode_response<IT, VT>(reply);
    ASSERT_EQ(resp.status, WireStatus::kOk) << resp.message;
    EXPECT_TRUE(resp.result == want);
  }
  const auto st = shard.stats();
  EXPECT_EQ(st.registrations, 1u);
  EXPECT_EQ(st.requests, 2u);
  EXPECT_EQ(st.responses, 2u);
  EXPECT_EQ(st.errors, 0u);
  EXPECT_GT(st.bytes_in, 0u);
  EXPECT_GT(st.bytes_out, 0u);
}

TEST(ServiceShard, PipelinedRequestsAnswerEveryEchoedIdOnce) {
  // Two workers: responses can still overtake each other, and at most two
  // plans are ever leased at once, so the cache builds at most two.
  ShardConfig cfg;
  cfg.limits.pool_threads = 2;
  Shard shard(cfg);
  auto [client, server] = loopback_pair();
  shard.attach(std::move(server));

  const auto a = erdos_renyi<IT, VT>(90, 90, 5, 4);
  const auto m = erdos_renyi<IT, VT>(90, 90, 6, 5);
  const auto want = masked_spgemm<SR>(a, a, m);
  send_register(*client, 1, a, &m);

  const int kInFlight = 8;
  for (int i = 0; i < kInFlight; ++i) {
    send_submit(*client, 100 + i, 1, kSubAIsB | kSubMRegistered);
  }
  // Responses leave in completion order: each id exactly once, any order.
  std::set<std::uint64_t> answered;
  for (int i = 0; i < kInFlight; ++i) {
    FrameHeader h;
    std::vector<std::uint8_t> reply;
    ASSERT_TRUE(recv_frame(*client, h, reply));
    EXPECT_GE(h.request_id, 100u);
    EXPECT_LT(h.request_id, 100u + kInFlight);
    EXPECT_TRUE(answered.insert(h.request_id).second) << h.request_id;
    EXPECT_TRUE((decode_response<IT, VT>(reply).result == want));
  }
  // Repeated structure: the shard's plan cache served the repeats warm.
  EXPECT_GE(shard.stats().cache_hits, static_cast<std::uint64_t>(kInFlight - 2));
}

TEST(ServiceShard, BadRequestsGetStatusNotDisconnect) {
  Shard shard;
  auto [client, server] = loopback_pair();
  shard.attach(std::move(server));

  const auto a = erdos_renyi<IT, VT>(50, 50, 4, 6);
  const auto bad_b = erdos_renyi<IT, VT>(40, 40, 4, 7);  // shape mismatch
  send_register(*client, 1, bad_b);
  send_submit(*client, 1, 1, 0, &a, &a);

  // MCA × complement is rejected by the registry.
  MaskedOptions mca;
  mca.algo = MaskedAlgo::kMCA;
  mca.kind = MaskKind::kComplement;
  send_register(*client, 2, a, &a);
  send_submit(*client, 2, 2, kSubAIsB | kSubMRegistered, nullptr, nullptr,
              mca);

  // The connection survives both; a valid request still works.
  send_submit(*client, 3, 2, kSubAIsB | kSubMRegistered);

  // Responses leave in completion order; match them by request id.
  for (int i = 0; i < 3; ++i) {
    FrameHeader h;
    std::vector<std::uint8_t> reply;
    ASSERT_TRUE(recv_frame(*client, h, reply));
    EXPECT_EQ((decode_response<IT, VT>(reply).status),
              h.request_id == 3 ? WireStatus::kOk : WireStatus::kBadRequest);
  }

  const auto st = shard.stats();
  EXPECT_EQ(st.errors, 2u);
  EXPECT_EQ(st.requests, 3u);
}

TEST(ServiceShard, CorruptFrameDropsTheConnection) {
  Shard shard;
  auto [client, server] = loopback_pair();
  shard.attach(std::move(server));

  std::vector<std::uint8_t> garbage(64, 0xAB);
  client->write_all(garbage.data(), garbage.size());

  // The shard abandons the corrupt stream; the client sees EOF.
  std::uint8_t byte;
  EXPECT_EQ(client->read_some(&byte, 1), 0u);
}

TEST(ServiceShard, OverloadAnswersKOverloadedUnderRejectPolicy) {
  ShardConfig cfg;
  cfg.limits.pool_threads = 1;
  cfg.limits.max_pending_jobs = 1;
  cfg.limits.admission = AdmissionPolicy::kReject;
  Shard shard(cfg);
  auto [client, server] = loopback_pair();
  shard.attach(std::move(server));

  // Deterministic overload: occupy the single pool worker with a gate task
  // so the first request stays pending while the second is admitted.
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  shard.executor().pool().submit_detached([opened] { opened.wait(); });

  const auto a = erdos_renyi<IT, VT>(60, 60, 5, 8);
  send_register(*client, 1, a, &a);
  send_submit(*client, 1, 1, kSubAIsB | kSubMRegistered);
  // Wait until request 1 holds the executor's only admission slot before
  // sending request 2 (submission happens on the shard's reader thread).
  while (shard.stats().jobs_submitted < 1) {
    std::this_thread::yield();
  }
  send_submit(*client, 2, 1, kSubAIsB | kSubMRegistered);
  // Request 2 must be rejected while request 1 still holds the slot — wait
  // for the executor's rejection counter before opening the gate, or the
  // gate could free the slot first and request 2 would be admitted.
  while (shard.executor().stats().rejected < 1) {
    std::this_thread::yield();
  }

  gate.set_value();
  for (int i = 0; i < 2; ++i) {
    FrameHeader h;
    std::vector<std::uint8_t> reply;
    ASSERT_TRUE(recv_frame(*client, h, reply));
    EXPECT_EQ((decode_response<IT, VT>(reply).status),
              h.request_id == 1 ? WireStatus::kOk : WireStatus::kOverloaded);
  }

  const auto st = shard.stats();
  EXPECT_EQ(st.overloaded, 1u);
  EXPECT_EQ(st.errors, 0u);
}

// Responses leave in completion order, so the executor's priorities reach
// the wire: an interactive request queued behind two batch requests on a
// parked one-worker shard runs first and is answered first.
TEST(ServiceShard, InteractiveAnswerLeavesBeforeEarlierBatchResults) {
  ShardConfig cfg;
  cfg.limits.pool_threads = 1;
  Shard shard(cfg);
  auto [client, server] = loopback_pair();
  shard.attach(std::move(server));

  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  shard.executor().pool().submit_detached([opened] { opened.wait(); });

  const auto a = erdos_renyi<IT, VT>(60, 60, 5, 12);
  send_register(*client, 1, a, &a);
  send_submit(*client, 1, 1, kSubAIsB | kSubMRegistered);
  send_submit(*client, 2, 1, kSubAIsB | kSubMRegistered);
  send_submit(*client, 3, 1, kSubAIsB | kSubMRegistered | kSubInteractive);
  while (shard.stats().jobs_submitted < 3) std::this_thread::yield();
  gate.set_value();

  std::vector<std::uint64_t> order;
  for (int i = 0; i < 3; ++i) {
    FrameHeader h;
    std::vector<std::uint8_t> reply;
    ASSERT_TRUE(recv_frame(*client, h, reply));
    EXPECT_EQ((decode_response<IT, VT>(reply).status), WireStatus::kOk);
    order.push_back(h.request_id);
  }
  EXPECT_EQ(order.front(), 3u);
}

// An immediate answer does not queue behind pending results: request 2's
// kOverloaded arrives while request 1 still waits on the parked worker. A
// watchdog opens the gate after 5 s, so a shard that holds the rejection
// back fails this test instead of hanging it.
TEST(ServiceShard, OverloadAnswerLeavesBeforePendingResults) {
  ShardConfig cfg;
  cfg.limits.pool_threads = 1;
  cfg.limits.max_pending_jobs = 1;
  cfg.limits.admission = AdmissionPolicy::kReject;
  Shard shard(cfg);
  auto [client, server] = loopback_pair();
  shard.attach(std::move(server));

  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  shard.executor().pool().submit_detached([opened] { opened.wait(); });
  std::atomic<bool> gate_opened{false};
  std::promise<void> answered;
  std::thread watchdog([&, done = answered.get_future()] {
    done.wait_for(std::chrono::seconds(5));
    gate_opened.store(true);
    gate.set_value();
  });

  const auto a = erdos_renyi<IT, VT>(60, 60, 5, 13);
  send_register(*client, 1, a, &a);
  send_submit(*client, 1, 1, kSubAIsB | kSubMRegistered);
  while (shard.stats().jobs_submitted < 1) std::this_thread::yield();
  send_submit(*client, 2, 1, kSubAIsB | kSubMRegistered);

  FrameHeader h;
  std::vector<std::uint8_t> reply;
  const bool got = recv_frame(*client, h, reply);
  const bool waited = gate_opened.load();
  answered.set_value();
  watchdog.join();
  ASSERT_TRUE(got);
  EXPECT_FALSE(waited) << "kOverloaded waited for the gate";
  EXPECT_EQ(h.request_id, 2u);
  EXPECT_EQ((decode_response<IT, VT>(reply).status), WireStatus::kOverloaded);

  ASSERT_TRUE(recv_frame(*client, h, reply));
  EXPECT_EQ(h.request_id, 1u);
  EXPECT_EQ((decode_response<IT, VT>(reply).status), WireStatus::kOk);
}

// A peer that submits and never reads: responses cannot fit the 4 KiB pipe,
// so completions block writing. stop() must shut the stream down, release
// those workers and return, with every job completed.
TEST(ServiceShard, StopReleasesCompletionsBlockedOnAPeerThatNeverReads) {
  ShardConfig cfg;
  cfg.limits.pool_threads = 2;
  Shard shard(cfg);
  auto [client, server] = loopback_pair(4096);
  shard.attach(std::move(server));

  const auto a = erdos_renyi<IT, VT>(300, 300, 16, 14);
  send_register(*client, 1, a, &a);
  constexpr std::uint64_t kSubmits = 6;
  for (std::uint64_t i = 0; i < kSubmits; ++i) {
    send_submit(*client, i, 1, kSubAIsB | kSubMRegistered);
  }
  while (shard.stats().jobs_submitted < kSubmits) std::this_thread::yield();

  shard.stop();  // the client end stays open and unread throughout
  shard.executor().wait_idle();
  const auto st = shard.executor().stats();
  EXPECT_EQ(st.submitted, kSubmits);
  EXPECT_EQ(st.completed, st.submitted);
}

TEST(ServiceShard, CountersShowInStatsAndMetricsPage) {
  ShardConfig cfg;
  cfg.name = "s0";
  Shard shard(cfg);
  auto [client, server] = loopback_pair();
  shard.attach(std::move(server));

  const auto a = erdos_renyi<IT, VT>(70, 70, 5, 9);
  send_register(*client, 1, a, &a);
  // One at a time, so the repeats find the plan idle and count as hits.
  FrameHeader h;
  std::vector<std::uint8_t> reply;
  for (int i = 0; i < 3; ++i) {
    send_submit(*client, 10 + i, 1, kSubAIsB | kSubMRegistered);
    ASSERT_TRUE(recv_frame(*client, h, reply));
  }

  const auto stats = shard.stats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.registrations, 1u);
  EXPECT_EQ(stats.jobs_submitted, 3u);
  EXPECT_GE(stats.cache_hits, 2u);
  EXPECT_GT(stats.cache_bytes, 0u);

  // The same counters reach a remote reader through the metrics page.
  send_frame(*client, MessageType::kMetricsRequest, 99, {});
  ASSERT_TRUE(recv_frame(*client, h, reply));
  EXPECT_EQ(h.type, MessageType::kMetricsResponse);
  EXPECT_EQ(h.request_id, 99u);
  const std::string page = decode_metrics_text(reply);
  EXPECT_NE(page.find("msx_shard_requests_total{shard=\"s0\"} 3"),
            std::string::npos);
  EXPECT_NE(page.find("msx_shard_registrations_total{shard=\"s0\"} 1"),
            std::string::npos);
  EXPECT_NE(page.find("msx_shard_responses_total{shard=\"s0\"} 3"),
            std::string::npos);
}

TEST(ServiceShard, ServesListenerAcrossMultipleConnections) {
  Shard shard;
  auto listener = std::make_unique<LoopbackListener>();
  auto* raw = listener.get();
  shard.serve(std::move(listener));

  const auto a = erdos_renyi<IT, VT>(80, 80, 5, 10);
  const auto m = erdos_renyi<IT, VT>(80, 80, 6, 11);
  const auto want = masked_spgemm<SR>(a, a, m);

  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      auto stream = raw->connect();
      // Registrations are connection-scoped: each client installs its own.
      send_register(*stream, 1, a, &m);
      for (int r = 0; r < 5; ++r) {
        send_submit(*stream, static_cast<std::uint64_t>(c * 100 + r), 1,
                    kSubAIsB | kSubMRegistered);
        FrameHeader h;
        std::vector<std::uint8_t> reply;
        if (!recv_frame(*stream, h, reply) ||
            !(decode_response<IT, VT>(reply).result == want)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(shard.stats().requests, 20u);
  EXPECT_EQ(shard.stats().registrations, 4u);
}

// Wire compatibility: a peer speaking an older wire version gets a
// versioned kBadRequest on its own request id and a clean close — no hang,
// no silent drop. That includes a v5 peer still sending the stateless
// request retired in v6 (type 1).
TEST(ServiceShard, OlderWireVersionPeerIsRejectedWithVersionedError) {
  struct Peer {
    std::uint8_t version;
    std::uint8_t type;
  };
  for (const Peer peer : {Peer{2, 6}, Peer{5, 1}}) {
    Shard shard;
    auto [client, server] = loopback_pair();
    shard.attach(std::move(server));

    // Hand-assemble an old-version frame: current header layout, version
    // and type bytes patched, arbitrary payload (an old peer's encoding
    // differs — the shard must answer from the header alone).
    const std::vector<std::uint8_t> payload = {0xde, 0xad, 0xbe, 0xef};
    auto frame =
        encode_frame_header(MessageType::kSubmitRequest, 123, payload);
    frame[4] = peer.version;
    frame[5] = 0;
    frame[6] = peer.type;
    frame[7] = 0;
    frame.insert(frame.end(), payload.begin(), payload.end());
    client->write_all(frame.data(), frame.size());

    FrameHeader h;
    std::vector<std::uint8_t> reply;
    ASSERT_TRUE(recv_frame(*client, h, reply));
    EXPECT_EQ(h.type, MessageType::kResponse);
    EXPECT_EQ(h.request_id, 123u);
    const auto resp = decode_response<IT, VT>(reply);
    EXPECT_EQ(resp.status, WireStatus::kBadRequest);
    EXPECT_NE(resp.message.find("version " + std::to_string(peer.version)),
              std::string::npos);
    EXPECT_NE(resp.message.find("version " + std::to_string(kWireVersion)),
              std::string::npos);

    // The shard closes the connection after the versioned error: the next
    // read sees EOF, never a hang.
    EXPECT_FALSE(recv_frame(*client, h, reply));
    EXPECT_GE(shard.stats().errors, 1u);
  }
}
