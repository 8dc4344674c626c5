// Wire v5 observability fields: trace-context propagation in submit frames,
// the queue/run latency split in responses, the metrics-text op, and clean
// versioned rejection of pre-v5 peers (ISSUE 9 tentpole).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "gen/erdos_renyi.hpp"
#include "obs/metrics.hpp"
#include "service/routing.hpp"
#include "service/shard.hpp"
#include "service/wire.hpp"

using namespace msx;
using namespace msx::service;

using IT = int32_t;
using VT = double;
using Mat = CSRMatrix<IT, VT>;

TEST(WireTrace, SubmitTraceContextRoundTrips) {
  const auto a = erdos_renyi<IT, VT>(24, 24, 4, 3);
  GatherPayload g;
  encode_submit_parts<IT, VT>(g, 7, 2, kSubMRegistered | kSubTraced, &a,
                              nullptr, MaskedOptions{}, 0, 0,
                              0x1122334455667788ull, 0x99aabbccddeeff00ull,
                              42);
  const auto sub = decode_submit<IT, VT>(g.flatten());
  EXPECT_TRUE(sub.traced);
  EXPECT_EQ(sub.trace_hi, 0x1122334455667788ull);
  EXPECT_EQ(sub.trace_lo, 0x99aabbccddeeff00ull);
  EXPECT_EQ(sub.trace_parent, 42u);
  EXPECT_TRUE(sub.a_storage == a);
}

TEST(WireTrace, UntracedSubmitCarriesNoTraceBytes) {
  GatherPayload g;
  encode_submit_parts<IT, VT>(g, 9, 1, kSubAIsB | kSubMIsA, nullptr, nullptr,
                              MaskedOptions{});
  GatherPayload t;
  encode_submit_parts<IT, VT>(t, 9, 1, kSubAIsB | kSubMIsA | kSubTraced,
                              nullptr, nullptr, MaskedOptions{}, 0, 0, 1, 2,
                              3);
  // The trace triple is exactly 24 bytes and present only under the flag.
  EXPECT_EQ(t.total_bytes(), g.total_bytes() + 24);
  const auto sub = decode_submit<IT, VT>(g.flatten());
  EXPECT_FALSE(sub.traced);
  EXPECT_EQ(sub.trace_hi, 0u);
  EXPECT_EQ(sub.trace_lo, 0u);
}

TEST(WireTrace, TraceComposesWithMaskRowWindow) {
  // kSubMaskRows and kSubTraced together: the window precedes the triple.
  GatherPayload g;
  const auto a = erdos_renyi<IT, VT>(8, 32, 3, 5);
  encode_submit_parts<IT, VT>(g, 3, 4,
                              kSubMRegistered | kSubMaskRows | kSubTraced, &a,
                              nullptr, MaskedOptions{}, 16, 24, 111, 222,
                              333);
  const auto sub = decode_submit<IT, VT>(g.flatten());
  EXPECT_TRUE(sub.mask_rows);
  EXPECT_EQ(sub.mask_r0, 16u);
  EXPECT_EQ(sub.mask_r1, 24u);
  EXPECT_TRUE(sub.traced);
  EXPECT_EQ(sub.trace_hi, 111u);
  EXPECT_EQ(sub.trace_lo, 222u);
  EXPECT_EQ(sub.trace_parent, 333u);
}

TEST(WireTrace, ResponseQueueRunSplitRoundTrips) {
  const auto c = erdos_renyi<IT, VT>(20, 20, 4, 9);
  GatherPayload g;
  encode_response_parts(g, c, /*exec_nanos=*/5000, /*queue_nanos=*/1200,
                        /*run_nanos=*/3600);
  const auto flat = g.flatten();
  const auto resp = decode_response<IT, VT>(flat);
  EXPECT_EQ(resp.status, WireStatus::kOk);
  EXPECT_EQ(resp.exec_nanos, 5000u);
  EXPECT_EQ(resp.queue_nanos, 1200u);
  EXPECT_EQ(resp.run_nanos, 3600u);
  EXPECT_TRUE(resp.result == c);
  // The zero-copy view decode reads the same fields.
  const auto view = decode_response_view<IT, VT>(flat);
  EXPECT_EQ(view.exec_nanos, 5000u);
  EXPECT_EQ(view.queue_nanos, 1200u);
  EXPECT_EQ(view.run_nanos, 3600u);
}

TEST(WireTrace, ErrorResponseSplitsAreZero) {
  const auto err = decode_response<IT, VT>(
      encode_error_response(WireStatus::kOverloaded, "queue full", 777));
  EXPECT_EQ(err.status, WireStatus::kOverloaded);
  EXPECT_EQ(err.exec_nanos, 777u);
  EXPECT_EQ(err.queue_nanos, 0u);
  EXPECT_EQ(err.run_nanos, 0u);
  EXPECT_EQ(err.message, "queue full");
}

TEST(WireTrace, MetricsTextRoundTrips) {
  const std::string page =
      "# TYPE msx_shard_requests_total counter\n"
      "msx_shard_requests_total{shard=\"s0\"} 12\n";
  EXPECT_EQ(decode_metrics_text(encode_metrics_text(page)), page);
  EXPECT_EQ(decode_metrics_text(encode_metrics_text("")), "");
  auto bytes = encode_metrics_text(page);
  bytes.push_back(0xFF);  // trailing garbage is a protocol violation
  EXPECT_THROW(decode_metrics_text(bytes), WireError);
}

TEST(WireTrace, PreV5PeerIsRejectedWithVersionedError) {
  // A v4 peer's frame: identical 32-byte header layout, version field 4.
  const std::vector<std::uint8_t> payload = {1, 2, 3};
  auto header = encode_frame_header(MessageType::kSubmitRequest, 1234,
                                    payload);
  const std::uint16_t old_version = 4;
  std::memcpy(header.data() + 4, &old_version, sizeof old_version);
  try {
    decode_frame_header(header);
    FAIL() << "v4 frame accepted";
  } catch (const WireVersionError& e) {
    // The versioned-error path: the server can answer the old peer on the
    // right request id instead of dropping the connection silently.
    EXPECT_EQ(e.peer_version(), old_version);
    EXPECT_EQ(e.request_id(), 1234u);
  }
}

TEST(WireTrace, LiveShardServesPrometheusPage) {
  // End-to-end kMetricsRequest: serve a few products, then scrape the
  // shard's page via the health probe and check the latency summary.
  msx::obs::set_metrics_enabled(true);
  using SR = PlusTimes<VT>;
  ShardConfig cfg;
  cfg.name = "m0";
  ServiceShard<SR, IT, VT> shard(cfg);
  auto listener = std::make_unique<LoopbackListener>();
  auto* raw = listener.get();
  shard.serve(std::move(listener));

  const auto a = erdos_renyi<IT, VT>(60, 60, 5, 21);
  const auto m = erdos_renyi<IT, VT>(60, 60, 6, 22);
  constexpr int kRequests = 5;
  {
    auto stream = raw->connect();
    GatherPayload reg;
    encode_register_parts(reg, 1, 1, a, &m);
    send_frame_parts(*stream, MessageType::kRegisterRequest, 0, reg);
    for (int r = 0; r < kRequests; ++r) {
      GatherPayload sub;
      encode_submit_parts<IT, VT>(sub, 1, 1, kSubAIsB | kSubMRegistered,
                                  nullptr, nullptr, MaskedOptions{});
      send_frame_parts(*stream, MessageType::kSubmitRequest,
                       static_cast<std::uint64_t>(r), sub);
      FrameHeader h;
      std::vector<std::uint8_t> reply;
      ASSERT_TRUE(recv_frame(*stream, h, reply));
      const auto resp = decode_response<IT, VT>(reply);
      ASSERT_EQ(resp.status, WireStatus::kOk);
      // The v5 split is populated on the live path and nests inside the
      // receipt-to-result time.
      EXPECT_GT(resp.run_nanos, 0u);
      EXPECT_LE(resp.queue_nanos + resp.run_nanos, resp.exec_nanos);
    }
  }

  const ShardEndpoint ep{"m0", [raw] { return raw->connect(); }};
  const auto page = probe_metrics(ep);
  ASSERT_TRUE(page.has_value());
  EXPECT_NE(page->find("# TYPE msx_shard_request_seconds summary"),
            std::string::npos);
  EXPECT_NE(page->find("quantile=\"0.99\""), std::string::npos);
  EXPECT_NE(page->find("msx_shard_request_seconds_count{shard=\"m0\"} 5"),
            std::string::npos);
  EXPECT_NE(page->find("msx_shard_requests_total{shard=\"m0\"} 5"),
            std::string::npos);
  // The quantiles come from the shard's live histogram: present, ordered
  // and positive (every request took more than a bucket's worth of time).
  const obs::Histogram* h =
      shard.executor().metrics().find_histogram("msx_shard_request_seconds");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), static_cast<std::uint64_t>(kRequests));
  EXPECT_GT(h->quantile(0.50), 0.0);
  EXPECT_LE(h->quantile(0.50), h->quantile(0.95));
  EXPECT_LE(h->quantile(0.95), h->quantile(0.99));

  // An unreachable endpoint degrades to nullopt, not a throw.
  shard.stop();
  EXPECT_FALSE(probe_metrics(ep).has_value());
}

TEST(WireTrace, MetricsMessageTypesDecode) {
  const std::vector<std::uint8_t> empty;
  const auto req_hdr = decode_frame_header(
      encode_frame_header(MessageType::kMetricsRequest, 5, empty));
  EXPECT_EQ(req_hdr.type, MessageType::kMetricsRequest);
  const auto resp_hdr = decode_frame_header(
      encode_frame_header(MessageType::kMetricsResponse, 6, empty));
  EXPECT_EQ(resp_hdr.type, MessageType::kMetricsResponse);
  // One past kMetricsResponse is still unknown.
  auto bad = encode_frame_header(MessageType::kMetricsResponse, 7, empty);
  bad[6] = static_cast<std::uint8_t>(
      static_cast<std::uint16_t>(MessageType::kMetricsResponse) + 1);
  EXPECT_THROW(decode_frame_header(bad), WireError);
}
