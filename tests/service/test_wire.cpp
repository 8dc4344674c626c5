// Wire protocol: frame headers, checksums, register/submit/response round
// trips over generated matrices, and clean rejection of truncated/corrupt
// frames (ISSUE 4 satellite).
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "gen/erdos_renyi.hpp"
#include "gen/rmat.hpp"
#include "service/transport.hpp"
#include "service/wire.hpp"

using namespace msx;
using namespace msx::service;

using IT = int32_t;
using VT = double;
using Mat = CSRMatrix<IT, VT>;

namespace {

std::vector<std::uint8_t> frame_bytes(MessageType type, std::uint64_t rid,
                                      std::span<const std::uint8_t> payload) {
  auto bytes = encode_frame_header(type, rid, payload);
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  return bytes;
}

// Matrix with deliberately empty rows (every third row cleared).
Mat with_empty_rows(const Mat& src) {
  std::vector<IT> rowptr(1, 0), colidx;
  std::vector<VT> values;
  for (IT i = 0; i < src.nrows(); ++i) {
    if (i % 3 != 0) {
      const auto row = src.row(i);
      colidx.insert(colidx.end(), row.cols.begin(), row.cols.end());
      values.insert(values.end(), row.vals.begin(), row.vals.end());
    }
    rowptr.push_back(static_cast<IT>(colidx.size()));
  }
  return Mat(src.nrows(), src.ncols(), std::move(rowptr), std::move(colidx),
             std::move(values));
}

// Contiguous register payload for {B[, M]} (the gather encoder, flattened).
std::vector<std::uint8_t> register_payload(const Mat& b,
                                           const Mat* m = nullptr) {
  GatherPayload g;
  encode_register_parts(g, 1, 1, b, m);
  return g.flatten();
}

}  // namespace

TEST(WireFrame, HeaderRoundTrip) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  const auto header_bytes =
      encode_frame_header(MessageType::kResponse, 42, payload);
  ASSERT_EQ(header_bytes.size(), kFrameHeaderBytes);
  const auto h = decode_frame_header(header_bytes);
  EXPECT_EQ(h.version, kWireVersion);
  EXPECT_EQ(h.type, MessageType::kResponse);
  EXPECT_EQ(h.request_id, 42u);
  EXPECT_EQ(h.payload_len, payload.size());
  EXPECT_NO_THROW(verify_payload(h, payload));
}

TEST(WireFrame, RejectsBadMagicVersionTypeAndLength) {
  const std::vector<std::uint8_t> payload = {9, 9};
  auto good = encode_frame_header(MessageType::kSubmitRequest, 1, payload);

  auto bad_magic = good;
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW(decode_frame_header(bad_magic), WireError);

  auto bad_version = good;
  bad_version[4] = 0x7F;
  EXPECT_THROW(decode_frame_header(bad_version), WireError);

  auto bad_type = good;
  bad_type[6] = 0x7F;
  EXPECT_THROW(decode_frame_header(bad_type), WireError);

  auto bad_len = good;
  // payload_len lives at offset 16; poison the high bytes.
  bad_len[22] = 0xFF;
  bad_len[23] = 0xFF;
  EXPECT_THROW(decode_frame_header(bad_len), WireError);

  auto short_header = good;
  short_header.pop_back();
  EXPECT_THROW(decode_frame_header(short_header), WireError);
}

TEST(WireFrame, ChecksumCatchesCorruptPayload) {
  std::vector<std::uint8_t> payload(257);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7);
  }
  const auto h = decode_frame_header(
      encode_frame_header(MessageType::kSubmitRequest, 7, payload));
  EXPECT_NO_THROW(verify_payload(h, payload));
  for (std::size_t flip : {std::size_t{0}, payload.size() / 2,
                           payload.size() - 1}) {
    auto corrupt = payload;
    corrupt[flip] ^= 0x01;
    EXPECT_THROW(verify_payload(h, corrupt), WireError) << flip;
  }
  auto truncated = payload;
  truncated.pop_back();
  EXPECT_THROW(verify_payload(h, truncated), WireError);
}

TEST(WireFrame, RetiredMessageTypesAreRejected) {
  // Types 1 (stateless request) and 3/4 (stats probe) were retired in v6;
  // their numbers are never reused, so a frame carrying one is unknown.
  const std::vector<std::uint8_t> payload = {1};
  auto header = encode_frame_header(MessageType::kResponse, 3, payload);
  for (int type : {1, 3, 4}) {
    header[6] = static_cast<std::uint8_t>(type);
    EXPECT_THROW(decode_frame_header(header), WireError) << type;
  }
  for (int type : {2, 5, 6, 7, 8, 9, 10}) {
    header[6] = static_cast<std::uint8_t>(type);
    EXPECT_EQ(static_cast<int>(decode_frame_header(header).type), type);
  }
}

TEST(WireSession, RoundTripsGeneratedMatrices) {
  struct Case {
    Mat a, b, m;
  };
  std::vector<Case> cases;
  cases.push_back({erdos_renyi<IT, VT>(80, 80, 5, 1),
                   erdos_renyi<IT, VT>(80, 80, 5, 2),
                   erdos_renyi<IT, VT>(80, 80, 7, 3)});
  cases.push_back({rmat<IT, VT>(7, 11), rmat<IT, VT>(7, 12),
                   rmat<IT, VT>(7, 13)});
  cases.push_back({with_empty_rows(erdos_renyi<IT, VT>(60, 60, 4, 4)),
                   with_empty_rows(erdos_renyi<IT, VT>(60, 60, 4, 5)),
                   with_empty_rows(erdos_renyi<IT, VT>(60, 60, 4, 6))});
  // Degenerate shapes: empty matrix, single row.
  cases.push_back({Mat(5, 5), Mat(5, 5), Mat(5, 5)});

  for (std::size_t c = 0; c < cases.size(); ++c) {
    const auto& tc = cases[c];
    MaskedOptions opts;
    opts.algo = c % 2 == 0 ? MaskedAlgo::kHash : MaskedAlgo::kMSA;
    opts.kind = c % 2 == 1 ? MaskKind::kComplement : MaskKind::kMask;
    opts.phases = PhaseMode::kTwoPhase;
    opts.heap_ninspect = 3;
    opts.inner_gallop = true;

    const auto reg = decode_register<IT, VT>(register_payload(tc.b, &tc.m));
    EXPECT_TRUE(reg.has_mask);
    EXPECT_FALSE(reg.mask_is_b);
    EXPECT_TRUE(reg.b == tc.b) << c;
    EXPECT_TRUE(reg.m_storage == tc.m) << c;

    // A and an override mask inline.
    GatherPayload g;
    encode_submit_parts<IT, VT>(g, 1, 1, 0, &tc.a, &tc.m, opts);
    const auto sub = decode_submit<IT, VT>(g.flatten());
    EXPECT_TRUE(sub.a_storage == tc.a) << c;
    EXPECT_TRUE(sub.m_storage == tc.m) << c;
    EXPECT_EQ(sub.opts.algo, opts.algo);
    EXPECT_EQ(sub.opts.kind, opts.kind);
    EXPECT_EQ(sub.opts.phases, opts.phases);
    EXPECT_EQ(sub.opts.heap_ninspect, opts.heap_ninspect);
    EXPECT_EQ(sub.opts.inner_gallop, opts.inner_gallop);
  }
}

TEST(WireSession, RegisterSendsAliasedMaskOnce) {
  const auto b = erdos_renyi<IT, VT>(50, 50, 5, 21);
  const auto aliased = register_payload(b, &b);
  const Mat copy(b);
  const auto distinct = register_payload(b, &copy);
  EXPECT_LT(aliased.size(), distinct.size());
  const auto reg = decode_register<IT, VT>(aliased);
  EXPECT_TRUE(reg.mask_is_b);
  EXPECT_TRUE(reg.b == b);
}

TEST(WireSession, RejectsTruncatedAndTrailingPayloads) {
  const auto a = erdos_renyi<IT, VT>(40, 40, 5, 31);
  const auto reg = register_payload(a, &a);
  GatherPayload g;
  encode_submit_parts<IT, VT>(g, 1, 1, 0, &a, &a, MaskedOptions{});
  const auto sub = g.flatten();
  // Any truncation point must throw, never crash or mis-decode.
  for (const auto* payload : {&reg, &sub}) {
    for (std::size_t len : {std::size_t{0}, payload->size() / 4,
                            payload->size() / 2, payload->size() - 1}) {
      const std::span<const std::uint8_t> cut(payload->data(), len);
      if (payload == &reg) {
        EXPECT_THROW((decode_register<IT, VT>(cut)), WireError) << len;
      } else {
        EXPECT_THROW((decode_submit<IT, VT>(cut)), WireError) << len;
      }
    }
  }
  auto trailing_reg = reg;
  trailing_reg.push_back(0);
  EXPECT_THROW((decode_register<IT, VT>(trailing_reg)), WireError);
  auto trailing_sub = sub;
  trailing_sub.push_back(0);
  EXPECT_THROW((decode_submit<IT, VT>(trailing_sub)), WireError);
}

TEST(WireSession, RejectsTypeMismatchAndBadEnums) {
  const auto a = erdos_renyi<IT, VT>(30, 30, 4, 41);
  // Decoding with the wrong value type must fail loudly.
  EXPECT_THROW((decode_register<IT, float>(register_payload(a))), WireError);
  GatherPayload g;
  encode_submit_parts<IT, VT>(g, 1, 1, kSubMRegistered, &a, nullptr,
                              MaskedOptions{});
  const auto payload = g.flatten();
  EXPECT_THROW((decode_submit<IT, float>(payload)), WireError);

  // Poison the algo enum: the first options field, after the structure id,
  // version and flag byte.
  auto bad = payload;
  bad[17] = 0x7F;
  EXPECT_THROW((decode_submit<IT, VT>(bad)), WireError);
}

TEST(WireSession, EveryAlgoCodeRoundTripsAndTheNextIsRejected) {
  EXPECT_EQ(static_cast<std::uint32_t>(MaskedAlgo::kAuto), 8u);
  for (std::uint32_t code = 0; code <= 10; ++code) {
    MaskedOptions o;
    o.algo = static_cast<MaskedAlgo>(code);
    WireWriter w;
    write_options(w, o);
    WireReader r(w.bytes());
    EXPECT_EQ(read_options(r).algo, o.algo) << code;
  }
  EXPECT_EQ(static_cast<std::uint32_t>(MaskedAlgo::kAdaptive), 10u);
  WireWriter w;
  write_options(w, MaskedOptions{});
  std::vector<std::uint8_t> bytes(w.bytes().begin(), w.bytes().end());
  const std::uint32_t past_end = 11;
  std::memcpy(bytes.data(), &past_end, sizeof(past_end));  // algo is first
  WireReader r(bytes);
  EXPECT_THROW(read_options(r), WireError);
}

TEST(WireSession, RejectsInvalidCsrStructure) {
  // A structurally broken matrix (rowptr not matching nnz) must be caught
  // by the decoder even though the checksum would pass.
  auto put_broken_csr = [](WireWriter& w) {
    w.put_u8(sizeof(IT));
    w.put_u8(WireValueCode<VT>::value);
    w.put_u64(2);  // nrows
    w.put_u64(2);  // ncols
    const IT rowptr[] = {0, 1, 3};  // claims 3 nnz
    const IT colidx[] = {0, 1};     // but carries 2
    const VT values[] = {1.0, 2.0};
    w.put_array(std::span<const IT>(rowptr));
    w.put_array(std::span<const IT>(colidx));
    w.put_array(std::span<const VT>(values));
  };
  {
    WireWriter w;
    w.put_u64(1);  // structure id
    w.put_u64(1);  // version
    w.put_u8(0);   // no mask
    put_broken_csr(w);
    EXPECT_THROW((decode_register<IT, VT>(w.bytes())), WireError);
  }
  {
    WireWriter w;
    w.put_u64(1);
    w.put_u64(1);
    w.put_u8(kSubMRegistered);  // A inline, registered mask
    write_options(w, MaskedOptions{});
    put_broken_csr(w);
    EXPECT_THROW((decode_submit<IT, VT>(w.bytes())), WireError);
  }
}

TEST(WireResponse, RoundTripsResultAndErrors) {
  const auto c = erdos_renyi<IT, VT>(33, 44, 3, 51);
  const auto ok = decode_response<IT, VT>(encode_response(c));
  EXPECT_EQ(ok.status, WireStatus::kOk);
  EXPECT_TRUE(ok.result == c);

  const auto err = decode_response<IT, VT>(
      encode_error_response(WireStatus::kOverloaded, "queue full"));
  EXPECT_EQ(err.status, WireStatus::kOverloaded);
  EXPECT_EQ(err.message, "queue full");

  std::vector<std::uint8_t> junk = {0xAA, 0xBB};
  EXPECT_THROW((decode_response<IT, VT>(junk)), WireError);
}

TEST(WireTransport, FramesCrossLoopbackAndRejectCorruption) {
  auto [client, server] = loopback_pair();
  const auto a = erdos_renyi<IT, VT>(64, 64, 5, 61);
  const auto payload = register_payload(a, &a);

  // Clean frame round trip.
  std::thread writer([&, &client = client] {
    send_frame(*client, MessageType::kRegisterRequest, 77, payload);
  });
  FrameHeader h;
  std::vector<std::uint8_t> got;
  ASSERT_TRUE(recv_frame(*server, h, got));
  writer.join();
  EXPECT_EQ(h.request_id, 77u);
  EXPECT_EQ(got.size(), payload.size());
  EXPECT_TRUE((decode_register<IT, VT>(got).b == a));

  // Corrupt payload byte: checksum must reject it.
  auto corrupt = frame_bytes(MessageType::kRegisterRequest, 78, payload);
  corrupt[kFrameHeaderBytes + 10] ^= 0x40;
  std::thread corruptor([&, &client = client] {
    client->write_all(corrupt.data(), corrupt.size());
  });
  EXPECT_THROW(recv_frame(*server, h, got), WireError);
  corruptor.join();
}

TEST(WireTransport, TruncatedFrameAndCleanEofAreDistinct) {
  const auto a = erdos_renyi<IT, VT>(32, 32, 4, 71);
  const auto payload = register_payload(a, &a);
  const auto full = frame_bytes(MessageType::kRegisterRequest, 5, payload);

  {
    // Cut mid-payload: the reader must see a WireError, not a silent EOF.
    auto [client, server] = loopback_pair();
    std::thread writer([&, &client = client] {
      client->write_all(full.data(), full.size() / 2);
      client->shutdown();
    });
    FrameHeader h;
    std::vector<std::uint8_t> got;
    EXPECT_THROW(recv_frame(*server, h, got), WireError);
    writer.join();
  }
  {
    // EOF exactly between frames is a clean close.
    auto [client, server] = loopback_pair();
    std::thread writer([&, &client = client] {
      client->write_all(full.data(), full.size());
      client->shutdown();
    });
    FrameHeader h;
    std::vector<std::uint8_t> got;
    EXPECT_TRUE(recv_frame(*server, h, got));
    EXPECT_FALSE(recv_frame(*server, h, got));
    writer.join();
  }
}

TEST(WireTransport, UnixSocketRoundTrip) {
  const std::string path = testing::TempDir() + "msx_wire_test.sock";
  auto listener = listen_unix(path);
  const auto a = erdos_renyi<IT, VT>(48, 48, 5, 81);
  const auto payload = register_payload(a, &a);

  std::thread client_thread([&] {
    auto c = connect_unix(path);
    send_frame(*c, MessageType::kRegisterRequest, 9, payload);
    FrameHeader h;
    std::vector<std::uint8_t> reply;
    ASSERT_TRUE(recv_frame(*c, h, reply));
    EXPECT_EQ(h.type, MessageType::kResponse);
    EXPECT_EQ((decode_response<IT, VT>(reply).status), WireStatus::kOk);
  });

  auto conn = listener->accept();
  ASSERT_NE(conn, nullptr);
  FrameHeader h;
  std::vector<std::uint8_t> got;
  ASSERT_TRUE(recv_frame(*conn, h, got));
  EXPECT_TRUE((decode_register<IT, VT>(got).b == a));
  send_frame(*conn, MessageType::kResponse, h.request_id,
             encode_response(a));
  client_thread.join();
}

// --- session protocol (wire v2) + scatter-gather ---------------------------

TEST(WireGather, PartsChecksumAndBytesMatchContiguous) {
  const auto a = erdos_renyi<IT, VT>(40, 40, 5, 7);
  const auto m = erdos_renyi<IT, VT>(40, 40, 6, 9);

  GatherPayload g;
  encode_submit_parts<IT, VT>(g, 5, 2, 0, &a, &m, MaskedOptions{});
  const auto flat = g.flatten();
  EXPECT_EQ(flat.size(), g.total_bytes());
  // The multi-span hash must agree bit-for-bit with the contiguous hash the
  // receiver verifies — the invariant the whole gather path rests on.
  EXPECT_EQ(plan_hash_parts(kWireChecksumSeed, g.parts()),
            plan_hash_bytes(kWireChecksumSeed, flat.data(), flat.size()));
  // And the flattened image is exactly the contiguous WireWriter encoding.
  WireWriter w;
  w.put_u64(5);
  w.put_u64(2);
  w.put_u8(0);
  write_options(w, MaskedOptions{});
  write_csr(w, a);
  write_csr(w, m);
  EXPECT_EQ(flat, w.take());
}

TEST(WireGather, FrameCrossesLoopbackViaWritev) {
  // send_frame_parts over both transports must be wire-identical to
  // send_frame of the flattened payload (same header, same checksum).
  const auto a = erdos_renyi<IT, VT>(32, 32, 5, 3);
  auto [c, s] = loopback_pair();
  GatherPayload g;
  encode_response_parts(g, a);
  send_frame_parts(*c, MessageType::kResponse, 77, g);
  FrameHeader h;
  std::vector<std::uint8_t> got;
  ASSERT_TRUE(recv_frame(*s, h, got));
  EXPECT_EQ(h.request_id, 77u);
  const auto resp = decode_response<IT, VT>(got);
  EXPECT_EQ(resp.status, WireStatus::kOk);
  EXPECT_TRUE(resp.result == a);
}

TEST(WireGather, FrameCrossesUnixSocketViaSendmsg) {
  const std::string path = testing::TempDir() + "msx_wire_gather.sock";
  auto listener = listen_unix(path);
  const auto a = erdos_renyi<IT, VT>(64, 64, 6, 4);

  std::thread client_thread([&] {
    auto c = connect_unix(path);
    GatherPayload g;
    encode_register_parts<IT, VT>(g, 42, 1, a, &a);  // mask aliases B
    send_frame_parts(*c, MessageType::kRegisterRequest, 0, g);
  });

  auto conn = listener->accept();
  ASSERT_NE(conn, nullptr);
  FrameHeader h;
  std::vector<std::uint8_t> got;
  ASSERT_TRUE(recv_frame(*conn, h, got));
  EXPECT_EQ(h.type, MessageType::kRegisterRequest);
  const auto reg = decode_register<IT, VT>(got);
  EXPECT_EQ(reg.structure_id, 42u);
  EXPECT_TRUE(reg.has_mask);
  EXPECT_TRUE(reg.mask_is_b);
  EXPECT_TRUE(reg.b == a);
  client_thread.join();
}

TEST(WireSession, RegisterSubmitUnregisterRoundTrip) {
  const auto b = erdos_renyi<IT, VT>(50, 50, 5, 11);
  const auto m = erdos_renyi<IT, VT>(50, 50, 7, 12);
  const auto a = erdos_renyi<IT, VT>(50, 50, 5, 13);

  {
    GatherPayload g;
    encode_register_parts(g, 7, 3, b, &m);
    const auto reg = decode_register<IT, VT>(g.flatten());
    EXPECT_EQ(reg.structure_id, 7u);
    EXPECT_EQ(reg.version, 3u);
    EXPECT_TRUE(reg.has_mask);
    EXPECT_FALSE(reg.mask_is_b);
    EXPECT_TRUE(reg.b == b);
    EXPECT_TRUE(reg.m_storage == m);
  }
  {
    // Inline A, registered mask, interactive priority.
    GatherPayload g;
    MaskedOptions opts;
    opts.kind = MaskKind::kComplement;
    encode_submit_parts<IT, VT>(g, 7, 3, kSubMRegistered | kSubInteractive,
                                &a, nullptr, opts);
    const auto sub = decode_submit<IT, VT>(g.flatten());
    EXPECT_EQ(sub.structure_id, 7u);
    EXPECT_EQ(sub.version, 3u);
    EXPECT_FALSE(sub.a_is_b);
    EXPECT_TRUE(sub.m_registered);
    EXPECT_EQ(sub.priority, Priority::kInteractive);
    EXPECT_EQ(sub.opts.kind, MaskKind::kComplement);
    EXPECT_TRUE(sub.a_storage == a);
  }
  {
    // Fully aliased k-truss shape: nothing but flags and options on the wire.
    GatherPayload g;
    encode_submit_parts<IT, VT>(g, 9, 1, kSubAIsB | kSubMIsA, nullptr,
                                nullptr, MaskedOptions{});
    const auto flat = g.flatten();
    EXPECT_LT(flat.size(), 64u);  // no matrix crossed the wire
    const auto sub = decode_submit<IT, VT>(flat);
    EXPECT_TRUE(sub.a_is_b);
    EXPECT_TRUE(sub.m_is_a);
    EXPECT_EQ(sub.priority, Priority::kBatch);
  }
  EXPECT_EQ(decode_unregister(encode_unregister(31)), 31u);
}

TEST(WireSession, RejectsContradictoryAndUnknownFlags) {
  const auto a = erdos_renyi<IT, VT>(20, 20, 4, 1);
  {
    GatherPayload g;
    encode_submit_parts<IT, VT>(g, 1, 1, kSubMIsA | kSubMIsB, &a, nullptr,
                                MaskedOptions{});
    EXPECT_THROW((decode_submit<IT, VT>(g.flatten())), WireError);
  }
  {
    WireWriter w;
    w.put_u64(1);
    w.put_u64(1);    // version
    w.put_u8(0x80);  // unknown submit flag bit
    EXPECT_THROW((decode_submit<IT, VT>(w.bytes())), WireError);
  }
  {
    WireWriter w;
    w.put_u64(1);
    w.put_u64(1);           // version
    w.put_u8(kRegMaskIsB);  // mask-is-b without has-mask
    EXPECT_THROW((decode_register<IT, VT>(w.bytes())), WireError);
  }
  // Truncated unregister payload.
  WireWriter w;
  w.put_u32(5);
  EXPECT_THROW(decode_unregister(w.bytes()), WireError);
}

TEST(WireUpdate, RoundTripsDeltaAndRejectsMalformedPayloads) {
  EdgeDelta<IT, VT> delta;
  delta.insert(3, 7, 1.5);
  delta.insert(0, 0, -2.0);
  delta.erase(5, 1);

  const auto payload = encode_update(91, 4, delta);
  const auto upd = decode_update<IT, VT>(payload);
  EXPECT_EQ(upd.structure_id, 91u);
  EXPECT_EQ(upd.new_version, 4u);
  ASSERT_EQ(upd.delta.size(), delta.size());
  EXPECT_EQ(upd.delta.ins_row, delta.ins_row);
  EXPECT_EQ(upd.delta.ins_col, delta.ins_col);
  EXPECT_EQ(upd.delta.ins_val, delta.ins_val);
  EXPECT_EQ(upd.delta.del_row, delta.del_row);
  EXPECT_EQ(upd.delta.del_col, delta.del_col);

  // An empty delta is legal on the wire (a pure version bump).
  const auto empty = decode_update<IT, VT>(
      encode_update(92, 2, EdgeDelta<IT, VT>{}));
  EXPECT_TRUE(empty.delta.empty());

  // Index-width and value-type mismatches are typed rejections, as is junk
  // past the last array.
  EXPECT_THROW((decode_update<std::int64_t, VT>(payload)), WireError);
  EXPECT_THROW((decode_update<IT, float>(payload)), WireError);
  auto trailing = payload;
  trailing.push_back(0);
  EXPECT_THROW((decode_update<IT, VT>(trailing)), WireError);
  auto truncated = payload;
  truncated.pop_back();
  EXPECT_THROW((decode_update<IT, VT>(truncated)), WireError);
}

TEST(WireFrame, VersionMismatchIsTypedWithPeerVersionAndRequestId) {
  // A well-formed frame header from a hypothetical wire-v2 peer: same stable
  // 32-byte layout, older version stamp. The decoder must parse far enough
  // to recover the request id, then throw the typed error so a server can
  // answer on that id instead of dropping the connection.
  const std::vector<std::uint8_t> payload = {1, 2, 3};
  auto header = encode_frame_header(MessageType::kSubmitRequest, 77, payload);
  header[4] = 2;  // version lives at bytes 4..5 (little endian)
  header[5] = 0;
  try {
    decode_frame_header(header);
    FAIL() << "expected WireVersionError";
  } catch (const WireVersionError& e) {
    EXPECT_EQ(e.peer_version(), 2u);
    EXPECT_EQ(e.request_id(), 77u);
    EXPECT_NE(std::string(e.what()).find("version 2"), std::string::npos);
  }
  // Still a WireError for catch-all handlers.
  header[4] = 9;
  EXPECT_THROW(decode_frame_header(header), WireError);
}
