#include "service/wire.hpp"

namespace msx::service {

const char* to_string(MessageType t) {
  switch (t) {
    case MessageType::kResponse: return "response";
    case MessageType::kRegisterRequest: return "register";
    case MessageType::kSubmitRequest: return "submit";
    case MessageType::kUnregisterRequest: return "unregister";
    case MessageType::kUpdateRequest: return "update";
    case MessageType::kMetricsRequest: return "metrics-request";
    case MessageType::kMetricsResponse: return "metrics-response";
  }
  return "?";
}

const char* to_string(WireStatus s) {
  switch (s) {
    case WireStatus::kOk: return "ok";
    case WireStatus::kOverloaded: return "overloaded";
    case WireStatus::kBadRequest: return "bad-request";
    case WireStatus::kInternalError: return "internal-error";
    case WireStatus::kStaleStructure: return "stale-structure";
  }
  return "?";
}

std::vector<std::uint8_t> encode_frame_header_raw(MessageType type,
                                                  std::uint64_t request_id,
                                                  std::uint64_t payload_len,
                                                  std::uint64_t checksum) {
  std::vector<std::uint8_t> bytes(kFrameHeaderBytes);
  std::uint8_t* p = bytes.data();
  auto put = [&p](const auto v) {
    std::memcpy(p, &v, sizeof v);
    p += sizeof v;
  };
  put(kWireMagic);
  put(kWireVersion);
  put(static_cast<std::uint16_t>(type));
  put(request_id);
  put(payload_len);
  put(checksum);
  MSX_ASSERT(p == bytes.data() + kFrameHeaderBytes);
  return bytes;
}

std::vector<std::uint8_t> encode_frame_header(
    MessageType type, std::uint64_t request_id,
    std::span<const std::uint8_t> payload) {
  return encode_frame_header_raw(
      type, request_id, payload.size(),
      plan_hash_bytes(kWireChecksumSeed, payload.data(), payload.size()));
}

FrameHeader decode_frame_header(std::span<const std::uint8_t> bytes) {
  if (bytes.size() != kFrameHeaderBytes) {
    throw WireError("wire: short frame header");
  }
  WireReader r(bytes);
  if (r.get_u32() != kWireMagic) throw WireError("wire: bad magic");
  // The 32-byte header layout has been stable since v1, so a mismatched
  // version is parsed in full first: the request id lets the server answer
  // the old peer with a versioned error on the right id (WireVersionError)
  // rather than dropping the connection with no explanation.
  FrameHeader h;
  h.version = r.get_u16();
  const std::uint16_t type = r.get_u16();
  h.request_id = r.get_u64();
  h.payload_len = r.get_u64();
  h.checksum = r.get_u64();
  if (h.version != kWireVersion) {
    throw WireVersionError(h.version, h.request_id);
  }
  // Types 1, 3 and 4 were retired in v6 (the numbers are never reused).
  if (type < static_cast<std::uint16_t>(MessageType::kResponse) ||
      type > static_cast<std::uint16_t>(MessageType::kMetricsResponse) ||
      type == 3 || type == 4) {
    throw WireError("wire: unknown message type " + std::to_string(type));
  }
  h.type = static_cast<MessageType>(type);
  if (h.payload_len > kMaxPayloadBytes) {
    throw WireError("wire: payload length exceeds limit");
  }
  return h;
}

void verify_payload(const FrameHeader& header,
                    std::span<const std::uint8_t> payload) {
  if (payload.size() != header.payload_len) {
    throw WireError("wire: payload length mismatch");
  }
  const std::uint64_t sum =
      plan_hash_bytes(kWireChecksumSeed, payload.data(), payload.size());
  if (sum != header.checksum) throw WireError("wire: checksum mismatch");
}

namespace {

template <class E>
E checked_enum(std::uint32_t raw, E max, const char* what) {
  if (raw > static_cast<std::uint32_t>(max)) {
    throw WireError(std::string("wire: unknown ") + what + " value " +
                    std::to_string(raw));
  }
  return static_cast<E>(raw);
}

}  // namespace

MaskedOptions read_options(WireReader& r) {
  MaskedOptions opts;
  opts.algo = checked_enum(r.get_u32(), MaskedAlgo::kAuto, "algo");
  opts.phases = checked_enum(r.get_u32(), PhaseMode::kTwoPhase, "phase mode");
  opts.kind = checked_enum(r.get_u32(), MaskKind::kComplement, "mask kind");
  opts.schedule =
      checked_enum(r.get_u32(), Schedule::kFlopBalanced, "schedule");
  opts.cost_model =
      checked_enum(r.get_u32(), CostModel::kMaskNnz, "cost model");
  opts.threads = r.get_i32();
  opts.chunk = r.get_i32();
  opts.heap_ninspect = static_cast<std::size_t>(r.get_u64());
  const std::uint8_t gallop = r.get_u8();
  if (gallop > 1) throw WireError("wire: bad inner_gallop flag");
  opts.inner_gallop = gallop != 0;
  return opts;
}

std::vector<std::uint8_t> encode_error_response(WireStatus status,
                                                const std::string& message,
                                                std::uint64_t exec_nanos) {
  MSX_ASSERT(status != WireStatus::kOk);
  WireWriter w;
  w.put_u32(static_cast<std::uint32_t>(status));
  w.put_u64(exec_nanos);
  w.put_u64(0);  // queue_nanos (v5): unknown on the error path
  w.put_u64(0);  // run_nanos
  w.put_string(message);
  return w.take();
}

std::vector<std::uint8_t> encode_metrics_text(const std::string& text) {
  WireWriter w;
  w.put_string(text);
  return w.take();
}

std::string decode_metrics_text(std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  std::string text = r.get_string();
  if (!r.exhausted()) throw WireError("wire: trailing bytes in metrics");
  return text;
}

}  // namespace msx::service
