// Wire protocol for the sharded masked-SpGEMM service (ISSUE 4 tentpole).
//
// A compact binary format carrying CSR operands, MaskedOptions and results
// between the sharded client (client/sharded_backend.hpp) and a ServiceShard
// server. Every message is a frame:
//
//   [magic u32][version u16][type u16][request_id u64][payload_len u64]
//   [checksum u64]  — 32-byte header, then payload_len payload bytes.
//
// The checksum is plan_hash_bytes over the payload (the same streaming hash
// the PlanCache fingerprint uses), so a corrupt or truncated frame is
// rejected before any of it is interpreted. The payload encodes scalars
// little-endian and arrays as raw element bytes; element types are tagged
// (index width + value code) and verified at decode, so a client and server
// built with different instantiations fail loudly instead of misreading.
//
// Aliasing is first-class: a registration or submit stores each distinct
// operand once and flags the aliases (M==B, A==B, M==A), which keeps
// k-truss-style traffic small on the wire AND reproduces on the shard the
// exact aliasing the PlanCache fingerprint keys on, so repeated structures
// hit warm plans.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/delta.hpp"
#include "core/options.hpp"
#include "matrix/csr.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/thread_pool.hpp"  // Priority (submit frames carry it)

namespace msx::service {

// Malformed traffic: bad magic/version, checksum mismatch, truncated
// payload, unknown enum value, element-type mismatch.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Numbers are never reused: 1 (the stateless every-operand request) and 3/4
// (the binary stats probe) were retired in v6 and are rejected as unknown.
enum class MessageType : std::uint16_t {
  kResponse = 2,  // result (or error status)
  // Session protocol (wire v2, async client): a connection registers its
  // stationary operands once and then pipelines many products that reference
  // them by id — the stationary B (and optionally M) crosses the wire and is
  // hashed exactly once per connection instead of once per product.
  kRegisterRequest = 5,    // install {B[, M]} under a client-chosen id
  kSubmitRequest = 6,      // product against a registered structure
  kUnregisterRequest = 7,  // drop a registered structure
  // Streaming protocol (wire v3): mutate a registered structure in place by
  // shipping the edge delta — not the patched matrix — and a new version
  // number. One-way like register/unregister (FIFO frame ordering makes a
  // submit behind an update see the new version).
  kUpdateRequest = 8,
  // Observability protocol (wire v5): pull a shard's metrics registry as
  // Prometheus text exposition. Request carries no payload; the response
  // payload is one length-prefixed string.
  kMetricsRequest = 9,
  kMetricsResponse = 10,
};

enum class WireStatus : std::uint32_t {
  kOk = 0,
  kOverloaded = 1,     // admission control rejected the job (back-pressure)
  kBadRequest = 2,     // validation failed (shapes, unsupported combo, ...)
  kInternalError = 3,  // anything else thrown while serving
  // v3: the submit named a structure version that has been superseded by an
  // update. Typed and retryable — resubmit against the current handle; never
  // answered with a stale (wrong) result.
  kStaleStructure = 4,
};

const char* to_string(MessageType t);
const char* to_string(WireStatus s);

inline constexpr std::uint32_t kWireMagic = 0x4D535857u;  // "WXSM" on the wire
// v2 added the session message types (kRegisterRequest/kSubmitRequest/
// kUnregisterRequest) behind the same frame layout. v3 adds kUpdateRequest
// plus a version field on register/submit payloads (streaming structures)
// and the kStaleStructure status. v4 (distributed 2D products) aligns every
// array's elements to an 8-byte payload offset so receivers can hand out
// spans over the payload instead of copying arrays out, carries the shard's
// execute time on every response (load-aware routing), and adds the
// kSubMaskRows row window so a panel task can run against a row slice of the
// registered mask. v5 (observability) adds the optional kSubTraced
// trace-context triple on submits, splits the response timing into
// exec/queue/run nanoseconds, and adds kMetricsRequest/kMetricsResponse
// (Prometheus text pull). v6 retires the stateless request (type 1) and the
// stats probe (types 3/4): the session protocol carries every product and
// kMetricsRequest doubles as the health probe. The 32-byte header layout
// has never changed, so a mismatched peer is parsed far enough to reject it
// loudly on its own request id (WireVersionError) instead of hanging.
inline constexpr std::uint16_t kWireVersion = 6;
inline constexpr std::size_t kFrameHeaderBytes = 32;
// Upper bound on a single payload; a corrupt length field must not turn into
// a multi-gigabyte allocation.
inline constexpr std::uint64_t kMaxPayloadBytes = 1ull << 31;
inline constexpr std::uint64_t kWireChecksumSeed = 0x6d73782d77697265ull;

// A structurally valid frame from a peer speaking another protocol version.
// Carries the peer's version and request id so a server can answer with a
// clean versioned error on the same id instead of silently dropping the
// connection (the v2↔v3 compatibility contract).
class WireVersionError : public WireError {
 public:
  WireVersionError(std::uint16_t peer_version, std::uint64_t request_id)
      : WireError("wire: unsupported version " + std::to_string(peer_version) +
                  " (this peer speaks version " +
                  std::to_string(kWireVersion) + ")"),
        peer_version_(peer_version),
        request_id_(request_id) {}

  std::uint16_t peer_version() const { return peer_version_; }
  std::uint64_t request_id() const { return request_id_; }

 private:
  std::uint16_t peer_version_;
  std::uint64_t request_id_;
};

struct FrameHeader {
  std::uint16_t version = kWireVersion;
  MessageType type = MessageType::kResponse;
  std::uint64_t request_id = 0;
  std::uint64_t payload_len = 0;
  std::uint64_t checksum = 0;
};

// Header bytes for a frame carrying `payload` (checksum computed here).
std::vector<std::uint8_t> encode_frame_header(MessageType type,
                                              std::uint64_t request_id,
                                              std::span<const std::uint8_t> payload);

// Header bytes for a payload whose length and checksum were computed
// elsewhere — the scatter-gather writer checksums its parts in place
// (plan_hash_parts) instead of materializing the payload.
std::vector<std::uint8_t> encode_frame_header_raw(MessageType type,
                                                  std::uint64_t request_id,
                                                  std::uint64_t payload_len,
                                                  std::uint64_t checksum);

// Parses and validates magic/version/length bounds; throws WireError.
FrameHeader decode_frame_header(std::span<const std::uint8_t> bytes);

// Throws WireError when the payload does not hash to the header's checksum.
void verify_payload(const FrameHeader& header,
                    std::span<const std::uint8_t> payload);

// --- scalar/array encoding -------------------------------------------------

static_assert(std::endian::native == std::endian::little,
              "wire format is little-endian; add byte-swapping for BE hosts");

// v4: array elements start at an 8-byte offset from the payload start
// (deterministic zero padding after the length prefix, emitted identically
// by WireWriter and GatherPayload and skipped by WireReader). Receive
// payloads land in fresh allocations (>= 16-byte aligned), so an 8-aligned
// offset makes every element pointer valid for direct reinterpretation —
// the zero-copy receive path (get_array_view / read_csr_view) depends on it.
inline constexpr std::size_t kWireArrayAlign = 8;

inline constexpr std::size_t wire_align_pad(std::size_t offset) {
  return (kWireArrayAlign - offset % kWireArrayAlign) % kWireArrayAlign;
}

class WireWriter {
 public:
  void put_u8(std::uint8_t v) { put_raw(&v, 1); }
  void put_u16(std::uint16_t v) { put_raw(&v, 2); }
  void put_u32(std::uint32_t v) { put_raw(&v, 4); }
  void put_u64(std::uint64_t v) { put_raw(&v, 8); }
  void put_i32(std::int32_t v) { put_raw(&v, 4); }
  void put_i64(std::int64_t v) { put_raw(&v, 8); }

  void put_string(const std::string& s) {
    put_u32(static_cast<std::uint32_t>(s.size()));
    put_raw(s.data(), s.size());
  }

  // Raw element bytes of a trivially copyable span, elements padded to an
  // 8-byte payload offset (valid only when this writer builds the payload
  // from offset zero, which every encoder here does).
  template <class T>
  void put_array(std::span<const T> v) {
    static_assert(std::is_trivially_copyable_v<T>);
    put_u64(static_cast<std::uint64_t>(v.size()));
    buf_.resize(buf_.size() + wire_align_pad(buf_.size()), 0);
    put_raw(v.data(), v.size_bytes());
  }

  std::span<const std::uint8_t> bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  void put_raw(const void* data, std::size_t len) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + len);
  }
  std::vector<std::uint8_t> buf_;
};

// Bounds-checked reader over a payload; any overrun throws WireError, which
// is how a truncated payload surfaces no matter where the cut landed.
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t get_u8() { return get_scalar<std::uint8_t>(); }
  std::uint16_t get_u16() { return get_scalar<std::uint16_t>(); }
  std::uint32_t get_u32() { return get_scalar<std::uint32_t>(); }
  std::uint64_t get_u64() { return get_scalar<std::uint64_t>(); }
  std::int32_t get_i32() { return get_scalar<std::int32_t>(); }
  std::int64_t get_i64() { return get_scalar<std::int64_t>(); }

  std::string get_string() {
    const std::uint32_t n = get_u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  template <class T>
  std::vector<T> get_array() {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t n = array_header<T>();
    std::vector<T> v(static_cast<std::size_t>(n));
    if (n > 0) {
      std::memcpy(v.data(), bytes_.data() + pos_, v.size() * sizeof(T));
      pos_ += v.size() * sizeof(T);
    }
    return v;
  }

  // Zero-copy form: a span over the payload bytes themselves (v4 aligns the
  // elements, so the reinterpretation is valid whenever the payload buffer
  // is at least 8-byte aligned — a fresh vector allocation always is). The
  // span aliases the payload; the caller keeps the buffer alive.
  template <class T>
  std::span<const T> get_array_view() {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t n = array_header<T>();
    const auto* p = bytes_.data() + pos_;
    if (reinterpret_cast<std::uintptr_t>(p) % alignof(T) != 0) {
      throw WireError("wire: misaligned array view");
    }
    pos_ += static_cast<std::size_t>(n) * sizeof(T);
    return std::span<const T>(reinterpret_cast<const T*>(p),
                              static_cast<std::size_t>(n));
  }

  bool exhausted() const { return pos_ == bytes_.size(); }
  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  template <class T>
  T get_scalar() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  // Length prefix + alignment skip shared by the copying and view readers;
  // leaves pos_ at the first element byte with the whole array bounds-checked.
  template <class T>
  std::uint64_t array_header() {
    const std::uint64_t n = get_u64();
    const std::size_t pad = wire_align_pad(pos_);
    need(pad);
    pos_ += pad;
    if (n > bytes_.size() / sizeof(T)) {
      throw WireError("wire: array length exceeds payload");
    }
    need(static_cast<std::size_t>(n) * sizeof(T));
    return n;
  }
  void need(std::size_t n) {
    if (remaining() < n) throw WireError("wire: truncated payload");
  }
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

// --- scatter-gather payloads -----------------------------------------------

// A payload described as an ordered list of byte spans instead of one
// contiguous buffer: small metadata runs (flags, options, dims, array length
// prefixes) are owned by the payload, while large arrays (rowptr / colidx /
// values) stay where they live and are referenced in place. A socket
// transport sends the whole frame as one writev/sendmsg batch, which drops
// the payload-assembly copy that dominates the send side for large operands.
// The referenced arrays must stay alive and unchanged until the frame is
// written. The receive side is unaffected: it still reads one contiguous
// payload and verifies one checksum (plan_hash_parts == plan_hash_bytes over
// the concatenation).
class GatherPayload {
 public:
  // Metadata writer for small scalars; its bytes are spliced (in order)
  // between the referenced spans.
  void put_u8(std::uint8_t v) { meta_.put_u8(v); }
  void put_u32(std::uint32_t v) { meta_.put_u32(v); }
  void put_u64(std::uint64_t v) { meta_.put_u64(v); }
  void put_i32(std::int32_t v) { meta_.put_i32(v); }

  // References `bytes` in place as the next run of the payload.
  void add_span(std::span<const std::uint8_t> bytes) {
    flush_meta();
    if (!bytes.empty()) {
      parts_.push_back(bytes);
      total_ += bytes.size();
    }
  }

  // Length-prefixed array, the prefix in metadata and the elements in place —
  // the wire image is identical to WireWriter::put_array, including the v4
  // alignment padding (offset = flushed parts + unflushed metadata).
  template <class T>
  void add_array(std::span<const T> v) {
    static_assert(std::is_trivially_copyable_v<T>);
    put_u64(static_cast<std::uint64_t>(v.size()));
    const std::size_t pad = wire_align_pad(total_ + meta_.bytes().size());
    for (std::size_t i = 0; i < pad; ++i) put_u8(0);
    add_span(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(v.data()), v.size_bytes()));
  }

  // The ordered spans (trailing metadata flushed). The returned spans alias
  // this object and the referenced arrays.
  std::span<const std::span<const std::uint8_t>> parts() {
    flush_meta();
    return parts_;
  }

  std::size_t total_bytes() {
    flush_meta();
    return total_;
  }

  // Contiguous copy of the payload — the compatibility path for transports
  // and tests that want one buffer.
  std::vector<std::uint8_t> flatten() {
    std::vector<std::uint8_t> out;
    out.reserve(total_bytes());
    for (const auto& part : parts()) {
      out.insert(out.end(), part.begin(), part.end());
    }
    return out;
  }

 private:
  void flush_meta() {
    if (meta_.bytes().empty()) return;
    owned_.push_back(meta_.take());
    meta_ = WireWriter();  // moved-from writer state is unspecified; reset
    parts_.push_back(std::span<const std::uint8_t>(owned_.back()));
    total_ += owned_.back().size();
  }

  WireWriter meta_;
  // Vector-of-vectors: the heap buffers spans point into are stable under
  // push_back even though the vector objects move.
  std::vector<std::vector<std::uint8_t>> owned_;
  std::vector<std::span<const std::uint8_t>> parts_;
  std::size_t total_ = 0;
};

// --- element type tags -----------------------------------------------------

template <class T>
struct WireValueCode;  // deliberately undefined for unsupported types
template <>
struct WireValueCode<double> { static constexpr std::uint8_t value = 1; };
template <>
struct WireValueCode<float> { static constexpr std::uint8_t value = 2; };
template <>
struct WireValueCode<std::int32_t> { static constexpr std::uint8_t value = 3; };
template <>
struct WireValueCode<std::int64_t> { static constexpr std::uint8_t value = 4; };
template <>
struct WireValueCode<std::uint32_t> { static constexpr std::uint8_t value = 5; };
template <>
struct WireValueCode<std::uint64_t> { static constexpr std::uint8_t value = 6; };

// --- matrices --------------------------------------------------------------

template <class IT, class VT>
void write_csr(WireWriter& w, const CSRMatrix<IT, VT>& m) {
  w.put_u8(static_cast<std::uint8_t>(sizeof(IT)));
  w.put_u8(WireValueCode<VT>::value);
  w.put_u64(static_cast<std::uint64_t>(m.nrows()));
  w.put_u64(static_cast<std::uint64_t>(m.ncols()));
  w.put_array(m.rowptr());
  w.put_array(m.colidx());
  w.put_array(m.values());
}

template <class IT, class VT>
CSRMatrix<IT, VT> read_csr(WireReader& r) {
  if (r.get_u8() != sizeof(IT)) throw WireError("wire: index width mismatch");
  if (r.get_u8() != WireValueCode<VT>::value) {
    throw WireError("wire: value type mismatch");
  }
  const std::uint64_t nrows = r.get_u64();
  const std::uint64_t ncols = r.get_u64();
  auto rowptr = r.get_array<IT>();
  auto colidx = r.get_array<IT>();
  auto values = r.get_array<VT>();
  CSRMatrix<IT, VT> m;
  try {
    m = CSRMatrix<IT, VT>(static_cast<IT>(nrows), static_cast<IT>(ncols),
                          std::move(rowptr), std::move(colidx),
                          std::move(values));
  } catch (const std::invalid_argument& e) {
    throw WireError(std::string("wire: inconsistent CSR arrays: ") + e.what());
  }
  std::string why;
  if (!m.validate(&why)) {
    throw WireError("wire: CSR invariant violated: " + why);
  }
  return m;
}

// Same wire image as write_csr, but the three arrays are referenced in place
// (scatter-gather) instead of copied into the payload.
template <class IT, class VT>
void write_csr_parts(GatherPayload& g, const CSRMatrix<IT, VT>& m) {
  g.put_u8(static_cast<std::uint8_t>(sizeof(IT)));
  g.put_u8(WireValueCode<VT>::value);
  g.put_u64(static_cast<std::uint64_t>(m.nrows()));
  g.put_u64(static_cast<std::uint64_t>(m.ncols()));
  g.add_array(m.rowptr());
  g.add_array(m.colidx());
  g.add_array(m.values());
}

// A CSR result viewed in place over the receive payload (v4 zero-copy): the
// spans alias the payload buffer, which must outlive them. The row pointer
// is validated (monotone, consistent with the array lengths) because
// downstream merging indexes the element spans through it; per-entry column
// checks are left to the consumer, who walks every entry anyway.
template <class IT, class VT>
struct CSRView {
  IT nrows = 0;
  IT ncols = 0;
  std::span<const IT> rowptr;
  std::span<const IT> colidx;
  std::span<const VT> values;
};

template <class IT, class VT>
CSRView<IT, VT> read_csr_view(WireReader& r) {
  if (r.get_u8() != sizeof(IT)) throw WireError("wire: index width mismatch");
  if (r.get_u8() != WireValueCode<VT>::value) {
    throw WireError("wire: value type mismatch");
  }
  CSRView<IT, VT> v;
  v.nrows = static_cast<IT>(r.get_u64());
  v.ncols = static_cast<IT>(r.get_u64());
  v.rowptr = r.get_array_view<IT>();
  v.colidx = r.get_array_view<IT>();
  v.values = r.get_array_view<VT>();
  if (v.rowptr.size() != static_cast<std::size_t>(v.nrows) + 1 ||
      v.rowptr.front() != IT{0} ||
      static_cast<std::size_t>(v.rowptr.back()) != v.colidx.size() ||
      v.colidx.size() != v.values.size()) {
    throw WireError("wire: inconsistent CSR arrays");
  }
  for (std::size_t i = 0; i + 1 < v.rowptr.size(); ++i) {
    if (v.rowptr[i] > v.rowptr[i + 1]) {
      throw WireError("wire: CSR rowptr not monotone");
    }
  }
  return v;
}

// --- options ---------------------------------------------------------------

// Templated over the writer so the contiguous (WireWriter) and gather
// (GatherPayload) paths emit identical bytes from one definition.
template <class Writer>
void write_options(Writer& w, const MaskedOptions& opts) {
  w.put_u32(static_cast<std::uint32_t>(opts.algo));
  w.put_u32(static_cast<std::uint32_t>(opts.phases));
  w.put_u32(static_cast<std::uint32_t>(opts.kind));
  w.put_u32(static_cast<std::uint32_t>(opts.schedule));
  w.put_u32(static_cast<std::uint32_t>(opts.cost_model));
  w.put_i32(opts.threads);
  w.put_i32(opts.chunk);
  w.put_u64(static_cast<std::uint64_t>(opts.heap_ninspect));
  w.put_u8(opts.inner_gallop ? 1 : 0);
}

// Range-checks every enum; throws WireError on values this version does not
// know (a frame from a newer peer must not be silently misinterpreted).
MaskedOptions read_options(WireReader& r);

// --- session protocol (wire v2) --------------------------------------------
//
// A connection-scoped structure registry: kRegisterRequest installs the
// stationary operands {B[, M]} under a client-chosen id, kSubmitRequest then
// references them by id and ships only what varies per product (typically a
// small A and/or mask). Registrations live exactly as long as the
// connection, so a reconnect implies re-registration and a dropped client
// can never leak server memory. Register/unregister are one-way (no
// response): frames on a connection are processed in order, so a submit
// behind a register is guaranteed to find it, and a malformed registration
// tears the connection down like any other malformed frame.

inline constexpr std::uint8_t kRegHasMask = 1;  // {B, M} registered together
inline constexpr std::uint8_t kRegMaskIsB = 2;  // registered M aliases B

// Submit flags: where A and the mask come from. Exactly one mask source must
// hold (inline mask when none of the M bits is set).
inline constexpr std::uint8_t kSubAIsB = 1;         // A aliases registered B
inline constexpr std::uint8_t kSubMIsA = 2;         // mask aliases A
inline constexpr std::uint8_t kSubMIsB = 4;         // mask aliases registered B
inline constexpr std::uint8_t kSubMRegistered = 8;  // mask = registered M
inline constexpr std::uint8_t kSubInteractive = 16; // Priority::kInteractive
// v4 (2D panel tasks): the mask is rows [mask_r0, mask_r1) of the registered
// M, rebased to row 0 — the row window matching an inlined A row panel.
// Requires kSubMRegistered; the payload gains two u64s after the flag byte.
inline constexpr std::uint8_t kSubMaskRows = 32;
// v5 (observability): the submit carries its request trace context — the
// 128-bit trace id and the client-side parent span id — as three u64s after
// the mask row window. The shard parents its spans under it so one product
// yields a single merged timeline across client and shards.
inline constexpr std::uint8_t kSubTraced = 64;

template <class IT, class VT>
struct WireRegister {
  std::uint64_t structure_id = 0;
  std::uint64_t version = 1;  // v3: structure version installed with the body
  bool has_mask = false;
  bool mask_is_b = false;
  CSRMatrix<IT, VT> b;
  CSRMatrix<IT, VT> m_storage;  // valid when has_mask && !mask_is_b
};

// `version` lets a failover re-registration install the structure at its
// current (post-update) version so queued submits keep matching.
template <class IT, class VT>
void encode_register_parts(GatherPayload& g, std::uint64_t structure_id,
                           std::uint64_t version, const CSRMatrix<IT, VT>& b,
                           const CSRMatrix<IT, VT>* m) {
  const bool mask_is_b =
      m != nullptr && static_cast<const void*>(m) == static_cast<const void*>(&b);
  std::uint8_t flags = 0;
  if (m != nullptr) flags |= kRegHasMask;
  if (mask_is_b) flags |= kRegMaskIsB;
  g.put_u64(structure_id);
  g.put_u64(version);
  g.put_u8(flags);
  write_csr_parts(g, b);
  if (m != nullptr && !mask_is_b) write_csr_parts(g, *m);
}

template <class IT, class VT>
WireRegister<IT, VT> decode_register(std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  WireRegister<IT, VT> reg;
  reg.structure_id = r.get_u64();
  reg.version = r.get_u64();
  const std::uint8_t flags = r.get_u8();
  if ((flags & ~(kRegHasMask | kRegMaskIsB)) != 0) {
    throw WireError("wire: unknown register flags");
  }
  reg.has_mask = (flags & kRegHasMask) != 0;
  reg.mask_is_b = (flags & kRegMaskIsB) != 0;
  if (reg.mask_is_b && !reg.has_mask) {
    throw WireError("wire: contradictory register flags");
  }
  reg.b = read_csr<IT, VT>(r);
  if (reg.has_mask && !reg.mask_is_b) reg.m_storage = read_csr<IT, VT>(r);
  if (!r.exhausted()) throw WireError("wire: trailing bytes in register");
  return reg;
}

template <class IT, class VT>
struct WireSubmit {
  std::uint64_t structure_id = 0;
  std::uint64_t version = 1;  // v3: the structure version this submit targets
  bool a_is_b = false;
  bool m_is_a = false;
  bool m_is_b = false;
  bool m_registered = false;
  // v4: run against rows [mask_r0, mask_r1) of the registered mask, rebased
  // to row 0 (panel tasks ship only their A row panel inline).
  bool mask_rows = false;
  std::uint64_t mask_r0 = 0;
  std::uint64_t mask_r1 = 0;
  // v5: request trace context (all-zero when the submit was not traced).
  bool traced = false;
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;
  std::uint64_t trace_parent = 0;
  Priority priority = Priority::kBatch;
  MaskedOptions opts;
  CSRMatrix<IT, VT> a_storage;  // valid unless a_is_b
  CSRMatrix<IT, VT> m_storage;  // valid when the mask is inline
};

// A submit carries the version its handle was issued at; the shard answers
// kStaleStructure when an update has superseded it (never a wrong result).
template <class IT, class VT>
void encode_submit_parts(GatherPayload& g, std::uint64_t structure_id,
                         std::uint64_t version, std::uint8_t flags,
                         const CSRMatrix<IT, VT>* a,
                         const CSRMatrix<IT, VT>* m,
                         const MaskedOptions& opts,
                         std::uint64_t mask_r0 = 0,
                         std::uint64_t mask_r1 = 0,
                         std::uint64_t trace_hi = 0,
                         std::uint64_t trace_lo = 0,
                         std::uint64_t trace_parent = 0) {
  g.put_u64(structure_id);
  g.put_u64(version);
  g.put_u8(flags);
  if ((flags & kSubMaskRows) != 0) {
    g.put_u64(mask_r0);
    g.put_u64(mask_r1);
  }
  if ((flags & kSubTraced) != 0) {
    g.put_u64(trace_hi);
    g.put_u64(trace_lo);
    g.put_u64(trace_parent);
  }
  write_options(g, opts);
  if ((flags & kSubAIsB) == 0) write_csr_parts(g, *a);
  if ((flags & (kSubMIsA | kSubMIsB | kSubMRegistered)) == 0) {
    write_csr_parts(g, *m);
  }
}

template <class IT, class VT>
WireSubmit<IT, VT> decode_submit(std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  WireSubmit<IT, VT> sub;
  sub.structure_id = r.get_u64();
  sub.version = r.get_u64();
  const std::uint8_t flags = r.get_u8();
  if ((flags & ~(kSubAIsB | kSubMIsA | kSubMIsB | kSubMRegistered |
                 kSubInteractive | kSubMaskRows | kSubTraced)) != 0) {
    throw WireError("wire: unknown submit flags");
  }
  sub.a_is_b = (flags & kSubAIsB) != 0;
  sub.m_is_a = (flags & kSubMIsA) != 0;
  sub.m_is_b = (flags & kSubMIsB) != 0;
  sub.m_registered = (flags & kSubMRegistered) != 0;
  sub.mask_rows = (flags & kSubMaskRows) != 0;
  sub.traced = (flags & kSubTraced) != 0;
  sub.priority = (flags & kSubInteractive) != 0 ? Priority::kInteractive
                                                : Priority::kBatch;
  if (static_cast<int>(sub.m_is_a) + static_cast<int>(sub.m_is_b) +
          static_cast<int>(sub.m_registered) > 1) {
    throw WireError("wire: contradictory submit mask flags");
  }
  if (sub.mask_rows && !sub.m_registered) {
    throw WireError("wire: mask row window requires the registered mask");
  }
  if (sub.mask_rows) {
    sub.mask_r0 = r.get_u64();
    sub.mask_r1 = r.get_u64();
    if (sub.mask_r0 > sub.mask_r1) {
      throw WireError("wire: inverted mask row window");
    }
  }
  if (sub.traced) {
    sub.trace_hi = r.get_u64();
    sub.trace_lo = r.get_u64();
    sub.trace_parent = r.get_u64();
  }
  sub.opts = read_options(r);
  if (!sub.a_is_b) sub.a_storage = read_csr<IT, VT>(r);
  if (!sub.m_is_a && !sub.m_is_b && !sub.m_registered) {
    sub.m_storage = read_csr<IT, VT>(r);
  }
  if (!r.exhausted()) throw WireError("wire: trailing bytes in submit");
  return sub;
}

inline std::vector<std::uint8_t> encode_unregister(std::uint64_t structure_id) {
  WireWriter w;
  w.put_u64(structure_id);
  return w.take();
}

inline std::uint64_t decode_unregister(std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  const std::uint64_t id = r.get_u64();
  if (!r.exhausted()) throw WireError("wire: trailing bytes in unregister");
  return id;
}

// --- structure update (wire v3) ---------------------------------------------
//
// Ships an EdgeDelta against a registered structure's B plus the version the
// update produces. The shard applies the delta server-side (the patched
// matrix never crosses the wire) and bumps the registration to new_version;
// in-flight submits carrying the superseded version get kStaleStructure.

template <class IT, class VT>
struct WireUpdate {
  std::uint64_t structure_id = 0;
  std::uint64_t new_version = 0;
  EdgeDelta<IT, VT> delta;
};

template <class IT, class VT>
void encode_update_parts(GatherPayload& g, std::uint64_t structure_id,
                         std::uint64_t new_version,
                         const EdgeDelta<IT, VT>& delta) {
  g.put_u64(structure_id);
  g.put_u64(new_version);
  g.put_u8(static_cast<std::uint8_t>(sizeof(IT)));
  g.put_u8(WireValueCode<VT>::value);
  g.add_array(std::span<const IT>(delta.ins_row));
  g.add_array(std::span<const IT>(delta.ins_col));
  g.add_array(std::span<const VT>(delta.ins_val));
  g.add_array(std::span<const IT>(delta.del_row));
  g.add_array(std::span<const IT>(delta.del_col));
}

template <class IT, class VT>
std::vector<std::uint8_t> encode_update(std::uint64_t structure_id,
                                        std::uint64_t new_version,
                                        const EdgeDelta<IT, VT>& delta) {
  GatherPayload g;
  encode_update_parts(g, structure_id, new_version, delta);
  return g.flatten();
}

template <class IT, class VT>
WireUpdate<IT, VT> decode_update(std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  WireUpdate<IT, VT> upd;
  upd.structure_id = r.get_u64();
  upd.new_version = r.get_u64();
  if (r.get_u8() != sizeof(IT)) throw WireError("wire: index width mismatch");
  if (r.get_u8() != WireValueCode<VT>::value) {
    throw WireError("wire: value type mismatch");
  }
  upd.delta.ins_row = r.get_array<IT>();
  upd.delta.ins_col = r.get_array<IT>();
  upd.delta.ins_val = r.get_array<VT>();
  upd.delta.del_row = r.get_array<IT>();
  upd.delta.del_col = r.get_array<IT>();
  if (!r.exhausted()) throw WireError("wire: trailing bytes in update");
  if (upd.delta.ins_row.size() != upd.delta.ins_col.size() ||
      upd.delta.ins_row.size() != upd.delta.ins_val.size() ||
      upd.delta.del_row.size() != upd.delta.del_col.size()) {
    throw WireError("wire: update delta arrays are not parallel");
  }
  return upd;
}

// --- response --------------------------------------------------------------

// Gather form: the result's arrays are referenced in place (the caller keeps
// the matrix alive until the frame is written), so a shard answering with a
// large C pays no payload-assembly copy either. v4: every response carries
// the shard's service time for the request (queue + execute, nanoseconds)
// right after the status — the cost-model feedback the client-side EWMA
// routing consumes. v5 splits that total into its components: queue_nanos
// (admission to execution start) and run_nanos (kernel execution), the
// per-hop breakdown the tracing plane stitches into the request timeline.
// exec_nanos keeps its receipt-to-result meaning so the EWMA signal is
// unchanged.
template <class IT, class VT>
void encode_response_parts(GatherPayload& g, const CSRMatrix<IT, VT>& result,
                           std::uint64_t exec_nanos = 0,
                           std::uint64_t queue_nanos = 0,
                           std::uint64_t run_nanos = 0) {
  g.put_u32(static_cast<std::uint32_t>(WireStatus::kOk));
  g.put_u64(exec_nanos);
  g.put_u64(queue_nanos);
  g.put_u64(run_nanos);
  write_csr_parts(g, result);
}

template <class IT, class VT>
std::vector<std::uint8_t> encode_response(const CSRMatrix<IT, VT>& result,
                                          std::uint64_t exec_nanos = 0,
                                          std::uint64_t queue_nanos = 0,
                                          std::uint64_t run_nanos = 0) {
  GatherPayload g;
  encode_response_parts(g, result, exec_nanos, queue_nanos, run_nanos);
  return g.flatten();
}

std::vector<std::uint8_t> encode_error_response(WireStatus status,
                                                const std::string& message,
                                                std::uint64_t exec_nanos = 0);

// Decoded response: either a result matrix or (status, message).
template <class IT, class VT>
struct WireResponse {
  WireStatus status = WireStatus::kOk;
  std::uint64_t exec_nanos = 0;   // shard service time (v4; 0 when unknown)
  std::uint64_t queue_nanos = 0;  // v5: executor admission -> run start
  std::uint64_t run_nanos = 0;    // v5: kernel execution time
  std::string message;            // empty on kOk
  CSRMatrix<IT, VT> result;       // valid on kOk
};

namespace detail {

inline WireStatus read_response_status(WireReader& r) {
  const std::uint32_t status = r.get_u32();
  if (status > static_cast<std::uint32_t>(WireStatus::kStaleStructure)) {
    throw WireError("wire: unknown response status");
  }
  return static_cast<WireStatus>(status);
}

}  // namespace detail

template <class IT, class VT>
WireResponse<IT, VT> decode_response(std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  WireResponse<IT, VT> resp;
  resp.status = detail::read_response_status(r);
  resp.exec_nanos = r.get_u64();
  resp.queue_nanos = r.get_u64();
  resp.run_nanos = r.get_u64();
  if (resp.status == WireStatus::kOk) {
    resp.result = read_csr<IT, VT>(r);
  } else {
    resp.message = r.get_string();
  }
  if (!r.exhausted()) throw WireError("wire: trailing bytes in response");
  return resp;
}

// Zero-copy decode: the result arrays are handed out as spans over the
// payload (no copy). The caller owns the payload buffer and must keep it
// alive as long as the view — the 2D gather path holds each panel's payload
// until the merged result is built directly from these spans.
template <class IT, class VT>
struct WireResponseView {
  WireStatus status = WireStatus::kOk;
  std::uint64_t exec_nanos = 0;
  std::uint64_t queue_nanos = 0;  // v5 timing split (see WireResponse)
  std::uint64_t run_nanos = 0;
  std::string message;       // empty on kOk
  CSRView<IT, VT> result;    // valid on kOk; aliases the payload
};

template <class IT, class VT>
WireResponseView<IT, VT> decode_response_view(
    std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  WireResponseView<IT, VT> resp;
  resp.status = detail::read_response_status(r);
  resp.exec_nanos = r.get_u64();
  resp.queue_nanos = r.get_u64();
  resp.run_nanos = r.get_u64();
  if (resp.status == WireStatus::kOk) {
    resp.result = read_csr_view<IT, VT>(r);
  } else {
    resp.message = r.get_string();
  }
  if (!r.exhausted()) throw WireError("wire: trailing bytes in response");
  return resp;
}

// --- metrics (wire v5) ------------------------------------------------------

// kMetricsResponse payload: the shard's metrics registry rendered as
// Prometheus text exposition, shipped as one length-prefixed string. Text
// (not binary counters) so the shape of the registry can evolve without a
// wire change and an operator can curl it straight into a scrape file.
std::vector<std::uint8_t> encode_metrics_text(const std::string& text);
std::string decode_metrics_text(std::span<const std::uint8_t> payload);

}  // namespace msx::service
