// Pluggable byte transports for the service layer (ISSUE 4 tentpole).
//
// Shard and client speak frames over a Stream — a blocking, bidirectional
// byte pipe. Three implementations:
//
//   * loopback — an in-process pair of bounded byte queues. Deterministic,
//     no file descriptors, no ports: the transport the tests and the bench
//     run on, and a real deployment option for co-located shards.
//   * Unix domain sockets — same-host cross-process deployment.
//   * TCP — cross-host deployment (IPv4; host "127.0.0.1" for local use).
//
// A Listener accepts Streams; LoopbackListener doubles as its own dialer
// (connect() hands back the client end of a fresh pair). Frame send/recv on
// top of a Stream lives here too, so every transport shares one framing
// path: header, checksum verification, truncation handling.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "service/wire.hpp"

namespace msx::service {

// Connection-level failures: peer gone, listener closed, dial refused.
// Distinct from WireError (malformed bytes on an otherwise healthy pipe) so
// callers can tell a dead peer from a garbled one.
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Blocking bidirectional byte pipe. Thread-compatible: one reader plus one
// writer may use a Stream concurrently; shutdown() may be called from any
// thread and wakes both.
class Stream {
 public:
  virtual ~Stream() = default;
  // Writes the whole buffer; throws TransportError when the pipe is closed.
  virtual void write_all(const void* data, std::size_t len) = 0;
  // Writes every span in order (scatter-gather). Socket streams override
  // this with sendmsg/writev so a whole frame — header plus each operand
  // array — leaves in one syscall without being coalesced into a single
  // buffer first; the default writes part by part.
  virtual void write_parts(std::span<const std::span<const std::uint8_t>> parts) {
    for (const auto& part : parts) {
      if (!part.empty()) write_all(part.data(), part.size());
    }
  }
  // Reads 1..len bytes, blocking until data or EOF; returns 0 on EOF.
  virtual std::size_t read_some(void* data, std::size_t len) = 0;
  // Closes both directions; blocked readers see EOF, writers TransportError.
  virtual void shutdown() = 0;
};

// Fills `len` bytes; returns false on clean EOF at offset 0 and throws
// WireError on EOF mid-buffer (a truncated frame).
bool read_exact(Stream& s, void* data, std::size_t len);

class Listener {
 public:
  virtual ~Listener() = default;
  // Blocks for the next connection; nullptr once close()d.
  virtual std::unique_ptr<Stream> accept() = 0;
  virtual void close() = 0;
  virtual std::string address() const = 0;
};

// --- loopback --------------------------------------------------------------

// Two ends of an in-process pipe. Each direction is a bounded byte queue
// (capacity_bytes), so a flooded receiver back-pressures the sender exactly
// like a socket send buffer would. Dropping either end EOFs the peer.
std::pair<std::unique_ptr<Stream>, std::unique_ptr<Stream>> loopback_pair(
    std::size_t capacity_bytes = 1 << 20);

class LoopbackListener final : public Listener {
 public:
  explicit LoopbackListener(std::size_t capacity_bytes = 1 << 20);
  ~LoopbackListener() override;

  // Client side: creates a fresh pair, queues the server end for accept().
  // Throws TransportError after close().
  std::unique_ptr<Stream> connect();

  std::unique_ptr<Stream> accept() override;
  void close() override;
  std::string address() const override { return "loopback"; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// --- sockets ---------------------------------------------------------------

// Unix domain sockets (an existing socket file at `path` is replaced).
std::unique_ptr<Listener> listen_unix(const std::string& path);
std::unique_ptr<Stream> connect_unix(const std::string& path);

// TCP over IPv4. Port 0 binds an ephemeral port; the Listener's address()
// reports the bound "host:port".
std::unique_ptr<Listener> listen_tcp(const std::string& host, int port);
std::unique_ptr<Stream> connect_tcp(const std::string& host, int port);

// --- framing over a Stream -------------------------------------------------

void send_frame(Stream& s, MessageType type, std::uint64_t request_id,
                std::span<const std::uint8_t> payload);

// Scatter-gather send: checksums the parts in place (plan_hash_parts) and
// hands header + parts to Stream::write_parts as one batch. Wire-identical
// to send_frame over the flattened payload.
void send_frame_parts(Stream& s, MessageType type, std::uint64_t request_id,
                      GatherPayload& payload);

// Receives one frame. Returns false on clean EOF between frames; throws
// WireError on a malformed/truncated/corrupt frame and TransportError on
// connection failure. The payload is checksum-verified before returning.
bool recv_frame(Stream& s, FrameHeader& header,
                std::vector<std::uint8_t>& payload);

}  // namespace msx::service
