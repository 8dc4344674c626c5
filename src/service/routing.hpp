// Routing primitives shared by the sharded client (client/sharded_backend.hpp)
// and the 2D replica placement (service/distributed.hpp): how a shard is
// reached, which shard owns a routing point, and the cheap health probe.
//
// The ring is classic consistent hashing: each shard owns `vnodes` points;
// a key is served by the first point clockwise from its hash. Failover is
// rehash-by-walk: a down shard's points are skipped, so its keys spill to
// the next shard on the ring (and only its keys — everyone else's affinity
// is untouched).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "runtime/plan_cache.hpp"
#include "service/transport.hpp"

namespace msx::service {

// How a client reaches one shard: a name for reporting plus a dialer
// (loopback listener connect, connect_unix, connect_tcp, ...).
struct ShardEndpoint {
  std::string name;
  std::function<std::unique_ptr<Stream>()> connect;
};

// Dials the endpoint fresh and exchanges one kMetricsRequest, returning the
// shard's Prometheus text page; nullopt when the dial, exchange or decode
// fails. Best-effort by design — metrics scrapes skip unreachable shards,
// and a page coming back is the health probe's proof that the shard's
// serving loop is alive.
std::optional<std::string> probe_metrics(const ShardEndpoint& endpoint);

// Maps a fingerprint (or any point) to a shard, skipping flagged shards.
// Deterministic across processes: the ring depends only on (nshards,
// vnodes). Immutable after construction, so concurrent picks are safe.
class ConsistentHashRing {
 public:
  ConsistentHashRing(std::size_t nshards, int vnodes);

  // First shard clockwise from `point` whose skip flag is 0; -1 when every
  // shard is skipped.
  int pick(std::uint64_t point, const std::vector<char>& skip) const;

  std::size_t nshards() const { return nshards_; }

 private:
  struct VNode {
    std::uint64_t point;
    std::uint32_t shard;
  };
  std::vector<VNode> ring_;
  std::size_t nshards_;
};

// Folds the 128-bit fingerprint into the ring's 64-bit point space.
std::uint64_t ring_point(const PlanKey& key);

// Folds one shard-reported execute time into a per-shard EWMA slot.
// alpha = 1/4: enough history to damp per-request noise, light enough to
// track a shard warming its plan cache (or losing it after a restart).
// Shards that never reported (nanos == 0, a pre-v4 peer would not get here)
// leave the slot at 0.0, which consumers read as "no estimate yet".
inline void record_ewma_locked(double& slot, std::uint64_t nanos) {
  if (nanos == 0) return;
  slot = slot == 0.0 ? static_cast<double>(nanos)
                     : 0.75 * slot + 0.25 * static_cast<double>(nanos);
}

}  // namespace msx::service
