#include "service/routing.hpp"

#include <algorithm>

#include "common/platform.hpp"

namespace msx::service {

namespace {

// Seed for the ring's vnode points — any fixed constant works, it only has
// to be the same in every process that builds the ring.
constexpr std::uint64_t kRingSeed = 0x72696e672d763031ull;  // "ring-v01"

}  // namespace

std::optional<std::string> probe_metrics(const ShardEndpoint& endpoint) {
  try {
    auto stream = endpoint.connect();
    if (stream == nullptr) return std::nullopt;
    GatherPayload empty;
    send_frame_parts(*stream, MessageType::kMetricsRequest, 0, empty);
    FrameHeader header;
    std::vector<std::uint8_t> reply;
    if (!recv_frame(*stream, header, reply) ||
        header.type != MessageType::kMetricsResponse) {
      return std::nullopt;
    }
    return decode_metrics_text(reply);
  } catch (const TransportError&) {
    return std::nullopt;
  } catch (const WireError&) {
    return std::nullopt;
  }
}

ConsistentHashRing::ConsistentHashRing(std::size_t nshards, int vnodes)
    : nshards_(nshards) {
  check_arg(vnodes > 0, "ConsistentHashRing: vnodes must be positive");
  ring_.reserve(nshards * static_cast<std::size_t>(vnodes));
  for (std::size_t s = 0; s < nshards; ++s) {
    for (int v = 0; v < vnodes; ++v) {
      const std::uint64_t id[2] = {static_cast<std::uint64_t>(s),
                                   static_cast<std::uint64_t>(v)};
      ring_.push_back(VNode{plan_hash_bytes(kRingSeed, id, sizeof id),
                            static_cast<std::uint32_t>(s)});
    }
  }
  std::sort(ring_.begin(), ring_.end(),
            [](const VNode& a, const VNode& b) {
              return a.point != b.point ? a.point < b.point
                                        : a.shard < b.shard;
            });
}

int ConsistentHashRing::pick(std::uint64_t point,
                             const std::vector<char>& skip) const {
  if (ring_.empty()) return -1;
  MSX_ASSERT(skip.size() == nshards_);
  // First vnode at or clockwise of the point, wrapping at the top.
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), point,
      [](const VNode& v, std::uint64_t p) { return v.point < p; });
  const std::size_t start =
      it == ring_.end() ? 0 : static_cast<std::size_t>(it - ring_.begin());
  for (std::size_t off = 0; off < ring_.size(); ++off) {
    const VNode& v = ring_[(start + off) % ring_.size()];
    if (v.shard < skip.size() && skip[v.shard]) continue;
    return static_cast<int>(v.shard);
  }
  return -1;  // every shard skipped
}

std::uint64_t ring_point(const PlanKey& key) {
  // The halves are independently seeded streams; fold them so a collision
  // in one alone cannot collapse two keys to the same point.
  std::uint64_t h = key.h1 ^ (key.h2 * 0x9e3779b97f4a7c15ull);
  h ^= h >> 29;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 32;
  return h;
}

}  // namespace msx::service
