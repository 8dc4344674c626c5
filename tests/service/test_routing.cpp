// Routing primitives: the consistent-hash ring that places structures (and
// 2D panel replicas) on shards. End-to-end affinity, failover, overload
// spill and probing run through ShardedBackend in tests/client/.
#include <gtest/gtest.h>

#include <vector>

#include "service/routing.hpp"

using namespace msx;
using namespace msx::service;

TEST(ConsistentHashRing, DeterministicSkipWalkAndCoverage) {
  ConsistentHashRing ring(4, 64);
  const std::vector<char> none(4, 0);

  // Deterministic and total: every point maps to a shard.
  std::vector<int> counts(4, 0);
  for (std::uint64_t p = 0; p < 4096; ++p) {
    const std::uint64_t point = plan_hash_bytes(7, &p, sizeof p);
    const int s = ring.pick(point, none);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 4);
    EXPECT_EQ(s, ring.pick(point, none));
    ++counts[static_cast<std::size_t>(s)];
  }
  // 64 vnodes keep the spread sane: nobody starves, nobody dominates.
  for (int c : counts) {
    EXPECT_GT(c, 4096 / 16);
    EXPECT_LT(c, 4096 / 2);
  }

  // Skipping a shard only reroutes its keys.
  std::vector<char> skip(4, 0);
  skip[2] = 1;
  for (std::uint64_t p = 0; p < 512; ++p) {
    const std::uint64_t point = plan_hash_bytes(7, &p, sizeof p);
    const int with = ring.pick(point, none);
    const int without = ring.pick(point, skip);
    ASSERT_NE(without, 2);
    if (with != 2) EXPECT_EQ(with, without);
  }

  // All down -> -1.
  const std::vector<char> all(4, 1);
  EXPECT_EQ(ring.pick(123, all), -1);
}
