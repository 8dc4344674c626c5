// FeedbackStore unit tests: record/remode round trips, the hysteresis
// margin, digest independence, the planner accounting hook, counts living
// in the store's own registry, and a multi-threaded hammer for the TSan job
// (the store is the one piece of adaptive state shared across concurrent
// plans).
#include "adaptive/feedback.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "adaptive/planner.hpp"
#include "core/partition.hpp"
#include "obs/metrics.hpp"

namespace msx {
namespace {

using adaptive::BlockMode;
using adaptive::FeedbackStore;
using adaptive::kBlockModeCount;

// A two-block partition with the given per-block modes and uniform
// predicted costs (1000 units for every mode of every block).
RowPartition make_partition(std::vector<std::uint8_t> modes) {
  RowPartition part;
  const auto nb = modes.size();
  for (std::size_t i = 0; i <= nb; ++i) {
    part.block_start.push_back(static_cast<std::int64_t>(i * 10));
  }
  part.block_mode = std::move(modes);
  part.block_mode_cost.assign(nb * kBlockModeCount, 1000.0);
  return part;
}

BlockTimings make_timings(const RowPartition& part,
                          std::vector<std::uint64_t> nanos) {
  BlockTimings t;
  t.nanos = std::move(nanos);
  t.mode = part.block_mode;
  return t;
}

TEST(FeedbackStore, RemodeSwitchesToObservedFasterMode) {
  obs::Registry reg;
  FeedbackStore store(reg);
  const std::uint64_t digest = 0xABCDull;
  auto part = make_partition({static_cast<std::uint8_t>(BlockMode::kSparse),
                              static_cast<std::uint8_t>(BlockMode::kSparse)});

  // Run 1: sparse mode everywhere, block 0 slow, block 1 fast.
  store.record(digest, part, make_timings(part, {4'000'000, 10'000}));
  // Run 2: dense mode everywhere, block 0 fast, block 1 slow.
  auto dense_part = part;
  dense_part.block_mode.assign(2,
                               static_cast<std::uint8_t>(BlockMode::kDense));
  store.record(digest, dense_part,
               make_timings(dense_part, {10'000, 4'000'000}));

  // Re-moding the sparse-planned partition must flip block 0 to dense
  // (observed 10k vs 4M beats any hysteresis) and keep block 1 sparse.
  int changed = store.remode(digest, part);
  EXPECT_EQ(changed, 1);
  EXPECT_EQ(part.block_mode[0], static_cast<std::uint8_t>(BlockMode::kDense));
  EXPECT_EQ(part.block_mode[1],
            static_cast<std::uint8_t>(BlockMode::kSparse));

  const auto st = store.stats();
  EXPECT_EQ(st.records, 2u);
  EXPECT_EQ(st.feedback_hits, 1u);
  EXPECT_EQ(st.remodes, 1u);
}

TEST(FeedbackStore, HysteresisBlocksMarginalSwitches) {
  obs::Registry reg;
  FeedbackStore store(reg);
  const std::uint64_t digest = 0x1234ull;
  auto part = make_partition({static_cast<std::uint8_t>(BlockMode::kSparse)});

  store.record(digest, part, make_timings(part, {100'000}));
  auto bitmap_part = part;
  bitmap_part.block_mode[0] = static_cast<std::uint8_t>(BlockMode::kBitmap);
  // 8% faster — inside the 15% hysteresis margin, must NOT switch.
  store.record(digest, bitmap_part, make_timings(bitmap_part, {92'000}));

  EXPECT_EQ(store.remode(digest, part), 0);
  EXPECT_EQ(part.block_mode[0],
            static_cast<std::uint8_t>(BlockMode::kSparse));

  // 40% faster — clears the margin, must switch.
  store.record(digest, bitmap_part, make_timings(bitmap_part, {20'000}));
  EXPECT_EQ(store.remode(digest, part), 1);
  EXPECT_EQ(part.block_mode[0],
            static_cast<std::uint8_t>(BlockMode::kBitmap));
}

TEST(FeedbackStore, DigestsAreIndependent) {
  obs::Registry reg;
  FeedbackStore store(reg);
  auto part = make_partition({static_cast<std::uint8_t>(BlockMode::kSparse)});
  store.record(0x1ull, part, make_timings(part, {500'000}));
  // Nothing recorded under 0x2: no hit, no change.
  EXPECT_EQ(store.remode(0x2ull, part), 0);
  EXPECT_EQ(store.stats().feedback_hits, 0u);
}

TEST(FeedbackStore, ReshapedPartitionIsIgnored) {
  obs::Registry reg;
  FeedbackStore store(reg);
  const std::uint64_t digest = 0x77ull;
  auto part = make_partition({static_cast<std::uint8_t>(BlockMode::kSparse),
                              static_cast<std::uint8_t>(BlockMode::kSparse)});
  store.record(digest, part, make_timings(part, {1000, 1000}));
  auto reshaped =
      make_partition({static_cast<std::uint8_t>(BlockMode::kSparse)});
  EXPECT_EQ(store.remode(digest, reshaped), 0);
}

TEST(FeedbackStore, CoefficientScalesUnobservedModes) {
  obs::Registry reg;
  FeedbackStore store(reg);
  const std::uint64_t digest = 0x99ull;
  // Block predicted: sparse 1000 units, dense 10 units (block_mode_cost set
  // by hand below). Observed: sparse ran at 1000 ns -> coeff 1.0, so dense
  // is predicted at ~10 ns and must win.
  RowPartition part;
  part.block_start = {0, 10};
  part.block_mode = {static_cast<std::uint8_t>(BlockMode::kSparse)};
  part.block_mode_cost = {1000.0, 1000.0, 10.0};
  store.record(digest, part, make_timings(part, {1000}));
  EXPECT_EQ(store.remode(digest, part), 1);
  EXPECT_EQ(part.block_mode[0], static_cast<std::uint8_t>(BlockMode::kDense));
}

TEST(FeedbackStore, NotePlannedTallies) {
  obs::Registry reg;
  FeedbackStore store(reg);
  auto part = make_partition({static_cast<std::uint8_t>(BlockMode::kSparse),
                              static_cast<std::uint8_t>(BlockMode::kDense),
                              static_cast<std::uint8_t>(BlockMode::kDense)});
  store.note_planned(part);
  const auto st = store.stats();
  EXPECT_EQ(st.plans, 1u);
  EXPECT_EQ(st.mode_blocks[static_cast<int>(BlockMode::kSparse)], 1u);
  EXPECT_EQ(st.mode_blocks[static_cast<int>(BlockMode::kBitmap)], 0u);
  EXPECT_EQ(st.mode_blocks[static_cast<int>(BlockMode::kDense)], 2u);
}

TEST(FeedbackStore, ClearDropsObservationsButKeepsCounts) {
  obs::Registry reg;
  FeedbackStore store(reg);
  auto part = make_partition({static_cast<std::uint8_t>(BlockMode::kSparse)});
  store.record(0x5ull, part, make_timings(part, {1000}));
  EXPECT_EQ(store.stats().entries, 1u);
  store.clear();
  EXPECT_EQ(store.stats().entries, 0u);
  EXPECT_EQ(store.remode(0x5ull, part), 0);
  // The view and the page read the same counters, before and after clear().
  const auto st = store.stats();
  EXPECT_EQ(st.records, 1u);
  EXPECT_EQ(st.blocks_recorded, 1u);
  const std::string page = reg.render();
  EXPECT_NE(page.find("msx_adaptive_feedback_records_total 1\n"),
            std::string::npos);
  EXPECT_NE(page.find("msx_adaptive_feedback_blocks_total 1\n"),
            std::string::npos);
}

// A store built on a private registry counts only there: tests and benches
// that construct their own store leave the process-wide series untouched.
TEST(FeedbackStore, PrivateRegistryLeavesGlobalSeriesUnchanged) {
  const obs::Counter* global_records = obs::Registry::global().counter(
      "msx_adaptive_feedback_records_total");
  const std::uint64_t before = global_records->value();
  obs::Registry reg;
  FeedbackStore store(reg);
  auto part = make_partition({static_cast<std::uint8_t>(BlockMode::kSparse)});
  store.record(0x6ull, part, make_timings(part, {1000}));
  store.record(0x6ull, part, make_timings(part, {2000}));
  EXPECT_EQ(global_records->value(), before);
  EXPECT_EQ(reg.counter("msx_adaptive_feedback_records_total")->value(), 2u);
  EXPECT_EQ(store.stats().records, 2u);
}

TEST(FeedbackStore, ConcurrentRecordRemodeIsSafe) {
  obs::Registry reg;
  FeedbackStore store(reg);
  constexpr int kThreads = 4;
  constexpr int kIters = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      auto part =
          make_partition({static_cast<std::uint8_t>(BlockMode::kSparse),
                          static_cast<std::uint8_t>(BlockMode::kBitmap)});
      for (int i = 0; i < kIters; ++i) {
        const auto digest = static_cast<std::uint64_t>(t % 2);  // contended
        store.record(digest, part,
                     make_timings(part, {1000u + static_cast<unsigned>(i),
                                         2000u}));
        store.remode(digest, part);
        store.note_planned(part);
        if (i % 64 == 63) store.stats();
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto st = store.stats();
  EXPECT_EQ(st.records, static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(st.plans, static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(FeedbackStore, StructureDigestSamplesAndChains) {
  std::vector<std::int32_t> rowptr{0, 2, 4, 6};
  std::vector<std::int32_t> colidx{0, 1, 1, 2, 0, 2};
  const auto h1 = adaptive::structure_digest<std::int32_t>(
      adaptive::kDigestSeed, 3, 3, rowptr, colidx);
  const auto h2 = adaptive::structure_digest<std::int32_t>(
      adaptive::kDigestSeed, 3, 3, rowptr, colidx);
  EXPECT_EQ(h1, h2);  // deterministic
  auto colidx2 = colidx;
  colidx2[1] = 2;
  const auto h3 = adaptive::structure_digest<std::int32_t>(
      adaptive::kDigestSeed, 3, 3, rowptr, colidx2);
  EXPECT_NE(h1, h3);  // sensitive to sampled entries
  // Chaining two operands differs from either alone.
  const auto chained = adaptive::structure_digest<std::int32_t>(
      h1, 3, 3, rowptr, colidx);
  EXPECT_NE(chained, h1);
}

}  // namespace
}  // namespace msx
