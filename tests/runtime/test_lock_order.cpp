// Lock-order checker regression suite (ISSUE 6).
//
// Debug builds: msx::Mutex asserts the LockRank hierarchy on every acquire —
// a deliberately inverted acquisition must be reported with both hold sites.
// Release builds: the checker is compiled away entirely; the static_assert
// below pins msx::Mutex to the exact layout of std::mutex so the wrapper is
// provably zero-cost.
//
// The suite is TSan-clean (the CI tsan job runs runtime_*): the checker's
// held-stack is thread_local and the violation handler below runs on the one
// thread that trips it.
#include "common/thread_annotations.hpp"

#include <gtest/gtest.h>

#include <mutex>

#if !MSX_LOCK_ORDER_CHECK

// Release: rank/name members and every check disappear; the wrapper is
// layout-identical to the std::mutex it forwards to.
static_assert(sizeof(msx::Mutex) == sizeof(std::mutex),
              "msx::Mutex must be zero-cost when lock-order checking is off");

TEST(LockOrder, CheckerCompiledAway) {
  msx::Mutex a(msx::LockRank::kThreadPool, "a");
  msx::Mutex b(msx::LockRank::kPlanCache, "b");
  // Inverted ranks are legal (unchecked) here; the pair must simply work.
  msx::MutexLock hold_b(&b);
  msx::MutexLock hold_a(&a);
  SUCCEED();
}

#else  // MSX_LOCK_ORDER_CHECK

namespace {

// The handler seam: capture violations instead of aborting.
struct Captured {
  bool fired = false;
  msx::LockOrderViolation v{};
};
Captured g_captured;

void capture_handler(const msx::LockOrderViolation& v) {
  g_captured.fired = true;
  g_captured.v = v;
}

class LockOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_captured = Captured{};
    prev_ = msx::set_lock_order_handler(&capture_handler);
  }
  void TearDown() override { msx::set_lock_order_handler(prev_); }

  msx::LockOrderHandler prev_ = nullptr;
};

TEST_F(LockOrderTest, InOrderAcquisitionIsClean) {
  msx::Mutex outer(msx::LockRank::kExecutor, "outer");
  msx::Mutex inner(msx::LockRank::kPlanCache, "inner");
  {
    msx::MutexLock lock_outer(&outer);
    msx::MutexLock lock_inner(&inner);
    EXPECT_FALSE(g_captured.fired);
  }
  // Re-acquirable after clean release (held-stack bookkeeping balanced).
  {
    msx::MutexLock again(&outer);
  }
  EXPECT_FALSE(g_captured.fired);
}

TEST_F(LockOrderTest, SeededInversionIsCaught) {
  msx::Mutex cache(msx::LockRank::kPlanCache, "test-cache");
  msx::Mutex pool(msx::LockRank::kThreadPool, "test-pool");
  {
    msx::MutexLock lock_cache(&cache);  // rank 70 held...
    msx::MutexLock lock_pool(&pool);    // ...acquiring rank 60: inversion
  }
  ASSERT_TRUE(g_captured.fired);
  EXPECT_EQ(g_captured.v.held_rank, msx::LockRank::kPlanCache);
  EXPECT_EQ(g_captured.v.acquiring_rank, msx::LockRank::kThreadPool);
  EXPECT_STREQ(g_captured.v.held_name, "test-cache");
  EXPECT_STREQ(g_captured.v.acquiring_name, "test-pool");
  // Both hold sites point into this file.
  EXPECT_NE(nullptr, g_captured.v.held_file);
  EXPECT_NE(nullptr, g_captured.v.acquiring_file);
  EXPECT_TRUE(std::string(g_captured.v.held_file).find("test_lock_order") !=
              std::string::npos);
  EXPECT_GT(g_captured.v.acquiring_line, g_captured.v.held_line);
}

TEST_F(LockOrderTest, EqualRankIsAnInversion) {
  // Equal ranks may never nest (no order is defined between them).
  msx::Mutex a(msx::LockRank::kShard, "shard-a");
  msx::Mutex b(msx::LockRank::kShard, "shard-b");
  {
    msx::MutexLock lock_a(&a);
    msx::MutexLock lock_b(&b);
  }
  EXPECT_TRUE(g_captured.fired);
}

TEST_F(LockOrderTest, UnrankedMutexesAreExempt) {
  msx::Mutex ranked(msx::LockRank::kTransport, "ranked");
  msx::Mutex plain;  // kUnranked
  {
    msx::MutexLock lock_ranked(&ranked);
    msx::MutexLock lock_plain(&plain);  // unranked under ranked: fine
  }
  EXPECT_FALSE(g_captured.fired);
  {
    msx::MutexLock lock_plain(&plain);
    msx::MutexLock lock_ranked(&ranked);  // ranked under unranked: also fine
  }
  EXPECT_FALSE(g_captured.fired);
}

TEST_F(LockOrderTest, ReleaseOutOfOrderStaysBalanced) {
  // Hand-over-hand style release (not LIFO) must not confuse the bookkeeping.
  msx::Mutex a(msx::LockRank::kClientBackend, "a");
  msx::Mutex b(msx::LockRank::kShard, "b");
  a.lock();
  b.lock();
  a.unlock();  // released while b is still held
  b.unlock();
  EXPECT_FALSE(g_captured.fired);
  // The held stack is empty again: a fresh in-order pair stays clean.
  {
    msx::MutexLock lock_a(&a);
    msx::MutexLock lock_b(&b);
  }
  EXPECT_FALSE(g_captured.fired);
}

TEST_F(LockOrderTest, TryLockIsExempt) {
  // try_lock cannot deadlock (it fails instead of blocking), so an inverted
  // try_lock is allowed by design.
  msx::Mutex low(msx::LockRank::kClientSession, "low");
  msx::Mutex high(msx::LockRank::kTransport, "high");
  {
    msx::MutexLock lock_high(&high);
    ASSERT_TRUE(low.try_lock());
    EXPECT_FALSE(g_captured.fired);
    low.unlock();
  }
  EXPECT_FALSE(g_captured.fired);
}

TEST_F(LockOrderTest, CondVarWaitKeepsHeldStackCorrect) {
  // A cv wait releases and reacquires the mutex internally (bypassing the
  // checker), which must leave the thread's held stack unchanged — an
  // in-order acquisition after the wait must still be clean, and a seeded
  // inversion after the wait must still fire.
  msx::Mutex mu(msx::LockRank::kExecutor, "cv-mu");
  msx::CondVar cv;
  {
    msx::MutexLock lock(&mu);
    cv.wait_for(mu, std::chrono::milliseconds(1));  // times out, reacquires
    msx::Mutex inner(msx::LockRank::kPlanCache, "cv-inner");
    msx::MutexLock lock_inner(&inner);
    EXPECT_FALSE(g_captured.fired);
  }
  {
    msx::MutexLock lock(&mu);
    cv.wait_for(mu, std::chrono::milliseconds(1));
    msx::Mutex lower(msx::LockRank::kShard, "cv-lower");
    msx::MutexLock lock_lower(&lower);  // 40 under 50: inversion
  }
  EXPECT_TRUE(g_captured.fired);
}

}  // namespace

#endif  // MSX_LOCK_ORDER_CHECK
