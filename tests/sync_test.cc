// Tests for the annotated sync layer (src/util/sync.h): the wrappers
// must behave exactly like the std primitives they wrap, and the debug
// lock-order checker must flag acquisition-order inversions — the A→B /
// B→A pattern that deadlocks under the wrong interleaving — on ANY
// schedule, while staying silent on rank-ordered acquisition.
//
// CMakeLists defines CORAL_FORCE_LOCK_ORDER_CHECKS for this binary so the
// checker is active here regardless of build type (it is compiled out of
// NDEBUG builds everywhere else).

#include "src/util/sync.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace coral {
namespace {

static_assert(CORAL_LOCK_ORDER_CHECKS,
              "sync_test must build with the lock-order checker enabled");

// The checker state is process-global; serialize every test that touches
// it through a fixture that starts from a clean slate.
class LockOrderTest : public ::testing::Test {
 protected:
  void SetUp() override { lock_order::ResetViolations(); }
  void TearDown() override { lock_order::ResetViolations(); }
};

TEST_F(LockOrderTest, RankOrderedAcquisitionIsSilent) {
  Mutex low(kRankBaseMap);
  Mutex mid(kRankTermFactory);
  Mutex high(kRankStorageMetrics);
  for (int i = 0; i < 3; ++i) {
    MutexLock a(&low);
    MutexLock b(&mid);
    MutexLock c(&high);
  }
  EXPECT_EQ(lock_order::Violations(), 0u);
  EXPECT_EQ(lock_order::HeldCountForTest(), 0u);
}

TEST_F(LockOrderTest, DetectsInjectedInversion) {
  Mutex a(kRankStatsRegistry);   // rank 20
  Mutex b(kRankTermFactory);     // rank 40
  {
    // A→B: the declared order.
    MutexLock la(&a);
    MutexLock lb(&b);
  }
  EXPECT_EQ(lock_order::Violations(), 0u);
  {
    // B→A: the inversion. No deadlock on this single thread, but the
    // checker must still report it — that is the whole point: the bad
    // ORDER is detected without needing the bad INTERLEAVING.
    MutexLock lb(&b);
    MutexLock la(&a);
  }
  EXPECT_EQ(lock_order::Violations(), 1u);
  auto [held, acquiring] = lock_order::LastViolation();
  EXPECT_EQ(held, static_cast<uint32_t>(kRankTermFactory));
  EXPECT_EQ(acquiring, static_cast<uint32_t>(kRankStatsRegistry));
}

TEST_F(LockOrderTest, EqualRanksMayNotNest) {
  Mutex a(kRankModuleProfile);
  Mutex b(kRankModuleProfile);
  MutexLock la(&a);
  MutexLock lb(&b);  // same rank while one is held: order is undefined
  EXPECT_EQ(lock_order::Violations(), 1u);
}

TEST_F(LockOrderTest, UnrankedMutexesAreExempt) {
  Mutex ranked(kRankTermFactory);
  Mutex unranked;
  {
    MutexLock lr(&ranked);
    MutexLock lu(&unranked);  // unranked acquisition never checked
  }
  {
    MutexLock lu(&unranked);
    MutexLock lr(&ranked);  // holding unranked does not constrain either
  }
  EXPECT_EQ(lock_order::Violations(), 0u);
}

TEST_F(LockOrderTest, TryLockParticipatesInOrderChecking) {
  Mutex a(kRankTermFactory);
  Mutex b(kRankStatsRegistry);
  MutexLock la(&a);
  ASSERT_TRUE(b.TryLock());  // rank 20 after 40: inversion
  b.Unlock();
  EXPECT_EQ(lock_order::Violations(), 1u);
}

TEST_F(LockOrderTest, DisengagedMaybeLockDoesNotTrack) {
  Mutex a(kRankStorageMetrics);
  Mutex b(kRankBaseMap);
  MaybeMutexLock la(&a, /*engage=*/false);  // no physical acquisition
  MutexLock lb(&b);  // would be an inversion if `a` were really held
  EXPECT_EQ(lock_order::Violations(), 0u);
  EXPECT_EQ(lock_order::HeldCountForTest(), 1u);
}

TEST_F(LockOrderTest, ReleaseOutOfLifoOrderIsTracked) {
  Mutex a(kRankBaseMap);
  Mutex b(kRankTermFactory);
  a.Lock();
  b.Lock();
  a.Unlock();  // release the OLDER lock first
  EXPECT_EQ(lock_order::HeldCountForTest(), 1u);
  Mutex c(kRankStatsRegistry);
  c.Lock();  // rank 20 while only rank 40 held: still an inversion
  EXPECT_EQ(lock_order::Violations(), 1u);
  c.Unlock();
  b.Unlock();
  EXPECT_EQ(lock_order::HeldCountForTest(), 0u);
}

TEST_F(LockOrderTest, SharedMutexChecksBothModes) {
  SharedMutex rw(kRankTermFactory);
  Mutex low(kRankBaseMap);
  {
    ReaderLock r(&rw);
    MutexLock l(&low);  // rank 8 after 40, via a shared hold
  }
  EXPECT_EQ(lock_order::Violations(), 1u);
  lock_order::ResetViolations();
  {
    WriterLock w(&rw);
    Mutex high(kRankStorageMetrics);
    MutexLock l(&high);
  }
  EXPECT_EQ(lock_order::Violations(), 0u);
}

// ---- wrapper semantics -----------------------------------------------------

TEST(SyncTest, MutexProvidesMutualExclusion) {
  Mutex mu;
  int counter = 0;
  std::vector<std::thread> threads;
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        MutexLock lock(&mu);
        ++counter;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter, kThreads * kIters);
}

TEST(SyncTest, SharedMutexAllowsConcurrentReaders) {
  SharedMutex rw;
  int value = 0;
  {
    WriterLock w(&rw);
    value = 42;
  }
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        ReaderLock r(&rw);
        EXPECT_EQ(value, 42);
      }
    });
  }
  for (std::thread& t : readers) t.join();
}

TEST(SyncTest, CondVarSignalsAcrossThreads) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  int consumed = -1;
  std::thread consumer([&] {
    MutexLock lock(&mu);
    while (!ready) cv.Wait(mu);
    consumed = 7;
  });
  {
    MutexLock lock(&mu);
    ready = true;
  }
  cv.NotifyOne();
  consumer.join();
  EXPECT_EQ(consumed, 7);
}

}  // namespace
}  // namespace coral
