#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <thread>

#include "common/deadline.h"
#include "common/hash.h"
#include "common/timer.h"

namespace rdfref {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(13), 13u);
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ChanceRoughlyCalibrated) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Chance(0.25)) ++hits;
  }
  EXPECT_GT(hits, 2000);
  EXPECT_LT(hits, 3000);
}

TEST(RngTest, ZeroSeedStillWorks) {
  Rng rng(0);
  EXPECT_NE(rng.Next(), rng.Next());
}

TEST(HashTest, HashIdsOrderSensitive) {
  EXPECT_NE(HashIds({1, 2, 3}), HashIds({3, 2, 1}));
  EXPECT_EQ(HashIds({1, 2, 3}), HashIds({1, 2, 3}));
  EXPECT_NE(HashIds({}), HashIds({0}));
}

TEST(HashTest, CombineSpreadsNearbyValues) {
  std::set<size_t> hashes;
  for (uint64_t i = 0; i < 1000; ++i) {
    hashes.insert(HashCombine(0, i));
  }
  EXPECT_EQ(hashes.size(), 1000u);
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GE(timer.ElapsedMicros(), 4000);
  EXPECT_GE(timer.ElapsedMillis(), 4.0);
  timer.Reset();
  EXPECT_LT(timer.ElapsedMillis(), 5.0);
}

TEST(DeadlineTest, DefaultIsInfinite) {
  Deadline d;
  EXPECT_TRUE(d.is_infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(std::isinf(d.remaining_millis()));
}

TEST(DeadlineTest, ZeroBudgetExpiresImmediately) {
  Deadline d = Deadline::AfterMicros(0);
  EXPECT_FALSE(d.is_infinite());
  EXPECT_TRUE(d.expired());
  EXPECT_LE(d.remaining_millis(), 0.0);
}

TEST(DeadlineTest, FutureDeadlineNotYetExpired) {
  Deadline d = Deadline::AfterMillis(60000);
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_millis(), 0.0);
}

}  // namespace
}  // namespace rdfref
