// Unit tests for the util substrate: Status/Result, checked arithmetic,
// rationals, hashing, the XXH64 checksum, PRNG, the thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/checked_math.h"
#include "util/checksum.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/rational.h"
#include "util/result.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace bagc {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad input");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad input");
  EXPECT_EQ(st.ToString(), "Invalid argument: bad input");
}

TEST(StatusTest, CopyAndMoveSemantics) {
  Status a = Status::NotFound("x");
  Status b = a;  // copy
  EXPECT_EQ(a, b);
  Status c = std::move(a);
  EXPECT_EQ(c.code(), StatusCode::kNotFound);
  EXPECT_TRUE(a.ok());  // moved-from is OK (empty rep)
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("").code(),   Status::OutOfRange("").code(),
      Status::NotFound("").code(),          Status::AlreadyExists("").code(),
      Status::FailedPrecondition("").code(),
      Status::ArithmeticOverflow("").code(), Status::ResourceExhausted("").code(),
      Status::Internal("").code(),          Status::NotImplemented("").code()};
  EXPECT_EQ(codes.size(), 9u);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(0), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.ValueOr(-1), -1);
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> QuarterEven(int x) {
  BAGC_ASSIGN_OR_RETURN(int half, HalveEven(x));
  return HalveEven(half);
}

TEST(ResultTest, AssignOrReturnMacroPropagates) {
  Result<int> ok = QuarterEven(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  Result<int> bad = QuarterEven(6);  // 6 -> 3 (odd) fails at second step
  EXPECT_FALSE(bad.ok());
}

TEST(CheckedMathTest, AddDetectsOverflow) {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  EXPECT_EQ(*CheckedAdd(2, 3), 5u);
  EXPECT_FALSE(CheckedAdd(kMax, 1).ok());
  EXPECT_EQ(*CheckedAdd(kMax, 0), kMax);
}

TEST(CheckedMathTest, MulDetectsOverflow) {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  EXPECT_EQ(*CheckedMul(6, 7), 42u);
  EXPECT_FALSE(CheckedMul(kMax, 2).ok());
  EXPECT_EQ(*CheckedMul(kMax, 1), kMax);
  EXPECT_EQ(*CheckedMul(kMax, 0), 0u);
}

TEST(CheckedMathTest, SubDetectsUnderflow) {
  EXPECT_EQ(*CheckedSub(5, 3), 2u);
  EXPECT_FALSE(CheckedSub(3, 5).ok());
}

TEST(CheckedMathTest, SaturatingVariantsClamp) {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  EXPECT_EQ(SaturatingAdd(kMax, 5), kMax);
  EXPECT_EQ(SaturatingMul(kMax, 3), kMax);
  EXPECT_EQ(SaturatingAdd(1, 2), 3u);
}

TEST(CheckedMathTest, BitLength) {
  EXPECT_EQ(BitLength(0), 0u);
  EXPECT_EQ(BitLength(1), 1u);
  EXPECT_EQ(BitLength(2), 2u);
  EXPECT_EQ(BitLength(255), 8u);
  EXPECT_EQ(BitLength(256), 9u);
  EXPECT_EQ(BitLength(std::numeric_limits<uint64_t>::max()), 64u);
}

TEST(RationalTest, CanonicalForm) {
  Rational r = *Rational::Make(6, -4);
  EXPECT_EQ(r.numerator(), -3);
  EXPECT_EQ(r.denominator(), 2);
  Rational zero = *Rational::Make(0, 7);
  EXPECT_EQ(zero.numerator(), 0);
  EXPECT_EQ(zero.denominator(), 1);
  EXPECT_FALSE(Rational::Make(1, 0).ok());
}

TEST(RationalTest, Arithmetic) {
  Rational half = *Rational::Make(1, 2);
  Rational third = *Rational::Make(1, 3);
  EXPECT_EQ(*Rational::Add(half, third), *Rational::Make(5, 6));
  EXPECT_EQ(*Rational::Sub(half, third), *Rational::Make(1, 6));
  EXPECT_EQ(*Rational::Mul(half, third), *Rational::Make(1, 6));
  EXPECT_EQ(*Rational::Div(half, third), *Rational::Make(3, 2));
  EXPECT_FALSE(Rational::Div(half, Rational(0)).ok());
}

TEST(RationalTest, ComparisonIsExact) {
  // 1/3 < 33333333333/100000000000 would be wrong; compare exactly.
  Rational a = *Rational::Make(1, 3);
  Rational b = *Rational::Make(33333333333LL, 100000000000LL);
  EXPECT_GT(a, b);
  EXPECT_LT(b, a);
  EXPECT_EQ(Rational::Compare(a, a), 0);
}

TEST(RationalTest, OverflowIsReported) {
  Rational big = *Rational::Make(std::numeric_limits<int64_t>::max(), 1);
  EXPECT_FALSE(Rational::Mul(big, big).ok());
  EXPECT_FALSE(Rational::Add(big, big).ok());
}

TEST(RationalTest, ToString) {
  EXPECT_EQ(Rational::Make(3, 6)->ToString(), "1/2");
  EXPECT_EQ(Rational(7).ToString(), "7");
}

TEST(HashTest, MixDecorrelates) {
  EXPECT_NE(Mix64(1), Mix64(2));
  EXPECT_NE(HashRange<int>({1, 2}), HashRange<int>({2, 1}));
  EXPECT_EQ(HashRange<int>({1, 2, 3}), HashRange<int>({1, 2, 3}));
}

// Published XXH64 (seed 0) vectors. The last two are 39 and 43 bytes, so
// the four-lane 32-byte stripe loop, the 8-byte, 4-byte and 1-byte
// tails all run.
TEST(ChecksumTest, Xxh64MatchesPublishedVectors) {
  struct Vector {
    std::string input;
    uint64_t want;
  };
  const Vector vectors[] = {
      {"", 0xef46db3751d8e999ULL},
      {"a", 0xd24ec4f1a98c6e5bULL},
      {"abc", 0x44bc2cf5ad770999ULL},
      {"Nobody inspects the spammish repetition", 0xfbcea83c8a378bf1ULL},
      {"The quick brown fox jumps over the lazy dog", 0x0b242d361fda71bcULL},
  };
  for (const Vector& v : vectors) {
    EXPECT_EQ(Xxh64(v.input.data(), v.input.size()), v.want) << '"' << v.input << '"';
  }
}

// The reader hashes bytes where they lie: the result must not depend on
// the input's alignment.
TEST(ChecksumTest, Xxh64IgnoresAlignment) {
  std::string buffer(200, '\0');
  for (size_t i = 0; i < buffer.size(); ++i) buffer[i] = static_cast<char>(i * 37 + 11);
  const uint64_t want = Xxh64(buffer.data() + 8, 150);
  for (size_t shift = 1; shift < 8; ++shift) {
    std::string moved(shift, 'x');
    moved.append(buffer, 8, 150);
    EXPECT_EQ(Xxh64(moved.data() + shift, 150), want) << shift;
  }
  EXPECT_NE(Xxh64(buffer.data() + 8, 149), want);
}

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, BelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    uint64_t v = rng.Range(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, SampleProducesDistinctIndices) {
  Rng rng(99);
  auto sample = rng.Sample(10, 4);
  EXPECT_EQ(sample.size(), 4u);
  std::set<size_t> s(sample.begin(), sample.end());
  EXPECT_EQ(s.size(), 4u);
  for (size_t idx : sample) EXPECT_LT(idx, 10u);
}

TEST(RngTest, SampleFullRangeIsPermutation) {
  Rng rng(5);
  auto sample = rng.Sample(6, 6);
  std::set<size_t> s(sample.begin(), sample.end());
  EXPECT_EQ(s.size(), 6u);
}

TEST(RngTest, ShuffleKeepsElements) {
  Rng rng(11);
  std::vector<int> v = {1, 2, 3, 4, 5};
  auto orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(ThreadPoolTest, EveryTaskFromConcurrentSubmittersRunsOnce) {
  constexpr size_t kSubmitters = 4;
  constexpr size_t kTasksEach = 500;
  std::vector<std::atomic<int>> runs(kSubmitters * kTasksEach);
  {
    ThreadPool pool(3);
    std::vector<std::thread> submitters;
    for (size_t s = 0; s < kSubmitters; ++s) {
      submitters.emplace_back([&pool, &runs, s] {
        for (size_t t = 0; t < kTasksEach; ++t) {
          pool.Submit([&runs, id = s * kTasksEach + t] { ++runs[id]; });
        }
      });
    }
    for (std::thread& s : submitters) s.join();
  }  // the destructor runs whatever is still queued
  for (size_t id = 0; id < runs.size(); ++id) EXPECT_EQ(runs[id].load(), 1) << id;
}

TEST(ThreadPoolTest, DestructorRunsEveryQueuedTaskInOrder) {
  std::promise<void> all_queued;
  std::vector<int> order;  // written by the pool's only worker
  {
    ThreadPool pool(1);
    pool.Submit([queued = all_queued.get_future().share()] { queued.wait(); });
    for (int t = 0; t < 100; ++t) pool.Submit([&order, t] { order.push_back(t); });
    all_queued.set_value();
  }
  ASSERT_EQ(order.size(), 100u);
  for (int t = 0; t < 100; ++t) EXPECT_EQ(order[t], t);
}

TEST(ThreadPoolTest, TaskSubmittedDuringDestructionRuns) {
  std::atomic<bool> ran{false};
  std::promise<void> destroying;
  auto pool = std::make_unique<ThreadPool>(2);
  ThreadPool* raw = pool.get();
  raw->Submit([raw, &ran, started = destroying.get_future().share()] {
    started.wait();
    // Give the destructor time to stop the pool and retire the idle worker.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    raw->Submit([&ran] { ran = true; });
  });
  destroying.set_value();
  pool.reset();
  EXPECT_TRUE(ran.load());
}

}  // namespace
}  // namespace bagc
