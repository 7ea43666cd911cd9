// Unit tests for src/common: rng, stats, serde, cli args, logging, the
// flat id map.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>
#include <thread>
#include <vector>

#include "common/cli.h"
#include "common/flat_id_map.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/serde.h"
#include "common/stats.h"

namespace bluedove {
namespace {

// ---------------------------------------------------------------------------
// FlatIdMap
// ---------------------------------------------------------------------------

// Seeded churn against std::map over a key pool small enough that probe
// runs collide, wrap around the bucket array and are shifted back on
// erase; the pool includes 0, all-ones and representative-style keys
// (bit 63 set), none of which may be mistaken for an empty bucket.
TEST(FlatIdMap, AgreesWithStdMapUnderChurn) {
  Rng rng(7);
  std::vector<std::uint64_t> pool{0, ~0ull, 1ull << 63, (1ull << 63) | 5};
  for (int i = 0; i < 400; ++i) pool.push_back(rng.next_u64() >> (i % 64));
  FlatIdMap map;
  std::map<std::uint64_t, std::uint32_t> ref;
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t key = pool[rng.next_below(pool.size())];
    if (rng.next_below(3) == 0) {
      EXPECT_EQ(map.erase(key), ref.erase(key) == 1);
    } else {
      const auto value = static_cast<std::uint32_t>(rng.next_below(1000));
      map.set(key, value);
      ref[key] = value;
    }
    ASSERT_EQ(map.size(), ref.size());
    if (step % 500 == 0) {
      for (const std::uint64_t k : pool) {
        const auto it = ref.find(k);
        ASSERT_EQ(map.find(k), it == ref.end() ? FlatIdMap::kNone : it->second)
            << "key " << k << " at step " << step;
      }
      std::map<std::uint64_t, std::uint32_t> seen;
      map.for_each([&](std::uint64_t k, std::uint32_t v) { seen[k] = v; });
      ASSERT_EQ(seen, ref);
    }
  }
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  for (const std::uint64_t k : pool) EXPECT_FALSE(map.contains(k));
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.uniform(-5.0, 3.0);
    EXPECT_GE(d, -5.0);
    EXPECT_LT(d, 3.0);
  }
}

TEST(Rng, NextBelowIsBoundedAndCoversRange) {
  Rng rng(11);
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.next_below(10);
    ASSERT_LT(v, 10u);
    ++seen[static_cast<std::size_t>(v)];
  }
  for (int count : seen) EXPECT_GT(count, 800);  // roughly uniform
}

TEST(Rng, NextBelowOneAlwaysZero) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, GaussianMomentsRoughlyStandard) {
  Rng rng(42);
  OnlineStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.next_gaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.03);
  EXPECT_NEAR(stats.stdev(), 1.0, 0.03);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(42);
  OnlineStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.next_exponential(4.0));
  EXPECT_NEAR(stats.mean(), 0.25, 0.01);
  EXPECT_GE(stats.min(), 0.0);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(9);
  Rng child = a.split();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

// ---------------------------------------------------------------------------
// OnlineStats
// ---------------------------------------------------------------------------

TEST(OnlineStats, KnownValues) {
  OnlineStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stdev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.normalized_stdev(), 0.4);
}

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.normalized_stdev(), 0.0);
}

TEST(OnlineStats, MergeEqualsSequential) {
  Rng rng(5);
  OnlineStats whole, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-10, 10);
    whole.add(v);
    (i % 2 == 0 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a, b;
  a.add(1.0);
  a.add(3.0);
  const double mean = a.mean();
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  b.merge(a);
  EXPECT_DOUBLE_EQ(b.mean(), mean);
}

// ---------------------------------------------------------------------------
// serde
// ---------------------------------------------------------------------------

TEST(Serde, ScalarRoundTrip) {
  serde::Writer w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.f64(3.14159);
  w.str("hello");
  serde::Reader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(Serde, VarintBoundaries) {
  for (std::uint64_t v : {0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL,
                          0xffffffffffffffffULL}) {
    serde::Writer w;
    w.varint(v);
    serde::Reader r(w.bytes());
    EXPECT_EQ(r.varint(), v);
    EXPECT_TRUE(r.ok());
  }
}

TEST(Serde, TruncatedReadSetsBad) {
  serde::Writer w;
  w.u64(42);
  std::vector<std::uint8_t> bytes = w.bytes();
  bytes.resize(4);
  serde::Reader r(bytes);
  (void)r.u64();
  EXPECT_FALSE(r.ok());
}

TEST(Serde, CorruptLengthDoesNotAllocate) {
  serde::Writer w;
  w.varint(1ULL << 40);  // absurd element count
  serde::Reader r(w.bytes());
  auto items = r.seq<int>([](serde::Reader& rr) {
    return static_cast<int>(rr.u32());
  });
  EXPECT_TRUE(items.empty());
  EXPECT_FALSE(r.ok());
}

// ---------------------------------------------------------------------------
// CliArgs
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// logging
// ---------------------------------------------------------------------------

TEST(Logger, LevelFlipIsRaceFree) {
  Logger& log = Logger::instance();
  const LogLevel before = log.level();
  std::atomic<bool> stop{false};
  // Readers hammer enabled() while the main thread flips the level, the
  // pattern tsan flagged before level_ became atomic.
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        (void)log.enabled(LogLevel::kInfo);
      }
    });
  }
  for (int i = 0; i < 1000; ++i) {
    log.set_level(i % 2 == 0 ? LogLevel::kDebug : LogLevel::kOff);
  }
  stop.store(true);
  for (auto& th : readers) th.join();
  log.set_level(before);
  EXPECT_EQ(log.level(), before);
}

TEST(Logger, EnabledRespectsThreshold) {
  Logger& log = Logger::instance();
  const LogLevel before = log.level();
  log.set_level(LogLevel::kWarn);
  EXPECT_FALSE(log.enabled(LogLevel::kDebug));
  EXPECT_FALSE(log.enabled(LogLevel::kInfo));
  EXPECT_TRUE(log.enabled(LogLevel::kWarn));
  EXPECT_TRUE(log.enabled(LogLevel::kError));
  log.set_level(before);
}

TEST(CliArgs, ParsesAllForms) {
  const char* argv[] = {"prog",     "run",          "--rate=100",
                        "--system", "p2p",          "--verbose",
                        "--last"};
  const CliArgs args = CliArgs::parse(7, argv);
  EXPECT_EQ(args.positional(), (std::vector<std::string>{"run"}));
  EXPECT_EQ(args.get_int("rate", 0), 100);
  EXPECT_EQ(args.get("system"), "p2p");
  EXPECT_TRUE(args.get_bool("verbose"));
  EXPECT_TRUE(args.get_bool("last"));  // trailing bare flag
  EXPECT_EQ(args.get("missing", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0), 100.0);
}

TEST(CliArgs, BoolFalseSpellings) {
  const char* argv[] = {"prog", "--a=false", "--b=0", "--c=no", "--d=yes"};
  const CliArgs args = CliArgs::parse(5, argv);
  EXPECT_FALSE(args.get_bool("a", true));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_FALSE(args.get_bool("c", true));
  EXPECT_TRUE(args.get_bool("d", false));
}

TEST(CliArgs, GetIntAndGetDoubleTakeOnlyWholeNumbers) {
  const char* argv[] = {"prog",         "--n=42",       "--neg=-7",
                        "--x=2.5e3",    "--text=abc",   "--tail=12x",
                        "--sci=1e6",    "--empty=",     "--wide=99999999999999999999",
                        "--dtail=1.5s", "--inf=inf",    "--bare"};
  const CliArgs args = CliArgs::parse(12, argv);
  EXPECT_EQ(args.get_int("n", 0), 42);
  EXPECT_EQ(args.get_int("neg", 0), -7);
  EXPECT_DOUBLE_EQ(args.get_double("x", 0.0), 2500.0);
  EXPECT_DOUBLE_EQ(args.get_double("n", 0.0), 42.0);
  EXPECT_EQ(args.get_int("absent", 5), 5);
  EXPECT_TRUE(args.malformed().empty());
  // Each malformed value reads as the fallback and is listed once.
  for (const char* key : {"text", "tail", "sci", "empty", "wide", "bare"}) {
    EXPECT_EQ(args.get_int(key, 3), 3) << key;
  }
  for (const char* key : {"text", "dtail", "empty", "inf", "bare"}) {
    EXPECT_DOUBLE_EQ(args.get_double(key, 0.5), 0.5) << key;
  }
  EXPECT_EQ(args.malformed(),
            (std::vector<std::string>{"bare", "dtail", "empty", "inf", "sci",
                                      "tail", "text", "wide"}));
  EXPECT_TRUE(args.unconsumed().empty());
}

TEST(CliArgs, GetUintTakesOnlyWholeInRangeDecimals) {
  const char* argv[] = {"prog", "--port=8080", "--big=65536", "--neg=-1",
                        "--plus=+1", "--tail=12x", "--text=abc",
                        "--wide=18446744073709551616", "--empty="};
  const CliArgs args = CliArgs::parse(9, argv);
  EXPECT_EQ(args.get_uint("port", 0, 1, 65535), 8080u);
  EXPECT_EQ(args.get_uint("absent", 7, 1, 65535), 7u);  // fallback unchecked
  for (const char* key : {"big", "neg", "plus", "tail", "text", "wide",
                          "empty"}) {
    EXPECT_EQ(args.get_uint(key, 1, 1, 65535), std::nullopt) << key;
  }
  EXPECT_EQ(parse_uint("0", 0, 0), 0u);
  EXPECT_EQ(parse_uint("0", 1, 5), std::nullopt);
  EXPECT_EQ(parse_uint(" 1", 0, 5), std::nullopt);
}

TEST(CliArgs, UnconsumedDetectsTypos) {
  const char* argv[] = {"prog", "--rate=1", "--typo=2"};
  const CliArgs args = CliArgs::parse(3, argv);
  (void)args.get_int("rate", 0);
  EXPECT_EQ(args.unconsumed(), (std::vector<std::string>{"typo"}));
}

}  // namespace
}  // namespace bluedove
