// Unit tests for the common substrate: hex/bytes utilities, Result/Status,
// binary serialization, the simulation PRNGs, and the tools' flag checks.
#include <gtest/gtest.h>

#include <map>

#include "common/bytes.h"
#include "common/flags.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/serial.h"

namespace zkt {
namespace {

// ---------------------------------------------------------------------------
// bytes / hex

TEST(Hex, EncodeDecodeRoundTrip) {
  const Bytes data = {0x00, 0x01, 0xab, 0xff, 0x7f};
  const std::string hex = to_hex(data);
  EXPECT_EQ(hex, "0001abff7f");
  Bytes back;
  ASSERT_TRUE(from_hex(hex, back));
  EXPECT_EQ(back, data);
}

TEST(Hex, AcceptsPrefixAndMixedCase) {
  Bytes out;
  ASSERT_TRUE(from_hex("0xDEadBEef", out));
  EXPECT_EQ(to_hex(out), "deadbeef");
}

TEST(Hex, RejectsOddLength) {
  Bytes out;
  EXPECT_FALSE(from_hex("abc", out));
}

TEST(Hex, RejectsNonHexCharacters) {
  Bytes out;
  EXPECT_FALSE(from_hex("zz", out));
  EXPECT_FALSE(from_hex("a-", out));
}

TEST(Hex, EmptyString) {
  Bytes out{1, 2, 3};
  ASSERT_TRUE(from_hex("", out));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(to_hex(out), "");
}

TEST(CtEqual, Basics) {
  const Bytes a = {1, 2, 3};
  const Bytes b = {1, 2, 3};
  const Bytes c = {1, 2, 4};
  const Bytes d = {1, 2};
  EXPECT_TRUE(ct_equal(a, b));
  EXPECT_FALSE(ct_equal(a, c));
  EXPECT_FALSE(ct_equal(a, d));
  EXPECT_TRUE(ct_equal({}, {}));
}

TEST(Bytes, AppendAndBytesOf) {
  Bytes buf;
  append(buf, bytes_of("ab"));
  append(buf, std::string_view("cd"));
  EXPECT_EQ(buf, bytes_of("abcd"));
}

// ---------------------------------------------------------------------------
// Result / Status

TEST(Result, ValueAndError) {
  Result<int> ok(42);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);

  Result<int> err(Errc::not_found, "gone");
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.error().code, Errc::not_found);
  EXPECT_EQ(err.error().to_string(), "not_found: gone");
  EXPECT_EQ(err.value_or(7), 7);
  EXPECT_EQ(ok.value_or(7), 42);
}

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), Errc::ok);
  EXPECT_EQ(s.to_string(), "ok");
}

TEST(Status, CarriesError) {
  Status s(Errc::hash_mismatch, "H1 != H2");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Errc::hash_mismatch);
  EXPECT_EQ(s.to_string(), "hash_mismatch: H1 != H2");
}

TEST(Status, OkCodeWithMessageIsStillOk) {
  Status s(Errc::ok, "ignored");
  EXPECT_TRUE(s.ok());
}

TEST(Errc, AllNamesDistinct) {
  std::map<std::string, Errc> seen;
  for (int i = 0; i <= static_cast<int>(Errc::unsupported); ++i) {
    const auto code = static_cast<Errc>(i);
    const std::string name = errc_name(code);
    EXPECT_NE(name, "unknown") << i;
    EXPECT_TRUE(seen.emplace(name, code).second) << name;
  }
}

// ---------------------------------------------------------------------------
// Serialization

TEST(Serial, PrimitiveRoundTrip) {
  Writer w;
  w.u8v(0xAB);
  w.u16v(0x1234);
  w.u32v(0xDEADBEEF);
  w.u64v(0x0123456789ABCDEFULL);
  w.i64v(-42);

  Reader r(w.bytes());
  EXPECT_EQ(r.u8v().value(), 0xAB);
  EXPECT_EQ(r.u16v().value(), 0x1234);
  EXPECT_EQ(r.u32v().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64v().value(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64v().value(), -42);
  EXPECT_TRUE(r.done());
}

TEST(Serial, LittleEndianLayout) {
  Writer w;
  w.u32v(0x01020304);
  EXPECT_EQ(w.bytes(), (Bytes{0x04, 0x03, 0x02, 0x01}));
}

class VarintRoundTrip : public ::testing::TestWithParam<u64> {};

TEST_P(VarintRoundTrip, Value) {
  Writer w;
  w.varint(GetParam());
  Reader r(w.bytes());
  auto v = r.varint();
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), GetParam());
  EXPECT_TRUE(r.done());
}

INSTANTIATE_TEST_SUITE_P(Boundaries, VarintRoundTrip,
                         ::testing::Values(0ULL, 1ULL, 127ULL, 128ULL,
                                           16383ULL, 16384ULL, 0xFFFFFFFFULL,
                                           0xFFFFFFFFFFFFFFFFULL));

TEST(Serial, VarintEncodingSizes) {
  auto size_of = [](u64 v) {
    Writer w;
    w.varint(v);
    return w.size();
  };
  EXPECT_EQ(size_of(0), 1u);
  EXPECT_EQ(size_of(127), 1u);
  EXPECT_EQ(size_of(128), 2u);
  EXPECT_EQ(size_of(~0ULL), 10u);
}

TEST(Serial, TruncatedVarintFails) {
  const Bytes truncated = {0x80};  // continuation bit set, nothing follows
  Reader r(truncated);
  EXPECT_FALSE(r.varint().ok());
}

TEST(Serial, BlobAndStringRoundTrip) {
  Writer w;
  w.blob(bytes_of("hello"));
  w.str("world");
  w.blob({});

  Reader r(w.bytes());
  EXPECT_EQ(r.blob().value(), bytes_of("hello"));
  EXPECT_EQ(r.str().value(), "world");
  EXPECT_TRUE(r.blob().value().empty());
  EXPECT_TRUE(r.done());
}

TEST(Serial, BlobLengthBeyondBufferFails) {
  Writer w;
  w.varint(1000);  // claims 1000 bytes
  w.raw(bytes_of("short"));
  Reader r(w.bytes());
  EXPECT_FALSE(r.blob().ok());
}

TEST(Serial, ShortReadsFail) {
  const Bytes two = {1, 2};
  Reader r(two);
  EXPECT_FALSE(r.u32v().ok());
  Reader r2(two);
  EXPECT_FALSE(r2.raw(3).ok());
  std::array<u8, 4> fixed;
  Reader r3(two);
  EXPECT_FALSE(r3.fixed(fixed).ok());
}

TEST(Serial, FixedRoundTrip) {
  std::array<u8, 4> in = {9, 8, 7, 6};
  Writer w;
  w.fixed(in);
  std::array<u8, 4> out{};
  Reader r(w.bytes());
  ASSERT_TRUE(r.fixed(out).ok());
  EXPECT_EQ(in, out);
}

TEST(Serial, PositionAndRemaining) {
  Writer w;
  w.u32v(5);
  w.u32v(6);
  Reader r(w.bytes());
  EXPECT_EQ(r.remaining(), 8u);
  (void)r.u32v();
  EXPECT_EQ(r.position(), 4u);
  EXPECT_EQ(r.remaining(), 4u);
}

// ---------------------------------------------------------------------------
// PRNGs

TEST(Rng, XoshiroDeterministic) {
  Xoshiro256 a(7), b(7), c(8);
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) {
    const u64 va = a.next();
    EXPECT_EQ(va, b.next());
    if (va != c.next()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformWithinBound) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
}

TEST(Rng, Uniform01Range) {
  Xoshiro256 rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NormalMoments) {
  Xoshiro256 rng(5);
  double sum = 0, sq = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.4);
}

TEST(Rng, ExponentialMean) {
  Xoshiro256 rng(6);
  double sum = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(0.5);
  EXPECT_NEAR(sum / n, 2.0, 0.2);
}

TEST(Zipf, RanksWithinBounds) {
  ZipfSampler zipf(100, 1.2, 9);
  for (int i = 0; i < 5000; ++i) {
    const u64 rank = zipf.sample();
    EXPECT_GE(rank, 1u);
    EXPECT_LE(rank, 100u);
  }
}

TEST(Zipf, HeavyTail) {
  // Rank 1 should receive far more than the uniform share.
  ZipfSampler zipf(1000, 1.1, 10);
  u64 rank1 = 0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) {
    if (zipf.sample() == 1) ++rank1;
  }
  EXPECT_GT(rank1, static_cast<u64>(n) / 100);  // > 10x uniform share
}

TEST(Zipf, NearUniformWhenSIsSmall) {
  ZipfSampler zipf(10, 0.01, 11);
  std::array<u64, 10> counts{};
  const int n = 50'000;
  for (int i = 0; i < n; ++i) ++counts[zipf.sample() - 1];
  for (u64 c : counts) {
    EXPECT_GT(c, static_cast<u64>(n) / 20);  // every rank gets real mass
  }
}

// ---------------------------------------------------------------------------
// Flags

TEST(Flags, UnknownNamesAreReportedNotStored) {
  const char* argv[] = {"zkt-verify", "--data-dir", "d",        "--stream",
                        "--batch",    "2",          "--shard=2", "file.bin"};
  const Flags flags(8, argv, {"data-dir", "query"});
  EXPECT_EQ(flags.unknown(),
            (std::vector<std::string>{"stream", "batch", "shard"}));
  EXPECT_EQ(flags.get("data-dir"), "d");
  EXPECT_FALSE(flags.has("stream"));
  EXPECT_FALSE(flags.has("batch"));
  // An unknown flag's value is still consumed, not taken as positional.
  EXPECT_EQ(flags.positional(), std::vector<std::string>{"file.bin"});

  testing::internal::CaptureStderr();
  EXPECT_FALSE(flags.check("usage: zkt-verify --data-dir DIR"));
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(err,
            "unknown flag --stream\nunknown flag --batch\n"
            "unknown flag --shard\nusage: zkt-verify --data-dir DIR\n");
}

TEST(Flags, AcceptedNamesPassTheCheck) {
  const char* argv[] = {"zkt-prove", "--data-dir=d", "--query", "count",
                        "--metrics"};
  const Flags flags(5, argv, {"data-dir", "query", "metrics"});
  EXPECT_TRUE(flags.unknown().empty());
  testing::internal::CaptureStderr();
  EXPECT_TRUE(flags.check("usage"));
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  EXPECT_EQ(flags.get("query"), "count");
  EXPECT_TRUE(flags.has("metrics"));
}

}  // namespace
}  // namespace zkt
