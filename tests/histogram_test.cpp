// Latency-histogram tests: bucket math, merge, serialization, and the
// verifiable quantile-bound proof path.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/auditor.h"
#include "core/describe.h"
#include "core/histogram_query.h"
#include "netflow/histogram.h"

namespace zkt::netflow {
namespace {

TEST(Histogram, BucketBoundaries) {
  EXPECT_EQ(LatencyHistogram::bucket_of(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_of(1), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_of(2), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_of(3), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_of(4), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_of(1023), 9u);
  EXPECT_EQ(LatencyHistogram::bucket_of(1024), 10u);
  EXPECT_EQ(LatencyHistogram::bucket_of(~0ULL),
            LatencyHistogram::kBuckets - 1);
  EXPECT_EQ(LatencyHistogram::bucket_upper_us(0), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_upper_us(9), 1023u);
}

TEST(Histogram, EveryValueLandsWithinItsBucketBound) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 2000; ++i) {
    const u64 v = rng.uniform(1'000'000);
    const u32 b = LatencyHistogram::bucket_of(v);
    EXPECT_LE(v, LatencyHistogram::bucket_upper_us(b));
    if (b > 0) {
      EXPECT_GT(v, LatencyHistogram::bucket_upper_us(b - 1));
    }
  }
}

TEST(Histogram, CountProvablyBelowIsConservative) {
  LatencyHistogram h;
  Xoshiro256 rng(4);
  std::vector<u64> samples;
  for (int i = 0; i < 5000; ++i) {
    const u64 v = 1000 + rng.uniform(100'000);
    samples.push_back(v);
    h.add(v);
  }
  for (u64 bound : {2'000ULL, 16'383ULL, 50'000ULL, 200'000ULL}) {
    u64 truth = 0;
    for (u64 v : samples) {
      if (v <= bound) ++truth;
    }
    // Never overcounts (a provable lower bound on the true fraction).
    EXPECT_LE(h.count_provably_below(bound), truth) << bound;
    // At power-of-two-aligned bounds the answer is exact.
  }
  EXPECT_EQ(h.count_provably_below(LatencyHistogram::bucket_upper_us(39)),
            h.total());
}

TEST(Histogram, MergeEqualsCombinedStream) {
  LatencyHistogram a, b, combined;
  Xoshiro256 rng(5);
  for (int i = 0; i < 1000; ++i) {
    const u64 v = rng.uniform(1'000'000);
    (i % 2 == 0 ? a : b).add(v);
    combined.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a, combined);
  EXPECT_EQ(a.hash(), combined.hash());
}

TEST(Histogram, SerializationRoundTripAndConsistencyCheck) {
  LatencyHistogram h;
  h.add(100, 5);
  h.add(20'000, 7);
  const Bytes wire = h.canonical_bytes();
  Reader r(wire);
  auto parsed = LatencyHistogram::deserialize(r);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), h);

  // A tampered total is rejected at parse (buckets must sum to total).
  Bytes bad = wire;
  bad[10] ^= 1;  // inside the total field
  Reader r2(bad);
  EXPECT_FALSE(LatencyHistogram::deserialize(r2).ok());
}

}  // namespace
}  // namespace zkt::netflow

namespace zkt::core {
namespace {

using netflow::LatencyHistogram;

struct Fixture {
  CommitmentBoard board;
  crypto::SchnorrKeyPair key = crypto::schnorr_keygen_from_seed("hist-q");
  LatencyHistogram histogram;
  CommitmentRef ref;

  Fixture() {
    Xoshiro256 rng(9);
    for (int i = 0; i < 10'000; ++i) {
      // ~90 % fast samples, ~10 % slow.
      const u64 v = rng.uniform(10) == 0 ? 80'000 + rng.uniform(50'000)
                                         : 5'000 + rng.uniform(20'000);
      histogram.add(v);
    }
    auto commitment = make_commitment_raw(0, 1, histogram.hash(),
                                          histogram.total(), key, 5000);
    EXPECT_TRUE(commitment.ok());
    EXPECT_TRUE(board.publish(commitment.value()).ok());
    ref = CommitmentRef{0, 1, histogram.hash(), histogram.total()};
  }
};

TEST(HistogramQuery, ProveAndVerifyQuantileBound) {
  Fixture fx;
  const u64 bound = 65'535;  // power-of-two aligned: exact
  auto response = prove_histogram_query(fx.ref, fx.histogram, bound);
  ASSERT_TRUE(response.ok()) << response.error().to_string();
  EXPECT_EQ(response.value().journal.count_below,
            fx.histogram.count_provably_below(bound));
  EXPECT_EQ(response.value().journal.total, fx.histogram.total());
  EXPECT_GT(fraction_below(response.value().journal), 0.85);

  auto verified =
      Auditor(fx.board).verify_histogram(response.value().receipt, {}, bound);
  ASSERT_TRUE(verified.ok()) << verified.error().to_string();
  EXPECT_NEAR(fraction_below(verified.value()),
              fraction_below(response.value().journal), 1e-12);
}

TEST(HistogramQuery, TamperedHistogramFailsProving) {
  Fixture fx;
  LatencyHistogram doctored = fx.histogram;
  doctored.add(1, 1);  // post-commitment edit
  auto response = prove_histogram_query(fx.ref, doctored, 1000);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.error().code, Errc::guest_abort);
}

TEST(HistogramQuery, WrongBoundRejected) {
  Fixture fx;
  auto response = prove_histogram_query(fx.ref, fx.histogram, 1000);
  ASSERT_TRUE(response.ok());
  auto verified =
      Auditor(fx.board).verify_histogram(response.value().receipt, {}, 2000);
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.error().code, Errc::proof_invalid);
}

TEST(HistogramQuery, ForgedCountRejected) {
  Fixture fx;
  auto response = prove_histogram_query(fx.ref, fx.histogram, 65'535);
  ASSERT_TRUE(response.ok());
  auto forged = response.value().receipt;
  HistogramQueryJournal j = response.value().journal;
  j.count_below = j.total;  // claim 100 % compliance
  Writer w;
  j.write(w);
  forged.journal = std::move(w).take();
  EXPECT_FALSE(Auditor(fx.board).verify_histogram(forged).ok());
}

TEST(HistogramQuery, UnpublishedCommitmentRejected) {
  Fixture fx;
  auto response = prove_histogram_query(fx.ref, fx.histogram, 1000);
  ASSERT_TRUE(response.ok());
  CommitmentBoard empty;
  auto verified = Auditor(empty).verify_histogram(response.value().receipt);
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.error().code, Errc::commitment_missing);
}

}  // namespace
}  // namespace zkt::core
