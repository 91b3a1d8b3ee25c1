// zkt::obs tests: lock-free instrument correctness under contention, span
// nesting, snapshot determinism, and end-to-end pipeline instrumentation.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace zkt::obs {
namespace {

TEST(ObsCounter, ConcurrentAddsAreExact) {
  Registry reg;
  Counter& hits = reg.counter("hits");
  constexpr int kThreads = 8;
  constexpr u64 kPerThread = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hits] {
      for (u64 i = 0; i < kPerThread; ++i) hits.add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(hits.value(), kThreads * kPerThread);
  hits.reset();
  EXPECT_EQ(hits.value(), 0u);
}

TEST(ObsHistogram, ConcurrentRecordsKeepExactCountSumMinMax) {
  Registry reg;
  Histogram& h = reg.histogram("latency");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Integer-valued samples so the double sum is exact.
        h.record(static_cast<double>(t * kPerThread + i));
      }
    });
  }
  for (auto& th : threads) th.join();

  const auto snap = reg.snapshot();
  const HistogramSnapshot* hs = snap.find_histogram("latency");
  ASSERT_NE(hs, nullptr);
  constexpr u64 kTotal = u64{kThreads} * kPerThread;
  EXPECT_EQ(hs->count, kTotal);
  EXPECT_EQ(hs->min, 0.0);
  EXPECT_EQ(hs->max, static_cast<double>(kTotal - 1));
  EXPECT_EQ(hs->sum, static_cast<double>(kTotal) * (kTotal - 1) / 2.0);
  u64 bucket_total = 0;
  for (const auto& [upper, count] : hs->buckets) bucket_total += count;
  EXPECT_EQ(bucket_total, kTotal);
}

TEST(ObsHistogram, BucketBoundariesArePowersOfTwo) {
  EXPECT_EQ(Histogram::bucket_index(0.0), 0);
  EXPECT_EQ(Histogram::bucket_index(0.5), 0);
  EXPECT_EQ(Histogram::bucket_index(1.0), 1);    // [1, 2)
  EXPECT_EQ(Histogram::bucket_index(1.999), 1);
  EXPECT_EQ(Histogram::bucket_index(2.0), 2);    // [2, 4)
  EXPECT_EQ(Histogram::bucket_index(1024.0), 11);
  // Far past the last bucket: clamps instead of overflowing.
  EXPECT_EQ(Histogram::bucket_index(1e30), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::bucket_upper_bound(0), 1.0);
  EXPECT_EQ(Histogram::bucket_upper_bound(10), 1024.0);
  // Negative and NaN samples must not corrupt the distribution.
  Registry reg;
  Histogram& h = reg.histogram("edge");
  h.record(-5.0);  // clamped to 0
  h.record(std::nan(""));  // dropped
  EXPECT_EQ(h.count(), 1u);
}

TEST(ObsHistogram, QuantilesBracketTheData) {
  Registry reg;
  Histogram& h = reg.histogram("q");
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  const auto snap = reg.snapshot();
  const HistogramSnapshot* hs = snap.find_histogram("q");
  ASSERT_NE(hs, nullptr);
  EXPECT_NEAR(hs->mean(), 500.5, 1e-9);
  // Log-bucketed quantiles are estimates; they must stay within the
  // enclosing power-of-two bucket of the true quantile.
  EXPECT_GE(hs->p50(), 256.0);
  EXPECT_LE(hs->p50(), 1000.0);
  EXPECT_GE(hs->p99(), 512.0);
  EXPECT_LE(hs->p99(), 1000.0);
  EXPECT_GE(hs->quantile(0.0), hs->min);
  EXPECT_LE(hs->quantile(1.0), hs->max);
}

TEST(ObsSpan, NestingJoinsPathsAndRecordsOnClose) {
  Registry reg;
  {
    ScopedSpan outer("aggregate", reg);
    EXPECT_EQ(outer.path(), "aggregate");
    EXPECT_EQ(ScopedSpan::depth(), 1u);
    {
      ScopedSpan inner("commit", reg);
      EXPECT_EQ(inner.path(), "aggregate/commit");
      EXPECT_EQ(ScopedSpan::depth(), 2u);
    }
    EXPECT_EQ(ScopedSpan::depth(), 1u);
  }
  EXPECT_EQ(ScopedSpan::depth(), 0u);

  const auto snap = reg.snapshot();
  const u64* outer_calls = snap.find_counter("span.aggregate.calls");
  const u64* inner_calls = snap.find_counter("span.aggregate/commit.calls");
  ASSERT_NE(outer_calls, nullptr);
  ASSERT_NE(inner_calls, nullptr);
  EXPECT_EQ(*outer_calls, 1u);
  EXPECT_EQ(*inner_calls, 1u);
  ASSERT_NE(snap.find_histogram("span.aggregate.ms"), nullptr);
  EXPECT_EQ(snap.find_histogram("span.aggregate.ms")->count, 1u);
  ASSERT_NE(snap.find_histogram("span.aggregate/commit.ms"), nullptr);
}

TEST(ObsSpan, EachThreadRootsItsOwnPath) {
  Registry reg;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&reg] {
      ScopedSpan root("shard", reg);
      EXPECT_EQ(root.path(), "shard");
      ScopedSpan leaf("prove", reg);
      EXPECT_EQ(leaf.path(), "shard/prove");
    });
  }
  for (auto& th : threads) th.join();
  const auto snap = reg.snapshot();
  const u64* calls = snap.find_counter("span.shard.calls");
  ASSERT_NE(calls, nullptr);
  EXPECT_EQ(*calls, 4u);
}

TEST(ObsSnapshot, DeterministicAndSorted) {
  Registry reg;
  reg.counter("z.last").add(3);
  reg.counter("a.first").add(1);
  reg.gauge("m.middle").set(2.5);
  reg.histogram("h.series").record(7.0);

  const auto s1 = reg.snapshot();
  const auto s2 = reg.snapshot();
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1.to_json(), s2.to_json());
  ASSERT_EQ(s1.counters.size(), 2u);
  EXPECT_EQ(s1.counters[0].first, "a.first");
  EXPECT_EQ(s1.counters[1].first, "z.last");

  const std::string json = s1.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"a.first\": 1"), std::string::npos);
  // Registry mutation after the snapshot does not alter it.
  reg.counter("a.first").add(10);
  EXPECT_EQ(s1.to_json(), json);

  reg.reset();
  const auto zeroed = reg.snapshot();
  const u64* a = zeroed.find_counter("a.first");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(*a, 0u);  // registration survives reset; value does not
  EXPECT_EQ(zeroed.find_histogram("h.series")->count, 0u);
}

TEST(ObsRegistry, ReferencesAreStableAcrossLookups) {
  Registry reg;
  Counter& c1 = reg.counter("stable");
  Counter& c2 = reg.counter("stable");
  EXPECT_EQ(&c1, &c2);
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&reg, t] {
      // Concurrent create-or-lookup of overlapping names.
      for (int i = 0; i < 200; ++i) {
        reg.counter("shared." + std::to_string(i % 10)).add(1);
        reg.histogram("hist." + std::to_string(t)).record(1.0);
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto snap = reg.snapshot();
  u64 total = 0;
  for (const auto& [name, value] : snap.counters) total += value;
  EXPECT_EQ(total, 6u * 200u + 0u /* "stable" */);
}

// End-to-end: a full provider pipeline round populates the metric names the
// tools and benches export (docs/OBSERVABILITY.md catalog).
TEST(ObsIntegration, PipelineRoundPopulatesCatalogMetrics) {
  Registry::instance().reset();

  store::LogStore store;
  core::CommitmentBoard board;
  const auto key = crypto::schnorr_keygen_from_seed("obs-pipe");
  for (u64 window = 1; window <= 2; ++window) {
    for (u32 r = 0; r < 2; ++r) {
      netflow::RLogBatch batch;
      batch.router_id = r;
      batch.window_id = window;
      netflow::FlowRecord record;
      netflow::PacketObservation pkt;
      pkt.key = {r + 1, 0x09090909, 1000, 443, 6};
      pkt.timestamp_ms = window * 5000;
      pkt.bytes = 100;
      record.observe(pkt);
      batch.records.push_back(record);
      ASSERT_TRUE(
          board.publish(core::make_commitment(batch, key, window).value())
              .ok());
      ASSERT_TRUE(store
                      .append(store::kTableRlogs, window, r,
                              batch.canonical_bytes())
                      .ok());
    }
  }

  core::ProviderPipeline pipeline(store, board);
  auto rounds = pipeline.aggregate_pending();
  ASSERT_TRUE(rounds.ok()) << rounds.error().to_string();
  ASSERT_EQ(rounds.value().size(), 2u);

  const auto snap = Registry::instance().snapshot();
  for (const char* name :
       {"core.pipeline.windows_aggregated", "core.agg.rounds",
        "core.agg.batches", "zvm.prover.proofs", "zvm.prover.cycles",
        "zvm.prover.sha_rows", "span.pipeline_aggregate_pending.calls"}) {
    const u64* value = snap.find_counter(name);
    ASSERT_NE(value, nullptr) << name;
    EXPECT_GT(*value, 0u) << name;
  }
  for (const char* name :
       {"core.pipeline.round_ms", "core.pipeline.batches_per_round",
        "core.agg.round_ms", "zvm.prover.segment_commit_ms",
        "zvm.prover.execute_ms", "zvm.prover.total_ms",
        "span.pipeline_aggregate_pending.ms"}) {
    const HistogramSnapshot* h = snap.find_histogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_GT(h->count, 0u) << name;
  }
  EXPECT_EQ(*snap.find_counter("core.pipeline.windows_aggregated"), 2u);
  EXPECT_EQ(*snap.find_counter("core.agg.rounds"), 2u);
  const double* entries = snap.find_gauge("core.agg.entries");
  ASSERT_NE(entries, nullptr);
  EXPECT_GT(*entries, 0.0);
  // Nested prover spans hang off the pipeline root (every window, K = 1
  // included, proves inside the round service's sharded_prove span).
  EXPECT_NE(snap.find_counter(
                "span.pipeline_aggregate_pending/sharded_prove/agg_round.calls"),
            nullptr);
}

}  // namespace
}  // namespace zkt::obs
