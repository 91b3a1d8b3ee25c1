// Sketch tests: Count-Min guarantees (no underestimation, error bounds,
// merge semantics, serialization) and Space-Saving heavy-hitter guarantees.
#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "netflow/sketch.h"
#include "sim/workload.h"

namespace zkt::netflow {
namespace {

FlowKey key_of(u64 i) { return sim::synth_flow_key(i, 77); }

TEST(CountMin, NeverUnderestimates) {
  CountMinSketch sketch(CountMinParams{.width = 128, .depth = 4, .seed = 1});
  std::map<u64, u64> truth;
  Xoshiro256 rng(5);
  for (int i = 0; i < 2000; ++i) {
    const u64 flow = rng.uniform(300);
    const u64 count = 1 + rng.uniform(5);
    sketch.update(key_of(flow), count);
    truth[flow] += count;
  }
  for (const auto& [flow, count] : truth) {
    EXPECT_GE(sketch.estimate(key_of(flow)), count) << flow;
  }
}

TEST(CountMin, ExactWhenSparse) {
  // Few flows in a wide sketch: estimates should be exact w.h.p.
  CountMinSketch sketch(CountMinParams{.width = 4096, .depth = 4, .seed = 2});
  for (u64 f = 0; f < 10; ++f) sketch.update(key_of(f), (f + 1) * 10);
  for (u64 f = 0; f < 10; ++f) {
    EXPECT_EQ(sketch.estimate(key_of(f)), (f + 1) * 10);
  }
  EXPECT_EQ(sketch.estimate(key_of(999)), 0u);
}

TEST(CountMin, ErrorBoundHolds) {
  // CM guarantee: estimate <= true + 2N/width with prob 1-(1/2)^depth; test
  // the aggregate bound loosely across many flows.
  const u32 width = 256;
  CountMinSketch sketch(CountMinParams{.width = width, .depth = 5, .seed = 3});
  std::map<u64, u64> truth;
  Xoshiro256 rng(6);
  u64 total = 0;
  for (int i = 0; i < 20'000; ++i) {
    const u64 flow = rng.uniform(2000);
    sketch.update(key_of(flow), 1);
    truth[flow] += 1;
    ++total;
  }
  const u64 bound = 4 * total / width;  // loose (2x the expected bound)
  u64 violations = 0;
  for (const auto& [flow, count] : truth) {
    if (sketch.estimate(key_of(flow)) > count + bound) ++violations;
  }
  EXPECT_LE(violations, truth.size() / 100);
}

TEST(CountMin, MergeEqualsCombinedStream) {
  const CountMinParams params{.width = 512, .depth = 4, .seed = 9};
  CountMinSketch a(params), b(params), combined(params);
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const u64 flow = rng.uniform(100);
    if (i % 2 == 0) a.update(key_of(flow), 1);
    else b.update(key_of(flow), 1);
    combined.update(key_of(flow), 1);
  }
  ASSERT_TRUE(a.merge(b).ok());
  EXPECT_EQ(a.total_updates(), combined.total_updates());
  EXPECT_EQ(a.hash(), combined.hash());
}

TEST(CountMin, MergeRejectsParamMismatch) {
  CountMinSketch a(CountMinParams{.width = 128, .depth = 4, .seed = 1});
  CountMinSketch b(CountMinParams{.width = 256, .depth = 4, .seed = 1});
  EXPECT_FALSE(a.merge(b).ok());
  CountMinSketch c(CountMinParams{.width = 128, .depth = 4, .seed = 2});
  EXPECT_FALSE(a.merge(c).ok());
}

TEST(CountMin, SerializationRoundTripAndHash) {
  CountMinSketch sketch(CountMinParams{.width = 64, .depth = 3, .seed = 4});
  for (u64 f = 0; f < 50; ++f) sketch.update(key_of(f), f);
  const Bytes wire = sketch.canonical_bytes();
  Reader r(wire);
  auto parsed = CountMinSketch::deserialize(r);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(r.done());
  EXPECT_EQ(parsed.value().hash(), sketch.hash());
  EXPECT_EQ(parsed.value().estimate(key_of(30)), sketch.estimate(key_of(30)));

  // A counter flip changes the hash.
  CountMinSketch other(CountMinParams{.width = 64, .depth = 3, .seed = 4});
  for (u64 f = 0; f < 50; ++f) other.update(key_of(f), f);
  other.update(key_of(0), 1);
  EXPECT_NE(other.hash(), sketch.hash());
}

TEST(CountMin, DeserializeRejectsHugeDimensions) {
  Writer w;
  w.str("CMS1");
  w.u32v(1 << 20);
  w.u32v(1 << 10);
  w.u64v(0);
  w.u64v(0);
  Reader r(w.bytes());
  EXPECT_FALSE(CountMinSketch::deserialize(r).ok());
}

TEST(CountMin, CounterOverflowSaturates) {
  EXPECT_EQ(sat_add(~0ULL, 1), ~0ULL);
  EXPECT_EQ(sat_add(~0ULL - 3, 10), ~0ULL);
  EXPECT_EQ(sat_add(5, 7), 12u);

  // Repeated near-max updates pin the counters (and the total) at the
  // ceiling instead of wrapping — host and guest must agree on this.
  CountMinSketch sketch(CountMinParams{.width = 32, .depth = 2, .seed = 8});
  sketch.update(key_of(1), ~0ULL - 1);
  sketch.update(key_of(1), ~0ULL - 1);
  EXPECT_EQ(sketch.estimate(key_of(1)), ~0ULL);
  EXPECT_EQ(sketch.total_updates(), ~0ULL);

  // Merging two saturated sketches stays saturated.
  CountMinSketch other(CountMinParams{.width = 32, .depth = 2, .seed = 8});
  other.update(key_of(1), ~0ULL);
  ASSERT_TRUE(sketch.merge(other).ok());
  EXPECT_EQ(sketch.estimate(key_of(1)), ~0ULL);
  EXPECT_EQ(sketch.total_updates(), ~0ULL);
}

TEST(CountMin, MergeOfEmptySketchesIsIdentity) {
  const CountMinParams params{.width = 128, .depth = 4, .seed = 12};
  CountMinSketch empty_a(params), empty_b(params);
  const auto empty_hash = empty_a.hash();
  ASSERT_TRUE(empty_a.merge(empty_b).ok());
  EXPECT_EQ(empty_a.hash(), empty_hash);
  EXPECT_EQ(empty_a.total_updates(), 0u);

  // Empty is the merge identity on a populated sketch, in either order.
  CountMinSketch populated(params);
  for (u64 f = 0; f < 20; ++f) populated.update(key_of(f), f + 1);
  const auto populated_hash = populated.hash();
  ASSERT_TRUE(populated.merge(empty_b).ok());
  EXPECT_EQ(populated.hash(), populated_hash);
  CountMinSketch from_empty(params);
  for (u64 f = 0; f < 20; ++f) from_empty.update(key_of(f), f + 1);
  CountMinSketch lhs(params);
  ASSERT_TRUE(lhs.merge(from_empty).ok());
  EXPECT_EQ(lhs.hash(), populated_hash);
}

TEST(SpaceSaving, TracksExactWhenUnderCapacity) {
  SpaceSaving tracker(16);
  for (u64 f = 0; f < 10; ++f) tracker.update(key_of(f), f + 1);
  EXPECT_EQ(tracker.size(), 10u);
  for (u64 f = 0; f < 10; ++f) {
    auto entry = tracker.find(key_of(f));
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->count, f + 1);
    EXPECT_EQ(entry->error, 0u);
  }
}

TEST(SpaceSaving, GuaranteesHeavyHitterRetention) {
  // A flow with >1/capacity of the total stream must be retained.
  SpaceSaving tracker(10);
  Xoshiro256 rng(8);
  const FlowKey elephant = key_of(9999);
  u64 elephant_count = 0;
  for (int i = 0; i < 10'000; ++i) {
    if (i % 3 == 0) {
      tracker.update(elephant, 1);
      ++elephant_count;
    } else {
      tracker.update(key_of(rng.uniform(5000)), 1);
    }
  }
  auto entry = tracker.find(elephant);
  ASSERT_TRUE(entry.has_value());
  // Space-Saving overestimates: count >= truth, count - error <= truth.
  EXPECT_GE(entry->count, elephant_count);
  EXPECT_LE(entry->count - entry->error, elephant_count);

  auto hitters = tracker.heavy_hitters(tracker.total() / 10);
  ASSERT_FALSE(hitters.empty());
  EXPECT_EQ(hitters[0].key, elephant);
}

TEST(SpaceSaving, HeavyHittersSortedDescending) {
  SpaceSaving tracker(8);
  for (u64 f = 0; f < 5; ++f) tracker.update(key_of(f), (f + 1) * 100);
  auto hitters = tracker.heavy_hitters(100);
  ASSERT_EQ(hitters.size(), 5u);
  for (size_t i = 1; i < hitters.size(); ++i) {
    EXPECT_GE(hitters[i - 1].count, hitters[i].count);
  }
}

TEST(SpaceSaving, MergeRejectsCapacityMismatch) {
  SpaceSaving a(16), b(32);
  a.update(key_of(1), 5);
  b.update(key_of(2), 7);
  EXPECT_FALSE(a.merge(b).ok());
  // And the reject left `a` untouched.
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(a.find(key_of(1))->count, 5u);
}

TEST(SpaceSaving, MergeOfEmptyTrackersAndSaturation) {
  SpaceSaving empty_a(8), empty_b(8);
  ASSERT_TRUE(empty_a.merge(empty_b).ok());
  EXPECT_EQ(empty_a.size(), 0u);
  EXPECT_EQ(empty_a.total(), 0u);

  // Empty is the merge identity on a populated tracker.
  SpaceSaving populated(8);
  populated.update(key_of(1), 10);
  populated.update(key_of(2), 3);
  ASSERT_TRUE(populated.merge(empty_b).ok());
  EXPECT_EQ(populated.size(), 2u);
  EXPECT_EQ(populated.find(key_of(1))->count, 10u);

  // Counts saturate instead of wrapping when two huge trackers combine.
  SpaceSaving big_a(8), big_b(8);
  big_a.update(key_of(1), ~0ULL - 1);
  big_b.update(key_of(1), ~0ULL - 1);
  ASSERT_TRUE(big_a.merge(big_b).ok());
  EXPECT_EQ(big_a.find(key_of(1))->count, ~0ULL);
  EXPECT_EQ(big_a.total(), ~0ULL);
}

TEST(SpaceSaving, HeavyHittersZeroThresholdReturnsAllTracked) {
  SpaceSaving tracker(16);
  tracker.update(key_of(1), 9);
  tracker.update(key_of(2), 4);
  tracker.update(key_of(3), 4);
  const auto hits = tracker.heavy_hitters(0);
  ASSERT_EQ(hits.size(), 3u);
  // Canonical order: count descending, key ascending as the tiebreak.
  EXPECT_EQ(hits[0].count, 9u);
  EXPECT_EQ(hits[1].count, 4u);
  EXPECT_EQ(hits[2].count, 4u);
  EXPECT_LT(hits[1].key, hits[2].key);
}

TEST(RoundSketch, MergeRejectsParamsSwap) {
  SketchParams base;
  base.cm = {.width = 128, .depth = 4, .seed = 1};
  base.heavy_capacity = 16;
  SketchParams wrong_cm = base;
  wrong_cm.cm.seed = 2;
  SketchParams wrong_cap = base;
  wrong_cap.heavy_capacity = 32;

  RoundSketch a(base);
  a.update(key_of(1), 3);
  EXPECT_FALSE(a.merge(RoundSketch(wrong_cm)).ok());
  EXPECT_FALSE(a.merge(RoundSketch(wrong_cap)).ok());
  ASSERT_TRUE(a.merge(RoundSketch(base)).ok());
  EXPECT_EQ(a.total(), 3u);
}

}  // namespace
}  // namespace zkt::netflow
