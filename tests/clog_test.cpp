// CLog state tests: plan/commit semantics (merge vs insert), index
// stability, root evolution, proofs, and a randomized plan-vs-reference
// sweep over power-of-two boundaries.
#include <gtest/gtest.h>

#include <map>

#include "core/clog.h"
#include "crypto/chacha20.h"

namespace zkt::core {
namespace {

using netflow::FlowKey;
using netflow::FlowRecord;
using netflow::PacketObservation;

FlowRecord rec(u32 src, u64 packets) {
  FlowRecord r;
  for (u64 i = 0; i < packets; ++i) {
    PacketObservation pkt;
    pkt.key = {src, 0x09090909, 1000, 443, 6};
    pkt.timestamp_ms = 100 + i;
    pkt.bytes = 100;
    pkt.hop_count = 3;
    r.observe(pkt);
  }
  return r;
}

FlowKey key_of(u32 src) { return rec(src, 1).key; }

/// plan + commit in one step, as a round does once its proof agrees.
void commit_round(CLogState& state, std::span<const FlowRecord> records) {
  ASSERT_TRUE(state.commit(state.plan(records)).ok());
}

TEST(CLogState, EmptyStateRoot) {
  CLogState state;
  EXPECT_EQ(state.entry_count(), 0u);
  EXPECT_EQ(state.root(), crypto::MerkleTree::empty_leaf());
  EXPECT_FALSE(state.find({1, 2, 3, 4, 5}).has_value());
}

TEST(CLogState, AppendsNewFlows) {
  CLogState state;
  const std::vector<FlowRecord> records = {rec(1, 2), rec(2, 3)};
  CLogTransition plan = state.plan(records);
  EXPECT_FALSE(plan.merge_only());
  ASSERT_EQ(plan.touched().size(), 2u);
  EXPECT_TRUE(plan.touched()[0].created);
  EXPECT_EQ(plan.touched()[0].index, 0u);
  EXPECT_TRUE(plan.touched()[1].created);
  EXPECT_EQ(plan.touched()[1].index, 1u);
  ASSERT_TRUE(state.commit(std::move(plan)).ok());
  EXPECT_EQ(state.entry_count(), 2u);
  EXPECT_EQ(state.find(records[0].key).value(), 0u);
}

TEST(CLogState, MergesExistingFlows) {
  CLogState state;
  commit_round(state, std::vector<FlowRecord>{rec(1, 2)});
  const auto root_before = state.root();
  CLogTransition plan = state.plan(std::vector<FlowRecord>{rec(1, 5)});
  EXPECT_TRUE(plan.merge_only());
  ASSERT_EQ(plan.touched().size(), 1u);
  EXPECT_FALSE(plan.touched()[0].created);
  EXPECT_EQ(plan.touched()[0].index, 0u);
  const Digest32 planned_root = plan.root();
  ASSERT_TRUE(state.commit(std::move(plan)).ok());
  EXPECT_EQ(state.entry_count(), 1u);
  EXPECT_EQ(state.entry(0).packets, 7u);
  EXPECT_NE(state.root(), root_before);
  EXPECT_EQ(state.root(), planned_root);
  EXPECT_EQ(state.root(), clog_leaf_digest(state.entry(0)));
}

TEST(CLogState, IndicesStableAcrossRounds) {
  CLogState state;
  commit_round(state, std::vector<FlowRecord>{rec(1, 1), rec(2, 1)});
  commit_round(state, std::vector<FlowRecord>{rec(3, 1), rec(1, 1)});
  EXPECT_EQ(state.find(rec(1, 1).key).value(), 0u);
  EXPECT_EQ(state.find(rec(2, 1).key).value(), 1u);
  EXPECT_EQ(state.find(rec(3, 1).key).value(), 2u);
}

TEST(CLogState, RootMatchesFreshTreeOverEntryBytes) {
  CLogState state;
  std::vector<FlowRecord> records;
  for (u32 i = 1; i <= 20; ++i) records.push_back(rec(i, i));
  commit_round(state, records);
  commit_round(state, std::vector<FlowRecord>{rec(5, 100), rec(21, 1)});

  std::vector<crypto::Digest32> leaves;
  for (const auto& entry : state.entries()) {
    leaves.push_back(crypto::MerkleTree::hash_leaf(entry.canonical_bytes()));
  }
  crypto::MerkleTree fresh(leaves);
  EXPECT_EQ(state.root(), fresh.root());
}

TEST(CLogState, ProofsVerifyAgainstRoot) {
  CLogState state;
  std::vector<FlowRecord> records;
  for (u32 i = 1; i <= 9; ++i) records.push_back(rec(i, i));
  commit_round(state, records);
  for (u64 i = 0; i < state.entry_count(); ++i) {
    const auto proof = state.prove(i);
    EXPECT_TRUE(crypto::MerkleTree::verify(
                    state.root(), clog_leaf_digest(state.entry(i)), proof)
                    .ok());
  }
}

TEST(CLogState, MiddleInsertShiftsLaterIndices) {
  // Entries live in key-sorted order: inserting a middle key lands at its
  // sorted position and shifts every larger key one slot right, with the
  // tree following along.
  CLogState state;
  commit_round(state, std::vector<FlowRecord>{rec(10, 1), rec(30, 1)});
  CLogTransition plan = state.plan(std::vector<FlowRecord>{rec(20, 1)});
  ASSERT_EQ(plan.touched().size(), 1u);
  EXPECT_TRUE(plan.touched()[0].created);
  EXPECT_EQ(plan.touched()[0].index, 1u);
  ASSERT_TRUE(state.commit(std::move(plan)).ok());
  EXPECT_EQ(state.find({10, 0x09090909, 1000, 443, 6}).value(), 0u);
  EXPECT_EQ(state.find({20, 0x09090909, 1000, 443, 6}).value(), 1u);
  EXPECT_EQ(state.find({30, 0x09090909, 1000, 443, 6}).value(), 2u);
  EXPECT_EQ(state.lower_bound({25, 0x09090909, 1000, 443, 6}), 2u);

  // Application order never matters: any insertion sequence of the same
  // records reaches the same sorted state and root.
  CLogState other;
  commit_round(other,
               std::vector<FlowRecord>{rec(20, 1), rec(30, 1), rec(10, 1)});
  EXPECT_EQ(other.root(), state.root());
  ASSERT_TRUE(state.check_consistency().ok());
}

TEST(CLogState, SerializedOrderSurvivesRoundTrip) {
  CLogState state;
  commit_round(state, std::vector<FlowRecord>{rec(7, 2), rec(3, 1), rec(5, 4)});
  auto restored = CLogState::from_entries(state.entries());
  ASSERT_TRUE(restored.ok()) << restored.error().to_string();
  EXPECT_EQ(restored.value().root(), state.root());
  EXPECT_TRUE(restored.value().check_consistency().ok());
}

TEST(CLogState, DuplicateKeysInOneBatchMergeInOrder) {
  CLogState state;
  CLogTransition plan =
      state.plan(std::vector<FlowRecord>{rec(1, 2), rec(1, 3)});
  ASSERT_EQ(plan.touched().size(), 1u);  // one key, created by the round
  EXPECT_TRUE(plan.touched()[0].created);
  ASSERT_TRUE(state.commit(std::move(plan)).ok());
  EXPECT_EQ(state.entry_count(), 1u);
  EXPECT_EQ(state.entry(0).packets, 5u);
}

TEST(CLogState, EmptyPlanIsANoOp) {
  CLogState state;
  commit_round(state, std::vector<FlowRecord>{rec(1, 1), rec(2, 1), rec(3, 1)});
  const Digest32 root = state.root();
  CLogTransition plan = state.plan(std::vector<FlowRecord>{});
  EXPECT_TRUE(plan.merge_only());
  EXPECT_TRUE(plan.touched().empty());
  EXPECT_EQ(plan.root(), root);
  EXPECT_EQ(plan.entry_count(), 3u);
  ASSERT_TRUE(state.commit(std::move(plan)).ok());
  EXPECT_EQ(state.root(), root);
}

TEST(CLogState, CommitRejectsAPlanForAnotherState) {
  CLogState state;
  commit_round(state, std::vector<FlowRecord>{rec(1, 1), rec(2, 1)});
  CLogTransition stale = state.plan(std::vector<FlowRecord>{rec(1, 4)});
  commit_round(state, std::vector<FlowRecord>{rec(2, 1)});
  const Digest32 root = state.root();
  const auto status = state.commit(std::move(stale));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, Errc::invalid_argument);
  EXPECT_EQ(state.root(), root);
  EXPECT_TRUE(state.check_consistency().ok());
}

TEST(CLogState, LeafDigestsMatchPerEntryForm) {
  // The batched helper crosses its batch and pool-chunk boundaries here.
  std::vector<CLogEntry> entries;
  for (u32 i = 0; i < 2100; ++i) entries.push_back(rec(i + 1, 1 + i % 5));
  const auto digests = clog_leaf_digests(entries);
  ASSERT_EQ(digests.size(), entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    ASSERT_EQ(digests[i], clog_leaf_digest(entries[i])) << i;
  }
  EXPECT_TRUE(clog_leaf_digests({}).empty());
}

// ---------------------------------------------------------------------------
// Randomized: plan() against a plain map reference, over states straddling
// power-of-two sizes and batches of every shape.

/// A record for key src with DRBG-drawn counters, so merges are order- and
/// value-sensitive (min/max timestamps, sums, flag ORs).
FlowRecord random_record(crypto::ChaChaDrbg& drbg, u32 src) {
  FlowRecord r;
  r.key = key_of(src);
  r.first_ms = 1000 + drbg.uniform(1000);
  r.last_ms = r.first_ms + drbg.uniform(1000);
  r.packets = 1 + drbg.uniform(50);
  r.bytes = r.packets * (40 + drbg.uniform(1400));
  r.lost_packets = drbg.uniform(3);
  r.hop_count_sum = r.packets * (1 + drbg.uniform(8));
  r.rtt_max_us = drbg.uniform(5000);
  r.tcp_flags_or = static_cast<u8>(drbg.uniform(256));
  return r;
}

enum class Shape { merge_only, front, middle, end, mixed };

/// Resident keys sit at even src values 2, 4, ..., 2n, leaving room for
/// inserts in front (src 1), between neighbours (odd) and past the end.
std::vector<std::vector<FlowRecord>> random_batches(crypto::ChaChaDrbg& drbg,
                                                    u64 n, Shape shape) {
  auto pick = [&](Shape s) -> u32 {
    switch (s) {
      case Shape::merge_only:
        return static_cast<u32>(2 * (1 + drbg.uniform(n)));
      case Shape::front:
        return 1;
      case Shape::middle:
        return static_cast<u32>(2 * (1 + drbg.uniform(std::max<u64>(n, 1))) +
                                1);
      case Shape::end:
        return static_cast<u32>(2 * n + 1 + drbg.uniform(8));
      case Shape::mixed:
        break;
    }
    return 0;
  };
  std::vector<std::vector<FlowRecord>> batches(1 + drbg.uniform(3));
  std::vector<u32> used;
  for (auto& batch : batches) {
    const u64 count = 1 + drbg.uniform(12);
    for (u64 i = 0; i < count; ++i) {
      u32 src;
      if (!used.empty() && drbg.uniform(4) == 0) {
        src = used[drbg.uniform(used.size())];  // repeat within/across
      } else if (shape == Shape::mixed) {
        const Shape any = n == 0 ? Shape::end
                                 : static_cast<Shape>(drbg.uniform(4));
        src = pick(any);
      } else {
        src = pick(shape);
      }
      used.push_back(src);
      batch.push_back(random_record(drbg, src));
    }
  }
  return batches;
}

TEST(CLogPlan, RandomizedPlansMatchAReferenceMap) {
  crypto::ChaChaDrbg drbg(std::string_view("clog-plan"));
  for (const u64 n : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 65u, 255u, 256u, 257u}) {
    for (const Shape shape : {Shape::merge_only, Shape::front, Shape::middle,
                              Shape::end, Shape::mixed}) {
      if (n == 0 && shape == Shape::merge_only) continue;
      SCOPED_TRACE("n=" + std::to_string(n) + " shape=" +
                   std::to_string(static_cast<int>(shape)));
      std::map<FlowKey, FlowRecord> reference;
      std::vector<FlowRecord> genesis;
      for (u64 i = 0; i < n; ++i) {
        genesis.push_back(random_record(drbg, static_cast<u32>(2 * (i + 1))));
      }
      CLogState state;
      commit_round(state, genesis);
      for (const auto& r : genesis) reference.emplace(r.key, r);
      ASSERT_EQ(state.entry_count(), n);

      // Three rounds in a row, each checked against the reference. Keys
      // stay on the genesis grid, so merge-only rounds stay merge-only.
      for (int round = 0; round < 3; ++round) {
        const auto batches = random_batches(drbg, n, shape);
        std::vector<std::span<const FlowRecord>> spans(batches.begin(),
                                                       batches.end());
        bool all_resident = true;
        std::map<FlowKey, bool> created;
        for (const auto& batch : batches) {
          for (const auto& r : batch) {
            auto [it, fresh] = reference.try_emplace(r.key, FlowRecord{});
            if (fresh) created[r.key] = true;
            created.try_emplace(r.key, false);
            all_resident = all_resident && !created[r.key];
            it->second.merge(r);
          }
        }
        std::vector<CLogEntry> expected_entries;
        for (const auto& [key, entry] : reference) {
          expected_entries.push_back(entry);
        }
        auto expected = CLogState::from_entries(expected_entries);
        ASSERT_TRUE(expected.ok());

        const Digest32 root_before = state.root();
        const std::vector<CLogEntry> entries_before = state.entries();
        CLogTransition plan = state.plan(spans);
        // The receiver is untouched by planning.
        EXPECT_EQ(state.root(), root_before);
        EXPECT_EQ(state.entries(), entries_before);

        EXPECT_EQ(plan.merge_only(), all_resident);
        EXPECT_EQ(plan.root(), expected.value().root());
        EXPECT_EQ(plan.entry_count(), expected.value().entry_count());
        ASSERT_EQ(plan.touched().size(), created.size());
        size_t t = 0;
        for (const auto& [key, was_created] : created) {
          const CLogTouch& touch = plan.touched()[t++];
          EXPECT_EQ(touch.key, key);
          EXPECT_EQ(touch.created, was_created);
          EXPECT_EQ(touch.index, expected.value().find(key).value());
        }

        ASSERT_TRUE(state.commit(std::move(plan)).ok());
        ASSERT_TRUE(state.check_consistency().ok());
        EXPECT_EQ(state.root(), expected.value().root());
        EXPECT_EQ(state.entries(), expected.value().entries());
      }
    }
  }
}

}  // namespace
}  // namespace zkt::core
