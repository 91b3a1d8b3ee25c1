// CLog state tests: apply semantics (merge vs append), index stability,
// root evolution, and proofs.
#include <gtest/gtest.h>

#include "core/clog.h"

namespace zkt::core {
namespace {

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

TEST(CLogState, EmptyStateRoot) {
  CLogState state;
  EXPECT_EQ(state.entry_count(), 0u);
  EXPECT_EQ(state.root(), crypto::MerkleTree::empty_leaf());
  EXPECT_FALSE(state.find({1, 2, 3, 4, 5}).has_value());
}

TEST(CLogState, AppendsNewFlows) {
  CLogState state;
  const std::vector<FlowRecord> records = {rec(1, 2), rec(2, 3)};
  auto updates = state.apply_records(records);
  ASSERT_EQ(updates.size(), 2u);
  EXPECT_TRUE(updates[0].created);
  EXPECT_EQ(updates[0].index, 0u);
  EXPECT_TRUE(updates[1].created);
  EXPECT_EQ(updates[1].index, 1u);
  EXPECT_EQ(state.entry_count(), 2u);
  EXPECT_EQ(state.find(records[0].key).value(), 0u);
}

TEST(CLogState, MergesExistingFlows) {
  CLogState state;
  state.apply_records(std::vector<FlowRecord>{rec(1, 2)});
  const auto root_before = state.root();
  auto updates = state.apply_records(std::vector<FlowRecord>{rec(1, 5)});
  ASSERT_EQ(updates.size(), 1u);
  EXPECT_FALSE(updates[0].created);
  EXPECT_EQ(updates[0].index, 0u);
  EXPECT_EQ(state.entry_count(), 1u);
  EXPECT_EQ(state.entry(0).packets, 7u);
  EXPECT_NE(state.root(), root_before);
  EXPECT_EQ(updates[0].new_leaf, clog_leaf_digest(state.entry(0)));
}

TEST(CLogState, IndicesStableAcrossRounds) {
  CLogState state;
  state.apply_records(std::vector<FlowRecord>{rec(1, 1), rec(2, 1)});
  state.apply_records(std::vector<FlowRecord>{rec(3, 1), rec(1, 1)});
  EXPECT_EQ(state.find(rec(1, 1).key).value(), 0u);
  EXPECT_EQ(state.find(rec(2, 1).key).value(), 1u);
  EXPECT_EQ(state.find(rec(3, 1).key).value(), 2u);
}

TEST(CLogState, RootMatchesFreshTreeOverEntryBytes) {
  CLogState state;
  std::vector<FlowRecord> records;
  for (u32 i = 1; i <= 20; ++i) records.push_back(rec(i, i));
  state.apply_records(records);
  state.apply_records(std::vector<FlowRecord>{rec(5, 100), rec(21, 1)});

  std::vector<crypto::Digest32> leaves;
  for (const auto& bytes : state.entry_bytes()) {
    leaves.push_back(crypto::MerkleTree::hash_leaf(bytes));
  }
  crypto::MerkleTree fresh(leaves);
  EXPECT_EQ(state.root(), fresh.root());
}

TEST(CLogState, ProofsVerifyAgainstRoot) {
  CLogState state;
  std::vector<FlowRecord> records;
  for (u32 i = 1; i <= 9; ++i) records.push_back(rec(i, i));
  state.apply_records(records);
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
  state.apply_records(std::vector<FlowRecord>{rec(10, 1), rec(30, 1)});
  auto updates = state.apply_records(std::vector<FlowRecord>{rec(20, 1)});
  ASSERT_EQ(updates.size(), 1u);
  EXPECT_TRUE(updates[0].created);
  EXPECT_EQ(updates[0].index, 1u);
  EXPECT_EQ(state.find({10, 0x09090909, 1000, 443, 6}).value(), 0u);
  EXPECT_EQ(state.find({20, 0x09090909, 1000, 443, 6}).value(), 1u);
  EXPECT_EQ(state.find({30, 0x09090909, 1000, 443, 6}).value(), 2u);
  EXPECT_EQ(state.lower_bound({25, 0x09090909, 1000, 443, 6}), 2u);

  // Application order never matters: any insertion sequence of the same
  // records reaches the same sorted state and root.
  CLogState other;
  other.apply_records(
      std::vector<FlowRecord>{rec(20, 1), rec(30, 1), rec(10, 1)});
  EXPECT_EQ(other.root(), state.root());
  ASSERT_TRUE(state.check_consistency().ok());
}

TEST(CLogState, SerializedOrderSurvivesRoundTrip) {
  CLogState state;
  state.apply_records(
      std::vector<FlowRecord>{rec(7, 2), rec(3, 1), rec(5, 4)});
  auto restored = CLogState::from_entries(state.entries());
  ASSERT_TRUE(restored.ok()) << restored.error().to_string();
  EXPECT_EQ(restored.value().root(), state.root());
  EXPECT_TRUE(restored.value().check_consistency().ok());
}

TEST(CLogState, DuplicateKeysInOneBatchMergeInOrder) {
  CLogState state;
  auto updates =
      state.apply_records(std::vector<FlowRecord>{rec(1, 2), rec(1, 3)});
  ASSERT_EQ(updates.size(), 2u);
  EXPECT_TRUE(updates[0].created);
  EXPECT_FALSE(updates[1].created);
  EXPECT_EQ(state.entry_count(), 1u);
  EXPECT_EQ(state.entry(0).packets, 5u);
}

}  // namespace
}  // namespace zkt::core
