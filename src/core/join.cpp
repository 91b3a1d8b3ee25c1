#include "core/join.h"

#include <algorithm>

#include "core/sketch_fold.h"
#include "zvm/env.h"
#include "zvm/image.h"

namespace zkt::core {

namespace {

using zvm::AluOp;
using zvm::Env;

/// Children per join node (mirrors FoldOptions::fanout's clamp) and the
/// tallest tree a journal may claim. 64^40 leaves is beyond any real round,
/// so the bound only stops forged-journal blowups.
constexpr u32 kMaxJoinChildren = 64;
constexpr u32 kMaxJoinHeight = 40;

/// Read one child's sketch section (u8 has + blob bytes), authenticate the
/// bytes against the digest the child's journal chained (ONE traced hash),
/// and fold them into the running merged sketch with traced saturating
/// adds. `child_has`/`child_digest` come from the child's parsed journal.
Status merge_child_sketch(Env& env, bool child_has,
                          const Digest32& child_digest,
                          std::optional<netflow::RoundSketch>& merged) {
  auto has = env.read_u8();
  if (!has.ok()) return has.error();
  if (has.value() > 1) {
    return Error{Errc::guest_abort, "bad child sketch flag in join input"};
  }
  ZKT_TRY(env.assert_true((has.value() == 1) == child_has,
                          "child sketch bytes vs its journal"));
  if (!child_has) return {};

  auto bytes = env.read_blob();
  if (!bytes.ok()) return bytes.error();
  env.begin_region("sketch_merge");
  const Digest32 h = env.sha256(bytes.value());
  ZKT_TRY(env.assert_eq(h, child_digest,
                        "child sketch bytes vs chained digest"));
  Reader sr(bytes.value());
  auto sketch = netflow::RoundSketch::deserialize(sr);
  if (!sketch.ok()) return sketch.error();
  if (!sr.done()) {
    return Error{Errc::guest_abort, "trailing bytes in child sketch"};
  }
  if (!merged.has_value()) {
    merged = std::move(sketch.value());
    return {};
  }
  return sketch_merge_traced(env, *merged, sketch.value());
}

Status join_guest(Env& env) {
  auto n_children = env.read_u32();
  if (!n_children.ok()) return n_children.error();
  ZKT_TRY(env.assert_true(
      n_children.value() >= 2 && n_children.value() <= kMaxJoinChildren,
      "join child count range"));

  JoinJournal out;
  u32 max_child_height = 0;
  // Child fold values in child order: a leaf contributes its claim digest,
  // a join child its fold_digest. Hashed below into out.fold_digest, which
  // is what makes the tree's shape and child order part of the claim.
  Writer fold_input;
  fold_input.str("zkt.join.fold.v1");
  // Children must agree about sketch carriage (all or none); their round
  // sketches merge left to right so the seal binds one round sketch.
  std::optional<netflow::RoundSketch> merged_sketch;
  bool sketched = false;

  for (u32 i = 0; i < n_children.value(); ++i) {
    auto kind = env.read_u8();
    if (!kind.ok()) return kind.error();
    ZKT_TRY(env.assert_true(kind.value() == kJoinChildAggregation ||
                                kind.value() == kJoinChildJoin,
                            "join child kind"));
    bool child_has = false;
    Digest32 child_sketch_digest;
    if (kind.value() == kJoinChildAggregation) {
      // A per-shard aggregation round: verify it (claim digest recomputed
      // with traced hashing, receipt required via assumption, journal
      // authenticated) and lift its chain-link fields into a leaf link.
      auto bound = detail::bind_receipt(env, is_aggregation_image,
                                        "join leaf must be an aggregation "
                                        "receipt");
      if (!bound.ok()) return bound.error();
      auto j = AggJournal::parse(bound.value().journal);
      if (!j.ok()) return j.error();
      ShardLink link;
      link.claim_digest = bound.value().claim_digest;
      link.has_prev = j.value().has_prev;
      link.prev_claim_digest = j.value().prev_claim_digest;
      link.prev_root = j.value().prev_root;
      link.new_root = j.value().new_root;
      link.prev_entry_count = j.value().prev_entry_count;
      link.new_entry_count = j.value().new_entry_count;
      link.commitments = std::move(j.value().commitments);
      link.has_sketch = j.value().has_sketch;
      link.prev_sketch_digest = j.value().prev_sketch_digest;
      link.sketch_digest = j.value().sketch_digest;
      child_has = j.value().has_sketch;
      child_sketch_digest = j.value().sketch_digest;
      if (child_has && sketched) {
        ZKT_TRY(env.assert_true(
            j.value().sketch_params == merged_sketch->params(),
            "leaf sketch params vs siblings"));
      }
      out.leaf_count = env.alu(AluOp::add, out.leaf_count, 1);
      out.total_entries =
          env.alu(AluOp::add, out.total_entries, link.new_entry_count);
      fold_input.fixed(link.claim_digest.bytes);
      out.links.push_back(std::move(link));
    } else {
      // A lower join node: verify it the same way and splice its leaves in,
      // preserving left-to-right order.
      auto bound = detail::bind_receipt(env, is_join_image,
                                        "join child must be a join receipt");
      if (!bound.ok()) return bound.error();
      auto j = JoinJournal::parse(bound.value().journal);
      if (!j.ok()) return j.error();
      ZKT_TRY(env.assert_true(j.value().height >= 1 &&
                                  j.value().height < kMaxJoinHeight,
                              "join child height range"));
      max_child_height = std::max(max_child_height, j.value().height);
      out.leaf_count =
          env.alu(AluOp::add, out.leaf_count, j.value().leaf_count);
      out.total_entries =
          env.alu(AluOp::add, out.total_entries, j.value().total_entries);
      fold_input.fixed(j.value().fold_digest.bytes);
      child_has = j.value().has_sketch;
      child_sketch_digest = j.value().sketch_digest;
      for (auto& link : j.value().links) out.links.push_back(std::move(link));
    }

    // All-or-none: the first child decides whether this round is sketched.
    if (i == 0) {
      sketched = child_has;
    } else {
      ZKT_TRY(env.assert_true(child_has == sketched,
                              "children disagree about sketch carriage"));
    }
    ZKT_TRY(merge_child_sketch(env, child_has, child_sketch_digest,
                               merged_sketch));
  }
  if (env.input_remaining() != 0) {
    return Error{Errc::guest_abort, "trailing bytes in join input"};
  }

  out.height = max_child_height + 1;
  // Every leaf under this node contributed exactly one link, in order.
  const u64 links_match =
      env.alu(AluOp::eq, out.leaf_count, out.links.size());
  ZKT_TRY(env.assert_true(links_match == 1, "join links vs leaf count"));
  out.fold_digest = env.sha256(fold_input.bytes());
  if (sketched) {
    out.has_sketch = true;
    out.sketch_params = merged_sketch->params();
    out.sketch_digest = sketch_digest_traced(env, *merged_sketch);
    out.sketch_total = merged_sketch->total();
  }

  Writer jw;
  out.write(jw);
  env.commit_raw(jw.bytes());
  return {};
}

}  // namespace

zvm::ImageID join_image() {
  static const zvm::ImageID id = zvm::ImageRegistry::instance().add(
      "zkt.guest.join", 1, join_guest);
  return id;
}

bool is_join_image(const zvm::ImageID& image) { return image == join_image(); }

void write_join_child(Writer& input, const zvm::Receipt& child,
                      const Bytes* sketch_bytes) {
  input.u8v(is_join_image(child.claim.image_id) ? kJoinChildJoin
                                                : kJoinChildAggregation);
  child.claim.serialize(input);
  input.blob(child.journal);
  input.u8v(sketch_bytes != nullptr ? 1 : 0);
  if (sketch_bytes != nullptr) input.blob(*sketch_bytes);
}

}  // namespace zkt::core
