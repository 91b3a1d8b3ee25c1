#include "core/chain_summary.h"

#include "crypto/merkle.h"
#include "crypto/sha256.h"

namespace zkt::core {

namespace {

using zvm::AluOp;
using zvm::Env;

/// Child kinds in the summary guest's input stream.
constexpr u8 kEpochChildRound = 0;
constexpr u8 kEpochChildSummary = 1;

constexpr std::string_view kCommitmentsDomain = "zkt.epoch.commitments.v1";

/// Canonical bytes of one commitment-chain fold step (shared by the guest's
/// traced fold and the host mirror below).
Bytes commitments_fold_bytes(const Digest32& digest,
                             const CommitmentRef& ref) {
  Writer w;
  w.fixed(digest.bytes);
  write_commitment_ref(w, ref);
  return Bytes(w.bytes().begin(), w.bytes().end());
}

Bytes commitments_domain_bytes() {
  Writer w;
  w.str(kCommitmentsDomain);
  return Bytes(w.bytes().begin(), w.bytes().end());
}

/// Running fold state threaded through the summary guest, child by child.
struct FoldState {
  bool started = false;
  ChainSummaryJournal out;  ///< firsts/sketch head filled at the first child
  Digest32 prev_claim;      ///< claim digest of the last folded round
  Digest32 prev_root;
  u64 prev_count = 0;
  Digest32 commitments_digest;
  Digest32 sketch_digest;  ///< digest after the last folded round
};

/// Fold one ROUND child: bind it (claim digest recomputed with traced
/// hashing, receipt required via assumption, journal authenticated), check
/// the chain links in-trace, and advance the running state — including one
/// traced hash per consumed commitment for the running commitment chain.
Status fold_round_child(Env& env, FoldState& st,
                        const Digest32& claimed_first_commitments) {
  auto binding = detail::bind_aggregation(env);
  if (!binding.ok()) return binding.error();
  const AggJournal& j = binding.value().journal;

  if (!st.started) {
    st.started = true;
    st.out.genesis = !j.has_prev;
    if (st.out.genesis) {
      ZKT_TRY(env.assert_true(j.prev_entry_count == 0,
                              "genesis starts empty"));
      ZKT_TRY(env.assert_eq(j.prev_root, crypto::MerkleTree::empty_leaf(),
                            "genesis root"));
      // A genesis span's commitment chain starts at the domain init — the
      // claimed input cannot smuggle in a different anchor.
      const Digest32 init = env.sha256(commitments_domain_bytes());
      ZKT_TRY(env.assert_eq(claimed_first_commitments, init,
                            "genesis commitment-chain init"));
    }
    st.out.first_claim_digest = j.prev_claim_digest;
    st.out.first_root = j.prev_root;
    st.out.first_entry_count = j.prev_entry_count;
    st.out.first_commitments_digest = claimed_first_commitments;
    st.out.has_sketch = j.has_sketch;
    if (j.has_sketch) {
      st.out.sketch_params = j.sketch_params;
      st.out.first_sketch_digest = j.prev_sketch_digest;
    }
    st.commitments_digest = claimed_first_commitments;
  } else {
    ZKT_TRY(env.assert_true(j.has_prev, "non-genesis round must chain"));
    ZKT_TRY(env.assert_eq(j.prev_claim_digest, st.prev_claim,
                          "claim chain link"));
    ZKT_TRY(env.assert_eq(j.prev_root, st.prev_root, "root chain link"));
    const u64 eq = env.alu(AluOp::eq, j.prev_entry_count, st.prev_count);
    ZKT_TRY(env.assert_true(eq == 1, "entry count chain link"));
    ZKT_TRY(env.assert_true(j.has_sketch == st.out.has_sketch,
                            "round disagrees about sketch carriage"));
    if (st.out.has_sketch) {
      ZKT_TRY(env.assert_true(j.sketch_params == st.out.sketch_params,
                              "sketch params changed mid-span"));
      ZKT_TRY(env.assert_eq(j.prev_sketch_digest, st.sketch_digest,
                            "sketch chain link"));
    }
  }

  for (const auto& ref : j.commitments) {
    st.commitments_digest =
        env.sha256(commitments_fold_bytes(st.commitments_digest, ref));
    st.out.commitment_count =
        env.alu(AluOp::add, st.out.commitment_count, 1);
  }
  st.out.rounds = env.alu(AluOp::add, st.out.rounds, 1);
  st.prev_claim = binding.value().claim_digest;
  st.prev_root = j.new_root;
  st.prev_count = j.new_entry_count;
  if (j.has_sketch) {
    st.sketch_digest = j.sketch_digest;
    st.out.final_sketch_total = j.sketch_total;
  }
  return {};
}

/// Fold one SUMMARY child: bind it like a join child, then splice — either
/// adopt its span head (first position) or assert its firsts equal our
/// running finals (every later position), and jump the running state to its
/// finals. The commitment chain jumps with it: the child already proved the
/// fold over its own span.
Status fold_summary_child(Env& env, FoldState& st,
                          const Digest32& claimed_first_commitments) {
  auto bound = detail::bind_receipt(env, is_chain_summary_image,
                                    "summary child must be a chain summary");
  if (!bound.ok()) return bound.error();
  auto parsed = ChainSummaryJournal::parse(bound.value().journal);
  if (!parsed.ok()) return parsed.error();
  const ChainSummaryJournal& c = parsed.value();
  ZKT_TRY(env.assert_true(c.rounds >= 1, "summary child covers no rounds"));

  if (!st.started) {
    st.started = true;
    st.out.genesis = c.genesis;
    st.out.first_claim_digest = c.first_claim_digest;
    st.out.first_root = c.first_root;
    st.out.first_entry_count = c.first_entry_count;
    st.out.first_commitments_digest = c.first_commitments_digest;
    ZKT_TRY(env.assert_eq(claimed_first_commitments,
                          c.first_commitments_digest,
                          "claimed commitment-chain start vs summary child"));
    st.out.has_sketch = c.has_sketch;
    if (c.has_sketch) {
      st.out.sketch_params = c.sketch_params;
      st.out.first_sketch_digest = c.first_sketch_digest;
    }
  } else {
    // A genesis-anchored child cannot be spliced after other children —
    // that would double-count the prefix (the gap/overlap guard).
    ZKT_TRY(env.assert_true(!c.genesis,
                            "genesis summary child must be first"));
    ZKT_TRY(env.assert_eq(c.first_claim_digest, st.prev_claim,
                          "summary splice claim link"));
    ZKT_TRY(env.assert_eq(c.first_root, st.prev_root,
                          "summary splice root link"));
    const u64 eq = env.alu(AluOp::eq, c.first_entry_count, st.prev_count);
    ZKT_TRY(env.assert_true(eq == 1, "summary splice entry count link"));
    ZKT_TRY(env.assert_eq(c.first_commitments_digest, st.commitments_digest,
                          "summary splice commitment-chain link"));
    ZKT_TRY(env.assert_true(c.has_sketch == st.out.has_sketch,
                            "summary child disagrees about sketch carriage"));
    if (st.out.has_sketch) {
      ZKT_TRY(env.assert_true(c.sketch_params == st.out.sketch_params,
                              "sketch params changed across splice"));
      ZKT_TRY(env.assert_eq(c.first_sketch_digest, st.sketch_digest,
                            "summary splice sketch link"));
    }
  }

  st.out.rounds = env.alu(AluOp::add, st.out.rounds, c.rounds);
  st.out.commitment_count =
      env.alu(AluOp::add, st.out.commitment_count, c.commitment_count);
  st.commitments_digest = c.final_commitments_digest;
  st.prev_claim = c.final_claim_digest;
  st.prev_root = c.final_root;
  st.prev_count = c.final_entry_count;
  if (c.has_sketch) {
    st.sketch_digest = c.final_sketch_digest;
    st.out.final_sketch_total = c.final_sketch_total;
  }
  return {};
}

Status chain_summary_guest(Env& env) {
  auto n_children = env.read_u32();
  if (!n_children.ok()) return n_children.error();
  ZKT_TRY(env.assert_true(
      n_children.value() >= 1 && n_children.value() <= (1u << 20),
      "summary child count range"));

  auto claimed = env.read_blob();
  if (!claimed.ok()) return claimed.error();
  if (claimed.value().size() != sizeof(Digest32::bytes)) {
    return Error{Errc::guest_abort, "bad commitment-chain start digest"};
  }
  Digest32 claimed_first_commitments;
  std::copy(claimed.value().begin(), claimed.value().end(),
            claimed_first_commitments.bytes.begin());

  FoldState st;
  for (u32 i = 0; i < n_children.value(); ++i) {
    auto kind = env.read_u8();
    if (!kind.ok()) return kind.error();
    ZKT_TRY(env.assert_true(kind.value() == kEpochChildRound ||
                                kind.value() == kEpochChildSummary,
                            "summary child kind"));
    if (kind.value() == kEpochChildRound) {
      ZKT_TRY(fold_round_child(env, st, claimed_first_commitments));
    } else {
      ZKT_TRY(fold_summary_child(env, st, claimed_first_commitments));
    }
  }
  if (env.input_remaining() != 0) {
    return Error{Errc::guest_abort, "trailing bytes in summary input"};
  }
  ZKT_TRY(env.assert_true(st.out.rounds >= 1, "summary needs rounds"));

  st.out.final_claim_digest = st.prev_claim;
  st.out.final_root = st.prev_root;
  st.out.final_entry_count = st.prev_count;
  st.out.final_commitments_digest = st.commitments_digest;
  st.out.final_sketch_digest = st.sketch_digest;

  Writer jw;
  st.out.write(jw);
  env.commit_raw(jw.bytes());
  return {};
}

}  // namespace

zvm::ImageID chain_summary_image() {
  static const zvm::ImageID id = zvm::ImageRegistry::instance().add(
      "zkt.guest.chain_summary", 2, chain_summary_guest);
  return id;
}

bool is_chain_summary_image(const zvm::ImageID& image) {
  return image == chain_summary_image();
}

Digest32 epoch_commitments_init() {
  return crypto::sha256(commitments_domain_bytes());
}

Digest32 epoch_commitments_fold(const Digest32& digest,
                                const CommitmentRef& ref) {
  return crypto::sha256(commitments_fold_bytes(digest, ref));
}

Result<ChainSummaryResponse> prove_epoch_span(
    std::span<const zvm::Receipt> children, const EpochSpanOptions& options) {
  if (children.empty()) {
    return Error{Errc::invalid_argument, "cannot summarize an empty span"};
  }

  // Derive the claimed commitment-chain start: a summary first child pins
  // it; a genesis round pins it to the init; a non-genesis round start
  // needs the caller's bookkeeping.
  Digest32 first_commitments;
  const zvm::Receipt& first = children.front();
  if (is_chain_summary_image(first.claim.image_id)) {
    auto j = ChainSummaryJournal::parse(first.journal);
    if (!j.ok()) return j.error();
    first_commitments = j.value().first_commitments_digest;
  } else {
    auto j = AggJournal::parse(first.journal);
    if (!j.ok()) return j.error();
    if (!j.value().has_prev) {
      first_commitments = epoch_commitments_init();
    } else if (options.first_commitments_digest.has_value()) {
      first_commitments = *options.first_commitments_digest;
    } else {
      return Error{Errc::invalid_argument,
                   "a span starting mid-chain needs "
                   "first_commitments_digest"};
    }
  }

  Writer input;
  input.u32v(static_cast<u32>(children.size()));
  input.blob(BytesView(first_commitments.bytes.data(),
                       first_commitments.bytes.size()));
  std::vector<CommitmentRef> commitments;
  for (const auto& child : children) {
    const bool summary = is_chain_summary_image(child.claim.image_id);
    input.u8v(summary ? kEpochChildSummary : kEpochChildRound);
    child.claim.serialize(input);
    input.blob(child.journal);
    if (!summary) {
      auto j = AggJournal::parse(child.journal);
      if (!j.ok()) return j.error();
      for (const auto& ref : j.value().commitments) {
        commitments.push_back(ref);
      }
    }
  }

  zvm::ProveOptions prove_options = options.prove_options;
  for (const auto& child : children) {
    prove_options.assumptions.push_back(child);
  }

  zvm::Prover prover;
  zvm::ProveInfo info;
  auto receipt = prover.prove(chain_summary_image(), input.bytes(),
                              prove_options, &info);
  if (!receipt.ok()) return receipt.error();
  auto journal = ChainSummaryJournal::parse(receipt.value().journal);
  if (!journal.ok()) return journal.error();

  ChainSummaryResponse response;
  response.receipt = std::move(receipt.value());
  response.journal = std::move(journal.value());
  response.commitments = std::move(commitments);
  response.prove_info = info;
  return response;
}

Result<ChainSummaryJournal> verify_chain_summary(
    const zvm::Verifier& verifier, const zvm::Receipt& receipt,
    std::span<const CommitmentRef> commitments,
    const VerifyOptions& options) {
  ZKT_TRY(verifier.verify(receipt, chain_summary_image(),
                          zvm::VerifyContext{nullptr, options.stats}));
  auto journal = ChainSummaryJournal::parse(receipt.journal);
  if (!journal.ok()) return journal.error();
  const ChainSummaryJournal& j = journal.value();

  if (j.genesis && j.first_commitments_digest != epoch_commitments_init()) {
    return Error{Errc::proof_invalid,
                 "genesis summary does not anchor the commitment chain"};
  }
  if (commitments.size() != j.commitment_count) {
    return Error{Errc::proof_invalid,
                 "summary ref list has " + std::to_string(commitments.size()) +
                     " commitments, journal claims " +
                     std::to_string(j.commitment_count)};
  }
  // Replay the commitment chain host-side over the out-of-band list; only a
  // list byte-identical to what the guests folded lands on the proven final
  // digest.
  Digest32 digest = j.first_commitments_digest;
  for (const auto& ref : commitments) {
    digest = epoch_commitments_fold(digest, ref);
  }
  if (digest != j.final_commitments_digest) {
    return Error{Errc::hash_mismatch,
                 "summary ref list does not reproduce the proven "
                 "commitment chain"};
  }
  return journal;
}

}  // namespace zkt::core
