#include "core/batch_verifier.h"

namespace zkt::core {

Status verify_aggregation_receipt(zvm::Verifier& verifier,
                                  const zvm::Receipt& receipt) {
  return verify_aggregation_receipt(verifier, receipt, zvm::VerifyContext{});
}

Status verify_aggregation_receipt(zvm::Verifier& verifier,
                                  const zvm::Receipt& receipt,
                                  const zvm::VerifyContext& context) {
  if (!is_aggregation_image(receipt.claim.image_id)) {
    return Error{Errc::proof_invalid,
                 "receipt was not produced by an aggregation guest"};
  }
  return verifier.verify(receipt, receipt.claim.image_id, context);
}

std::vector<Status> BatchVerifier::verify_aggregation(
    std::span<const zvm::Receipt> receipts, zvm::VerifyStats* stats) {
  std::vector<Status> out(receipts.size());
  if (receipts.empty()) return out;

  // Per-receipt predecessor caches, one entry each: receipt i may resolve an
  // embedded assumption against receipt i-1, receipt 0 against the head of
  // the previous call. Seeding is optimistic — entries are not yet known to
  // verify — which the repair pass below makes sound.
  std::vector<zvm::VerifiedCache> caches(receipts.size());
  caches[0] = head_cache_;
  for (size_t i = 1; i < receipts.size(); ++i) {
    caches[i].add(receipts[i - 1]);
  }

  std::vector<zvm::VerifyStats> local(receipts.size());
  // zkt-lint: shared(each call writes only index i of out/caches/local; workers cover disjoint i)
  const auto verify_one = [&](size_t i) {
    out[i] = verify_aggregation_receipt(
        verifier_, receipts[i], zvm::VerifyContext{&caches[i], &local[i]});
  };

  common::ThreadPool* pool =
      options_.pool != nullptr ? options_.pool : &common::ThreadPool::shared();
  if (options_.parallel && receipts.size() > 1) {
    // Grain 1: each receipt is a full seal check, far above chunking cost.
    pool->parallel_for(receipts.size(), 1, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) verify_one(i);
    });
  } else {
    for (size_t i = 0; i < receipts.size(); ++i) verify_one(i);
  }

  // Repair pass: a skipped assumption is only as good as the predecessor it
  // resolved against. head_cache_ entries verified in an earlier call, but
  // the intra-batch seed (receipts[i-1]) may just have FAILED — in which
  // case the byte-identical embedded copy would fail too, and sequential
  // verification of receipt i would reject it. Re-verify those uncached so
  // every outcome is standalone-authoritative. Processed in input order so
  // a repair-induced failure propagates to its own successor.
  for (size_t i = 1; i < receipts.size(); ++i) {
    if (!out[i - 1].ok() && out[i].ok() && local[i].assumptions_skipped > 0) {
      zvm::VerifyStats retry;
      out[i] = verify_aggregation_receipt(
          verifier_, receipts[i], zvm::VerifyContext{nullptr, &retry});
      local[i].merge(retry);
    }
  }

  // Remember the deepest verified prefix head for the next call's receipt 0.
  size_t ok_prefix = 0;
  while (ok_prefix < receipts.size() && out[ok_prefix].ok()) ++ok_prefix;
  if (ok_prefix > 0) {
    head_cache_ = zvm::VerifiedCache{};
    head_cache_.add(receipts[ok_prefix - 1]);
  }

  zvm::VerifyStats merged;
  for (const auto& s : local) merged.merge(s);
  stats_.merge(merged);
  if (stats != nullptr) stats->merge(merged);
  return out;
}

}  // namespace zkt::core
