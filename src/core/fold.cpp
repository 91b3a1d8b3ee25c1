#include "core/fold.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace zkt::core {

Result<FoldResult> fold_receipts(std::span<const zvm::Receipt> leaves,
                                 const FoldOptions& options) {
  if (leaves.size() < 2) {
    return Error{Errc::invalid_argument,
                 "fold needs at least 2 leaf receipts"};
  }
  const bool sketched = !options.leaf_sketches.empty();
  if (sketched && options.leaf_sketches.size() != leaves.size()) {
    return Error{Errc::invalid_argument,
                 "fold needs one leaf sketch per leaf receipt"};
  }
  const u32 fanout = std::clamp<u32>(options.fanout, 2, 64);
  const auto start = std::chrono::steady_clock::now();
  obs::Registry& metrics = obs::Registry::instance();
  obs::ScopedSpan span("tree_fold");
  common::ThreadPool& pool =
      options.pool != nullptr ? *options.pool : common::ThreadPool::shared();

  FoldResult result;
  // zkt-lint: shared(atomic join-cycle counter; workers only fetch_add)
  std::atomic<u64> cycles{0};
  // zkt-lint: shared(read-only inside workers; rebuilt between levels, after parallel_for joins)
  std::vector<zvm::Receipt> level(leaves.begin(), leaves.end());
  // Host mirror of the guests' sketch merges, advanced level by level in the
  // same left-to-right group order the join guests use.
  std::vector<netflow::RoundSketch> level_sketches(
      options.leaf_sketches.begin(), options.leaf_sketches.end());
  u64 sketch_merges = 0;
  while (level.size() > 1) {
    const size_t groups = (level.size() + fanout - 1) / fanout;
    const bool is_root = groups == 1;
    // zkt-lint: shared(read-only inside workers; rebuilt between levels, after parallel_for joins)
    std::vector<Bytes> level_sketch_bytes;
    if (sketched) {
      level_sketch_bytes.reserve(level.size());
      for (const auto& s : level_sketches) {
        level_sketch_bytes.push_back(s.canonical_bytes());
      }
    }
    // zkt-lint: shared(one slot per join group; workers write disjoint indices, read after join)
    std::vector<Result<zvm::Receipt>> joined(
        groups, Result<zvm::Receipt>(Errc::unsupported));
    pool.parallel_for(groups, 1, [&](size_t first, size_t last) {
      for (size_t g = first; g < last; ++g) {
        const size_t begin = g * fanout;
        const size_t end = std::min(begin + fanout, level.size());
        if (end - begin == 1) {
          // Single leftover child: passes through to the next level — a
          // 1-ary "join" would prove nothing its child doesn't already.
          joined[g] = level[begin];
          continue;
        }
        Writer input;
        input.u32v(static_cast<u32>(end - begin));
        zvm::ProveOptions prove_options = options.prove_options;
        prove_options.assumptions.clear();
        if (!is_root) {
          // Interior joins must embed their children (assumption receipts),
          // which only composite receipts carry; the caller's seal kind is
          // reserved for the root.
          prove_options.seal_kind = zvm::SealKind::composite;
        }
        for (size_t i = begin; i < end; ++i) {
          write_join_child(input, level[i],
                           sketched ? &level_sketch_bytes[i] : nullptr);
          prove_options.assumptions.push_back(level[i]);
        }
        zvm::Prover prover;
        zvm::ProveInfo info;
        auto receipt =
            prover.prove(join_image(), input.bytes(), prove_options, &info);
        if (receipt.ok()) cycles.fetch_add(info.cycles);
        joined[g] = std::move(receipt);
      }
    });
    std::vector<zvm::Receipt> next;
    next.reserve(groups);
    std::vector<netflow::RoundSketch> next_sketches;
    if (sketched) next_sketches.reserve(groups);
    for (size_t g = 0; g < groups; ++g) {
      if (!joined[g].ok()) return joined[g].error();
      const size_t begin = g * fanout;
      const size_t end = std::min(begin + fanout, level.size());
      if (end - begin > 1) ++result.joins;
      next.push_back(std::move(joined[g].value()));
      if (sketched) {
        // Same grouping, same child order as the join guest above — the
        // Space-Saving merge is order-sensitive, so the mirror must replay
        // it exactly for the digests to meet.
        netflow::RoundSketch merged = std::move(level_sketches[begin]);
        for (size_t i = begin + 1; i < end; ++i) {
          ZKT_TRY(merged.merge(level_sketches[i]));
          ++sketch_merges;
        }
        next_sketches.push_back(std::move(merged));
      }
    }
    level = std::move(next);
    level_sketches = std::move(next_sketches);
  }

  result.root = std::move(level.front());
  auto journal = JoinJournal::parse(result.root.journal);
  if (!journal.ok()) return journal.error();
  result.journal = std::move(journal.value());
  if (sketched) {
    if (!result.journal.has_sketch ||
        result.journal.sketch_digest != level_sketches.front().hash()) {
      return Error{Errc::hash_mismatch,
                   "host-merged sketch diverged from the tree seal"};
    }
    result.sketch = std::move(level_sketches.front());
    metrics.counter("core.sketch.merges").add(sketch_merges);
  }
  result.total_cycles = cycles.load();
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();

  metrics.counter("core.tree.joins").add(result.joins);
  metrics.counter("core.tree.folds").add(1);
  metrics.histogram("core.tree.fold_ms").record(result.wall_ms);
  metrics.histogram("core.tree.height")
      .record(static_cast<double>(result.journal.height));
  metrics.histogram("core.tree.leaves")
      .record(static_cast<double>(result.journal.leaf_count));
  metrics.histogram("core.tree.seal_bytes")
      .record(static_cast<double>(result.root.seal_size_bytes()));
  return result;
}

Status verify_join_receipt(const zvm::Verifier& verifier,
                           const zvm::Receipt& receipt,
                           const zvm::VerifyContext& context) {
  return verifier.verify(receipt, join_image(), context);
}

}  // namespace zkt::core
