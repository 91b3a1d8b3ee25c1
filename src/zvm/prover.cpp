#include "zvm/prover.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <future>
#include <optional>
#include <string>

#include "common/thread_pool.h"
#include "crypto/sha256_backend.h"
#include "crypto/transcript.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "zvm/verifier.h"

namespace zkt::zvm {

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Leaves hashed per MerkleTree::hash_leaves() batch (512 rows): enough to
/// keep the SIMD lanes of the batched SHA-256 backends full, few enough
/// that the batch's lane states and blocks stay in cache.
constexpr u64 kLeafBatchLeaves = 64;

/// Leaf-hash one segment's rows, kRowsPerLeaf to a leaf, straight from the
/// trace log and build its Merkle tree. With `fan_out` the leaf batches
/// spread over the shared pool (the last segment, which the caller commits
/// while nothing else is left to overlap); otherwise they run here (a full
/// segment, already a pool task of its own).
crypto::MerkleTree commit_segment(const TraceSegment& segment, bool fan_out) {
  const auto start = std::chrono::steady_clock::now();
  obs::Registry& metrics = obs::Registry::instance();
  // zkt-lint: shared(histogram records are atomic)
  obs::Histogram& batch_rows = metrics.histogram("zvm.prover.leaf_batch_rows");
  const u64 leaf_count = leaves_for_rows(segment.rows());
  // zkt-lint: shared(each chunk writes only its own batches' slots; read after parallel_for joins)
  std::vector<Digest32> leaves(leaf_count);
  const size_t batches = (leaf_count + kLeafBatchLeaves - 1) / kLeafBatchLeaves;
  // One chunk of every batch keeps a full segment's work on this thread.
  const size_t grain = fan_out ? 1 : std::max<size_t>(batches, 1);
  common::ThreadPool::shared().parallel_for(
      batches, grain, [&](size_t first, size_t last) {
        std::vector<BytesView> views;
        for (size_t b = first; b < last; ++b) {
          const u64 begin = b * kLeafBatchLeaves;
          const u64 end = std::min(leaf_count, begin + kLeafBatchLeaves);
          views.clear();
          for (u64 i = begin; i < end; ++i) views.push_back(segment.leaf(i));
          const auto digests = crypto::MerkleTree::hash_leaves(views);
          std::copy(digests.begin(), digests.end(),
                    leaves.begin() + static_cast<ptrdiff_t>(begin));
          const u64 rows =
              std::min(segment.rows(), end * kRowsPerLeaf) -
              begin * kRowsPerLeaf;
          batch_rows.record(static_cast<double>(rows));
        }
      });
  crypto::MerkleTree tree(std::move(leaves));
  metrics.histogram("zvm.prover.segment_commit_ms").record(ms_since(start));
  return tree;
}

/// Merkle-commits a trace segment by segment: each full segment on the
/// shared pool while the guest keeps executing (inline when the pool's queue
/// is full), the last one on the caller once execution ends. Destruction
/// waits for every commit still in flight, help-running queued tasks
/// meanwhile, so declared after the Env whose segments the commits read it
/// drains first on every exit path: guest abort, error return, exception.
class SegmentCommitter {
 public:
  SegmentCommitter() = default;
  SegmentCommitter(const SegmentCommitter&) = delete;
  SegmentCommitter& operator=(const SegmentCommitter&) = delete;
  ~SegmentCommitter() {
    for (const std::future<void>& commit : pending_) pool_.help_wait(commit);
  }

  /// Commit the next, full segment on the pool, or here when the queue is
  /// full. `segment` must not change or move until the commit finishes
  /// (Env guarantees that for full segments).
  void submit(const TraceSegment& segment) {
    crypto::MerkleTree* tree = &trees_.emplace_back();
    auto commit = [tree, rows = &segment] {
      *tree = commit_segment(*rows, /*fan_out=*/false);
    };
    if (auto future = pool_.try_submit(commit)) {
      pending_.push_back(std::move(*future));
    } else {
      commit();
    }
  }

  /// Commit the last segment from the calling thread, its leaf batches
  /// fanned out over the pool.
  void commit_last(const TraceSegment& segment) {
    trees_.push_back(commit_segment(segment, /*fan_out=*/true));
  }

  /// Wait for every background commit (rethrowing the first failure) and
  /// return the trees in segment order.
  const std::deque<crypto::MerkleTree>& finish() {
    for (std::future<void>& commit : pending_) {
      pool_.help_wait(commit);
      commit.get();
    }
    pending_.clear();
    return trees_;
  }

 private:
  common::ThreadPool& pool_ = common::ThreadPool::shared();
  std::deque<crypto::MerkleTree> trees_;  // deque: a slot never moves
  std::vector<std::future<void>> pending_;
};

/// How many of a proof's segments reused a buffer an earlier proof gave
/// back, and how many allocated one.
void publish_buffer_metrics(obs::Registry& metrics, const Env& env) {
  metrics.counter("zvm.prover.segment_buffers_reused")
      .add(env.segment_buffers_reused());
  metrics.counter("zvm.prover.segment_buffers_fresh")
      .add(env.segment_buffers_fresh());
}

/// crypto cannot depend on obs (layer DAG), so backend/pool activity is
/// published into the metrics registry here, by the caller.
void publish_hash_metrics(obs::Registry& metrics) {
  for (u8 b = 0; b < crypto::kSha256BackendCount; ++b) {
    const auto backend = static_cast<crypto::Sha256Backend>(b);
    const auto stats = crypto::sha256_backend_stats(backend);
    if (stats.batches == 0) continue;
    const std::string name = crypto::sha256_backend_name(backend);
    metrics.gauge("crypto.sha256.blocks." + name)
        .set(static_cast<double>(stats.blocks));
    metrics.gauge("crypto.sha256.batches." + name)
        .set(static_cast<double>(stats.batches));
  }
  const auto& pool = common::ThreadPool::shared();
  metrics.gauge("common.pool.threads")
      .set(static_cast<double>(pool.thread_count()));
  metrics.gauge("common.pool.queue_depth")
      .set(static_cast<double>(pool.queue_depth()));
  metrics.gauge("common.pool.tasks_executed")
      .set(static_cast<double>(pool.tasks_executed()));
}

}  // namespace

std::vector<u64> derive_query_indices(const Digest32& claim_digest,
                                      const Digest32& roots_digest,
                                      u64 segment_index,
                                      const Digest32& segment_root,
                                      u64 row_count, u32 num_queries) {
  const u64 leaf_count = leaves_for_rows(row_count);
  const u64 count = std::min<u64>(num_queries, leaf_count);
  std::vector<u64> indices;
  indices.reserve(count);
  crypto::Transcript transcript("zkt.zvm.seal.v3");
  transcript.absorb("claim", claim_digest);
  transcript.absorb("roots", roots_digest);
  transcript.absorb_u64("segment", segment_index);
  transcript.absorb("segment_root", segment_root);
  transcript.absorb_u64("rows", row_count);
  // Dedup against a sorted shadow vector (O(log n) membership) instead of a
  // linear std::find per candidate; `indices` itself keeps draw order so the
  // transcript-derived opening sequence — and thus receipt bytes — are
  // unchanged.
  std::vector<u64> sorted;
  sorted.reserve(count);
  while (indices.size() < count) {
    const u64 idx = transcript.challenge_index("query", leaf_count);
    const auto pos = std::lower_bound(sorted.begin(), sorted.end(), idx);
    if (pos != sorted.end() && *pos == idx) continue;
    sorted.insert(pos, idx);
    indices.push_back(idx);
  }
  return indices;
}

Result<Receipt> Prover::prove(const ImageID& image_id, BytesView input,
                              const ProveOptions& options,
                              ProveInfo* info) const {
  const auto start = std::chrono::steady_clock::now();
  obs::Registry& metrics = obs::Registry::instance();
  obs::ScopedSpan prove_span("prove");
  std::optional<obs::ScopedSpan> phase;

  const Image* image = registry_->find(image_id);
  if (image == nullptr) {
    return Error{Errc::not_found, "unknown image id"};
  }
  if (options.max_segment_rows == 0) {
    return Error{Errc::invalid_argument, "max_segment_rows must be > 0"};
  }

  // Assumption receipts must themselves verify before the guest may rely on
  // them (mirrors RISC Zero resolving assumptions at prove time). The
  // prover's own policy follows its configured opening count, so chains
  // built with a consistent num_queries setting self-verify.
  Verifier verifier(options.num_queries);
  for (const auto& inner : options.assumptions) {
    ZKT_TRY(verifier.verify(inner, inner.claim.image_id));
  }

  phase.emplace("execute");
  Env env(input, options.assumptions, options.max_segment_rows);
  // After env: drains before env gives its segments' buffers back.
  SegmentCommitter committer;
  env.set_segment_sink(
      [&committer](const TraceSegment& segment) { committer.submit(segment); });
  Claim claim;
  claim.image_id = image_id;
  claim.input_digest = env.bind_input();

  if (auto guest = image->fn(env); !guest.ok()) {
    metrics.counter("zvm.prover.guest_aborts").add(1);
    publish_buffer_metrics(metrics, env);
    return guest.error();
  }
  env.end_region();  // close any region the guest left open

  claim.journal_digest = env.bind_journal();
  claim.cycle_count = env.cycles();
  claim.assumptions = env.assumptions();
  phase.reset();

  const double execute_ms = ms_since(start);
  const auto commit_start = std::chrono::steady_clock::now();
  phase.emplace("commit");

  // Full segments went to the pool as they filled; commit the last, partial
  // one here (an empty trace is one empty segment).
  const std::deque<TraceSegment>& segments = env.segments();
  if (segments.back().rows() < options.max_segment_rows) {
    committer.commit_last(segments.back());
  }
  const std::deque<crypto::MerkleTree>& trees = committer.finish();
  const u64 segment_count = trees.size();

  Receipt receipt;
  receipt.claim = claim;
  receipt.journal = env.journal();
  receipt.seal_kind = SealKind::composite;
  receipt.assumption_receipts = options.assumptions;
  receipt.composite.segments.resize(segment_count);
  for (u64 seg = 0; seg < segment_count; ++seg) {
    receipt.composite.segments[seg].trace_root = trees[seg].root();
    receipt.composite.segments[seg].row_count = segments[seg].rows();
  }

  // Fiat–Shamir challenges bind the full root list, then open per segment.
  phase.reset();
  phase.emplace("fs_open");
  const auto fs_start = std::chrono::steady_clock::now();
  const Digest32 claim_digest = claim.digest();
  const Digest32 roots_digest = receipt.composite.roots_digest();
  for (u64 seg = 0; seg < segment_count; ++seg) {
    auto& segment = receipt.composite.segments[seg];
    const auto indices =
        derive_query_indices(claim_digest, roots_digest, seg,
                             segment.trace_root, segment.row_count,
                             options.num_queries);
    segment.openings.reserve(indices.size());
    for (u64 idx : indices) {
      SealOpening opening;
      opening.leaf_index = idx;
      const BytesView leaf = segments[seg].leaf(idx);
      opening.leaf_bytes.assign(leaf.begin(), leaf.end());
      opening.proof = trees[seg].prove(idx);
      segment.openings.push_back(std::move(opening));
    }
  }
  metrics.histogram("zvm.prover.fs_derive_ms").record(ms_since(fs_start));
  phase.reset();

  if (options.seal_kind == SealKind::succinct) {
    phase.emplace("wrap");
    // Wrap: self-verify the composite receipt, then emit the constant-size
    // seal. Assumptions are resolved by this step (their receipts were
    // verified above and the wrapper attests to the whole tree).
    ZKT_TRY(verifier.verify(receipt, image_id));
    Receipt wrapped;
    wrapped.claim = receipt.claim;
    wrapped.journal = std::move(receipt.journal);
    wrapped.seal_kind = SealKind::succinct;
    wrapped.succinct = SuccinctSeal::wrap(claim_digest, roots_digest);
    receipt = std::move(wrapped);
    phase.reset();
  }

  metrics.counter("zvm.prover.proofs").add(1);
  metrics.counter("zvm.prover.cycles").add(claim.cycle_count);
  metrics.counter("zvm.prover.sha_rows").add(env.sha_rows());
  metrics.counter("zvm.prover.segments").add(segment_count);
  publish_buffer_metrics(metrics, env);
  metrics.histogram("zvm.prover.execute_ms").record(execute_ms);
  metrics.histogram("zvm.prover.commit_ms").record(ms_since(commit_start));
  metrics.histogram("zvm.prover.total_ms").record(ms_since(start));
  publish_hash_metrics(metrics);

  if (info != nullptr) {
    info->cycles = claim.cycle_count;
    info->sha_rows = env.sha_rows();
    info->segments = segment_count;
    info->execute_ms = execute_ms;
    info->commit_ms = ms_since(commit_start);
    info->total_ms = ms_since(start);
    info->regions = env.region_cycles();
  }
  return receipt;
}

}  // namespace zkt::zvm
