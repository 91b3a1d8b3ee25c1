#include "core/histogram_query.h"

namespace zkt::core {

namespace {

using netflow::LatencyHistogram;
using zvm::AluOp;
using zvm::Env;

Status histogram_query_guest(Env& env) {
  HistogramQueryJournal journal;
  auto rid = env.read_u32();
  if (!rid.ok()) return rid.error();
  journal.commitment.router_id = rid.value();
  auto wid = env.read_u64();
  if (!wid.ok()) return wid.error();
  journal.commitment.window_id = wid.value();
  auto chash = env.read_digest();
  if (!chash.ok()) return chash.error();
  journal.commitment.rlog_hash = chash.value();
  auto total = env.read_u64();
  if (!total.ok()) return total.error();
  journal.commitment.record_count = total.value();

  auto histogram_bytes = env.read_blob();
  if (!histogram_bytes.ok()) return histogram_bytes.error();
  auto bound = env.read_u64();
  if (!bound.ok()) return bound.error();
  journal.bound_us = bound.value();
  if (env.input_remaining() != 0) {
    return Error{Errc::guest_abort, "trailing bytes in histogram input"};
  }

  // Histogram authenticity (Figure 3's check, applied to the histogram).
  const Digest32 h = env.sha256(histogram_bytes.value());
  ZKT_TRY(env.assert_eq(h, journal.commitment.rlog_hash,
                        "histogram hash vs published commitment"));

  Reader hr(histogram_bytes.value());
  auto histogram = LatencyHistogram::deserialize(hr);
  if (!histogram.ok()) return histogram.error();
  ZKT_TRY(env.assert_true(
      histogram.value().total() == journal.commitment.record_count,
      "histogram total vs commitment"));

  // Traced recomputation: sum the buckets whose upper bound clears the
  // threshold, and independently re-sum the total.
  u64 below = 0;
  u64 recomputed_total = 0;
  for (u32 b = 0; b < LatencyHistogram::kBuckets; ++b) {
    const u64 bucket_count = histogram.value().bucket(b);
    recomputed_total = env.alu(AluOp::add, recomputed_total, bucket_count);
    const u64 upper = LatencyHistogram::bucket_upper_us(b);
    // include = (upper <= bound) as 0/1, arithmetically.
    const u64 include =
        env.alu(AluOp::xor_, env.alu(AluOp::ltu, journal.bound_us, upper), 1);
    below = env.alu(AluOp::add, below,
                    env.alu(AluOp::mul, include, bucket_count));
  }
  const u64 total_ok =
      env.alu(AluOp::eq, recomputed_total, histogram.value().total());
  ZKT_TRY(env.assert_true(total_ok == 1, "bucket sum vs declared total"));

  journal.count_below = below;
  journal.total = recomputed_total;

  Writer jw;
  journal.write(jw);
  env.commit_raw(jw.bytes());
  return {};
}

}  // namespace

zvm::ImageID histogram_query_image() {
  static const zvm::ImageID id = zvm::ImageRegistry::instance().add(
      "zkt.guest.histogram_query", 1, histogram_query_guest);
  return id;
}

Result<HistogramQueryResponse> prove_histogram_query(
    const CommitmentRef& ref, const netflow::LatencyHistogram& histogram,
    u64 bound_us, const zvm::ProveOptions& options) {
  Writer input;
  input.u32v(ref.router_id);
  input.u64v(ref.window_id);
  input.fixed(ref.rlog_hash.bytes);
  input.u64v(ref.record_count);
  input.blob(histogram.canonical_bytes());
  input.u64v(bound_us);

  zvm::Prover prover;
  zvm::ProveInfo info;
  auto receipt =
      prover.prove(histogram_query_image(), input.bytes(), options, &info);
  if (!receipt.ok()) return receipt.error();
  auto journal = HistogramQueryJournal::parse(receipt.value().journal);
  if (!journal.ok()) return journal.error();

  HistogramQueryResponse response;
  response.receipt = std::move(receipt.value());
  response.journal = std::move(journal.value());
  response.prove_info = info;
  return response;
}

}  // namespace zkt::core
