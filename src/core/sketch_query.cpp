#include "core/sketch_query.h"

#include "core/sketch_fold.h"

namespace zkt::core {

namespace {

using netflow::RoundSketch;
using zvm::AluOp;
using zvm::Env;

/// Shared head of both round-sketch query guests: bind the aggregation
/// receipt, read the sketch blob, authenticate it against the journal's
/// chained sketch digest with ONE traced hash, and check params/total
/// agreement. The k remaining input bytes (if any) belong to the caller.
struct RoundSketchBinding {
  Digest32 agg_claim_digest;
  AggJournal agg;
  RoundSketch sketch{netflow::SketchParams{}};
};

Result<RoundSketchBinding> bind_round_sketch(Env& env) {
  auto bound = detail::bind_aggregation(env);
  if (!bound.ok()) return bound.error();
  RoundSketchBinding binding;
  binding.agg_claim_digest = bound.value().claim_digest;
  binding.agg = std::move(bound.value().journal);
  ZKT_TRY(env.assert_true(binding.agg.has_sketch,
                          "bound aggregation round carries no sketch"));

  auto sketch_bytes = env.read_blob();
  if (!sketch_bytes.ok()) return sketch_bytes.error();
  const Digest32 h = env.sha256(sketch_bytes.value());
  ZKT_TRY(env.assert_eq(h, binding.agg.sketch_digest,
                        "sketch bytes vs the round's chained digest"));

  Reader sr(sketch_bytes.value());
  auto sketch = RoundSketch::deserialize(sr);
  if (!sketch.ok()) return sketch.error();
  if (!sr.done()) {
    return Error{Errc::guest_abort, "trailing bytes in round sketch"};
  }
  binding.sketch = std::move(sketch.value());
  ZKT_TRY(env.assert_true(binding.sketch.params() == binding.agg.sketch_params,
                          "sketch params vs round journal"));
  ZKT_TRY(detail::assert_eq_u64(env, binding.sketch.total(),
                                binding.agg.sketch_total,
                                "sketch total vs round journal"));
  // The two structures absorbed the same stream, so their totals agree.
  ZKT_TRY(detail::assert_eq_u64(env, binding.sketch.heavy().total(),
                                binding.sketch.total(),
                                "tracker total vs sketch total"));
  return binding;
}

Status sketch_heavy_guest(Env& env) {
  auto binding = bind_round_sketch(env);
  if (!binding.ok()) return binding.error();
  const RoundSketch& sketch = binding.value().sketch;

  auto threshold_r = env.read_u64();
  if (!threshold_r.ok()) return threshold_r.error();
  const u64 threshold = threshold_r.value();
  if (env.input_remaining() != 0) {
    return Error{Errc::guest_abort, "trailing bytes in heavy-hitter input"};
  }
  ZKT_TRY(env.assert_true(threshold >= 1,
                          "heavy-hitter threshold must be positive"));

  // Completeness floor: Space-Saving tracks every key whose true count
  // exceeds total/capacity, so the report is complete iff
  // threshold * capacity > total, i.e. threshold > floor(total/capacity).
  // (Proven in-trace; below the floor the prover must fall back to an
  // exact Merkle-path query.)
  const u64 floor = env.alu(AluOp::divu, sketch.heavy().total(),
                            sketch.heavy().capacity());
  ZKT_TRY(env.assert_true(env.alu(AluOp::ltu, floor, threshold) == 1,
                          "threshold below the sketch's provable floor"));

  SketchHeavyJournal out;
  out.agg_claim_digest = binding.value().agg_claim_digest;
  out.sketch_digest = binding.value().agg.sketch_digest;
  out.params = sketch.params();
  out.total = sketch.total();
  out.threshold = threshold;
  for (const auto& e : sketch.heavy().heavy_hitters(threshold)) {
    ZKT_TRY(env.assert_true(env.alu(AluOp::ltu, e.count, threshold) == 0,
                            "reported hit below threshold"));
    SketchHeavyHit hit;
    hit.key = e.key;
    hit.count = e.count;
    hit.error = e.error;
    hit.cms_estimate = cms_point_estimate_traced(env, sketch.cm(), e.key);
    out.hits.push_back(hit);
  }

  Writer jw;
  out.write(jw);
  env.commit_raw(jw.bytes());
  return {};
}

Status sketch_card_guest(Env& env) {
  auto binding = bind_round_sketch(env);
  if (!binding.ok()) return binding.error();
  if (env.input_remaining() != 0) {
    return Error{Errc::guest_abort, "trailing bytes in cardinality input"};
  }
  const RoundSketch& sketch = binding.value().sketch;
  const AggJournal& agg = binding.value().agg;

  SketchCardinalityJournal out;
  out.agg_claim_digest = binding.value().agg_claim_digest;
  out.sketch_digest = agg.sketch_digest;
  out.params = sketch.params();
  out.total = sketch.total();
  // Exact by construction: the CLog keeps one entry per distinct flow, and
  // the bound journal's entry count is already proven.
  out.distinct_flows = agg.new_entry_count;

  // Count-Min lower bound: every distinct key fills exactly one counter
  // per row, so no row can hold more nonzero counters than there are
  // flows. Max over rows (select-based, in-trace).
  u64 lower = 0;
  for (u32 row = 0; row < sketch.params().cm.depth; ++row) {
    const u64 nz = sketch.cm().nonzero_in_row(row);
    const u64 gt = env.alu(AluOp::ltu, lower, nz);
    const u64 diff = env.alu(AluOp::sub, nz, lower);
    lower = env.alu(AluOp::add, lower, env.alu(AluOp::mul, gt, diff));
  }
  out.cms_lower_bound = lower;
  ZKT_TRY(env.assert_true(
      env.alu(AluOp::ltu, out.distinct_flows, lower) == 0,
      "sketch counters exceed the committed flow count"));

  Writer jw;
  out.write(jw);
  env.commit_raw(jw.bytes());
  return {};
}

void write_sketch_params(Writer& w, const netflow::SketchParams& p) {
  w.u32v(p.cm.width);
  w.u32v(p.cm.depth);
  w.u64v(p.cm.seed);
  w.u32v(p.heavy_capacity);
}

Result<netflow::SketchParams> parse_sketch_params(Reader& r) {
  netflow::SketchParams p;
  auto width = r.u32v();
  if (!width.ok()) return width.error();
  p.cm.width = width.value();
  auto depth = r.u32v();
  if (!depth.ok()) return depth.error();
  p.cm.depth = depth.value();
  auto seed = r.u64v();
  if (!seed.ok()) return seed.error();
  p.cm.seed = seed.value();
  auto cap = r.u32v();
  if (!cap.ok()) return cap.error();
  p.heavy_capacity = cap.value();
  if (p.cm.width == 0 || p.cm.depth == 0 || p.heavy_capacity == 0) {
    return Error{Errc::parse_error, "degenerate sketch params"};
  }
  return p;
}

}  // namespace

void SketchHeavyJournal::write(Writer& w) const {
  w.str("SKHH");
  w.fixed(agg_claim_digest.bytes);
  w.fixed(sketch_digest.bytes);
  write_sketch_params(w, params);
  w.u64v(total);
  w.u64v(threshold);
  w.varint(hits.size());
  for (const auto& hit : hits) {
    hit.key.serialize(w);
    w.u64v(hit.count);
    w.u64v(hit.error);
    w.u64v(hit.cms_estimate);
  }
}

Result<SketchHeavyJournal> SketchHeavyJournal::parse(BytesView journal) {
  Reader r(journal);
  auto magic = r.str();
  if (!magic.ok()) return magic.error();
  if (magic.value() != "SKHH") {
    return Error{Errc::parse_error, "bad heavy-hitter journal magic"};
  }
  SketchHeavyJournal j;
  ZKT_TRY(r.fixed(j.agg_claim_digest.bytes));
  ZKT_TRY(r.fixed(j.sketch_digest.bytes));
  auto params = parse_sketch_params(r);
  if (!params.ok()) return params.error();
  j.params = params.value();
  auto total = r.u64v();
  if (!total.ok()) return total.error();
  j.total = total.value();
  auto threshold = r.u64v();
  if (!threshold.ok()) return threshold.error();
  j.threshold = threshold.value();
  auto n = r.varint();
  if (!n.ok()) return n.error();
  if (n.value() > j.params.heavy_capacity) {
    return Error{Errc::parse_error, "more hits than the tracker can hold"};
  }
  j.hits.reserve(n.value());
  for (u64 i = 0; i < n.value(); ++i) {
    SketchHeavyHit hit;
    auto key = netflow::FlowKey::deserialize(r);
    if (!key.ok()) return key.error();
    hit.key = key.value();
    auto count = r.u64v();
    if (!count.ok()) return count.error();
    hit.count = count.value();
    auto error = r.u64v();
    if (!error.ok()) return error.error();
    hit.error = error.value();
    auto est = r.u64v();
    if (!est.ok()) return est.error();
    hit.cms_estimate = est.value();
    j.hits.push_back(hit);
  }
  if (!r.done()) {
    return Error{Errc::parse_error, "trailing heavy-hitter journal bytes"};
  }
  return j;
}

void SketchCardinalityJournal::write(Writer& w) const {
  w.str("SKCD");
  w.fixed(agg_claim_digest.bytes);
  w.fixed(sketch_digest.bytes);
  write_sketch_params(w, params);
  w.u64v(total);
  w.u64v(distinct_flows);
  w.u64v(cms_lower_bound);
}

Result<SketchCardinalityJournal> SketchCardinalityJournal::parse(
    BytesView journal) {
  Reader r(journal);
  auto magic = r.str();
  if (!magic.ok()) return magic.error();
  if (magic.value() != "SKCD") {
    return Error{Errc::parse_error, "bad cardinality journal magic"};
  }
  SketchCardinalityJournal j;
  ZKT_TRY(r.fixed(j.agg_claim_digest.bytes));
  ZKT_TRY(r.fixed(j.sketch_digest.bytes));
  auto params = parse_sketch_params(r);
  if (!params.ok()) return params.error();
  j.params = params.value();
  auto total = r.u64v();
  if (!total.ok()) return total.error();
  j.total = total.value();
  auto distinct = r.u64v();
  if (!distinct.ok()) return distinct.error();
  j.distinct_flows = distinct.value();
  auto lower = r.u64v();
  if (!lower.ok()) return lower.error();
  j.cms_lower_bound = lower.value();
  if (!r.done()) {
    return Error{Errc::parse_error, "trailing cardinality journal bytes"};
  }
  return j;
}

zvm::ImageID sketch_heavy_image() {
  static const zvm::ImageID id = zvm::ImageRegistry::instance().add(
      "zkt.guest.sketch_heavy", 1, sketch_heavy_guest);
  return id;
}

zvm::ImageID sketch_card_image() {
  static const zvm::ImageID id = zvm::ImageRegistry::instance().add(
      "zkt.guest.sketch_card", 1, sketch_card_guest);
  return id;
}

bool sketch_heavy_bound_ok(u64 threshold, u64 capacity, u64 total) {
  // threshold * capacity > total without the overflow:
  // threshold > floor(total / capacity).
  return threshold >= 1 && capacity >= 1 && threshold > total / capacity;
}

Result<SketchHeavyResponse> prove_sketch_heavy(
    const zvm::Receipt& agg_receipt, const netflow::RoundSketch& sketch,
    u64 threshold, const zvm::ProveOptions& options) {
  auto agg = AggJournal::parse(agg_receipt.journal);
  if (!agg.ok()) return agg.error();
  if (!agg.value().has_sketch) {
    return Error{Errc::invalid_argument,
                 "aggregation round carries no sketch"};
  }
  if (!sketch_heavy_bound_ok(threshold, sketch.heavy().capacity(),
                             sketch.heavy().total())) {
    return Error{Errc::invalid_argument,
                 "threshold below the sketch's provable floor"};
  }
  return prove_on_round<SketchHeavyResponse>(
      sketch_heavy_image(), agg_receipt,
      [&](Writer& w) {
        w.blob(sketch.canonical_bytes());
        w.u64v(threshold);
      },
      options);
}

Result<SketchCardinalityResponse> prove_sketch_cardinality(
    const zvm::Receipt& agg_receipt, const netflow::RoundSketch& sketch,
    const zvm::ProveOptions& options) {
  auto agg = AggJournal::parse(agg_receipt.journal);
  if (!agg.ok()) return agg.error();
  if (!agg.value().has_sketch) {
    return Error{Errc::invalid_argument,
                 "aggregation round carries no sketch"};
  }
  return prove_on_round<SketchCardinalityResponse>(
      sketch_card_image(), agg_receipt,
      [&](Writer& w) { w.blob(sketch.canonical_bytes()); }, options);
}

}  // namespace zkt::core
