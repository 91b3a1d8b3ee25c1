// Log-scale latency histograms: the per-window distributional summary that
// backs verifiable percentile claims ("at least 90 % of samples saw
// RTT < 50 ms", §2.1's SLA language). Routers maintain one per window,
// commit to its hash like any other log object, and the provider later
// proves quantile bounds from the committed histogram without revealing
// the distribution (see core/histogram_query.h).
#pragma once

#include <array>

#include "common/bytes.h"
#include "common/codec.h"
#include "common/result.h"
#include "common/serial.h"
#include "crypto/digest.h"

namespace zkt::netflow {

/// Fixed log₂-bucketed histogram of microsecond latencies. Bucket b holds
/// samples with value in [2^b, 2^(b+1)) µs; bucket 0 additionally holds 0
/// and 1 µs. 40 buckets cover up to ~18 minutes, far beyond any RTT.
class LatencyHistogram {
 public:
  static constexpr u32 kBuckets = 40;

  /// Bucket index for a value (shared with the proof guest).
  static u32 bucket_of(u64 value_us);
  /// Inclusive upper bound (µs) of bucket b: 2^(b+1) - 1.
  static u64 bucket_upper_us(u32 bucket);

  void add(u64 value_us, u64 count = 1);
  u64 total() const { return total_; }
  u64 bucket(u32 index) const { return buckets_[index]; }

  /// Samples whose *bucket upper bound* is <= bound_us — i.e. samples
  /// provably below the bound (the histogram's conservative answer).
  u64 count_provably_below(u64 bound_us) const;

  /// Counter-wise sum.
  void merge(const LatencyHistogram& other);

  template <class V, class Self>
  static void fields(V& v, Self& h) {
    v.magic("HIST1");
    u32 bucket_count = kBuckets;
    v.field("bucket_count", bucket_count);
    v.check(bucket_count == kBuckets, "histogram bucket count mismatch");
    v.field("total", h.total_);
    v.field("buckets", h.buckets_);
    u64 sum = 0;
    for (u64 b : h.buckets_) sum += b;
    v.check(sum == h.total_, "histogram total inconsistent");
  }
  void serialize(Writer& w) const { encode(w, *this); }
  static Result<LatencyHistogram> deserialize(Reader& r) {
    return decode<LatencyHistogram>(r);
  }
  Bytes canonical_bytes() const { return encode(*this); }
  crypto::Digest32 hash() const;

  friend bool operator==(const LatencyHistogram&, const LatencyHistogram&) =
      default;

 private:
  std::array<u64, kBuckets> buckets_{};
  u64 total_ = 0;
};

}  // namespace zkt::netflow
