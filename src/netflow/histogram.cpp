#include "netflow/histogram.h"

#include <bit>

#include "crypto/sha256.h"

namespace zkt::netflow {

u32 LatencyHistogram::bucket_of(u64 value_us) {
  if (value_us < 2) return 0;
  const u32 b = 63 - static_cast<u32>(std::countl_zero(value_us));
  return std::min(b, kBuckets - 1);
}

u64 LatencyHistogram::bucket_upper_us(u32 bucket) {
  if (bucket >= 63) return ~0ULL;
  return (1ULL << (bucket + 1)) - 1;
}

void LatencyHistogram::add(u64 value_us, u64 count) {
  buckets_[bucket_of(value_us)] += count;
  total_ += count;
}

u64 LatencyHistogram::count_provably_below(u64 bound_us) const {
  u64 count = 0;
  for (u32 b = 0; b < kBuckets; ++b) {
    if (bucket_upper_us(b) <= bound_us) count += buckets_[b];
  }
  return count;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (u32 b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
  total_ += other.total_;
}

crypto::Digest32 LatencyHistogram::hash() const {
  return crypto::sha256(canonical_bytes());
}

}  // namespace zkt::netflow
