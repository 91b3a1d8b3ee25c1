// Human-readable receipt introspection and the registry of journal wire
// formats: renders any zktel receipt (its claim, seal shape, and journal
// walked field by field through the registered format's field list) as
// text. Backs the zkt-inspect tool and debugging output; the hostile-bytes
// tests sweep every registered format.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/commitment.h"
#include "core/histogram_query.h"
#include "zvm/receipt.h"

namespace zkt::core {

/// Fraction of histogram samples provably below the queried bound, in
/// [0, 1]. Lives here (host-side) rather than on HistogramQueryJournal
/// because that type is guest-reachable and guests must stay float-free;
/// the guest publishes the exact (count_below, total) pair instead.
double fraction_below(const HistogramQueryJournal& j);

/// One journal wire format, through its field list (common/codec.h).
struct JournalCodec {
  std::string_view name;  ///< its magic string(s)
  /// The guest images whose journals use it (none for EPSEAL1, the epoch
  /// seal item, which no guest commits).
  std::vector<zvm::ImageID> images;
  /// Decode the whole of `bytes`, then encode the value again.
  Result<Bytes> (*reencode)(BytesView bytes);
  /// Decode the whole of `bytes` and print every field by name, one per
  /// line.
  Result<std::string> (*describe)(BytesView bytes);
};

/// Every journal format of the system's guests (registering those guests).
std::span<const JournalCodec> journal_codecs();

/// Every field of a commitment by name, one per line (its field list).
std::string describe_commitment(const Commitment& commitment);

/// Multi-line description of a receipt. Never fails: unknown images or
/// malformed journals are described as such.
std::string describe_receipt(const zvm::Receipt& receipt);

/// One-line summary (image name, cycles, sizes).
std::string summarize_receipt(const zvm::Receipt& receipt);

}  // namespace zkt::core
