#include "core/describe.h"

#include <sstream>

#include "core/chain_summary.h"
#include "core/epoch.h"
#include "core/grouped_query.h"
#include "core/guests.h"
#include "core/sharded.h"
#include "core/sketch_query.h"

namespace zkt::core {

double fraction_below(const HistogramQueryJournal& j) {
  return j.total == 0 ? 0.0
                      : static_cast<double>(j.count_below) /
                            static_cast<double>(j.total);
}

namespace {

std::string short_hex(BytesView bytes) {
  return to_hex(bytes).substr(0, 16) + "…";
}

/// The describing walker over a field list (common/codec.h): one line per
/// field, "name value", with nested, listed and derived fields under their
/// path ("commitments[0].router_id"). Queries print as SQL, QFields by name,
/// digests as short hex, byte strings by size, receipts as one summary line.
class FieldPrinter {
 public:
  explicit FieldPrinter(std::ostringstream& os) : os_(os) {}

  void magic(std::string_view m) { line("magic") << m << "\n"; }
  template <class E>
  void magic(const E& which, std::span<const std::string_view> names) {
    magic(names[static_cast<size_t>(which)]);
  }

  template <class T>
  void field(std::string_view name, const T& value) {
    if constexpr (std::is_same_v<T, QField>) {
      line(name) << qfield_name(value) << "\n";
    } else if constexpr (std::is_enum_v<T>) {
      line(name) << static_cast<u64>(value) << "\n";
    } else if constexpr (std::is_integral_v<T>) {
      line(name) << static_cast<u64>(value) << "\n";
    } else if constexpr (zkt::detail::is_byte_array_v<T>) {
      line(name) << short_hex(value) << "\n";
    } else if constexpr (zkt::detail::ByteString<T>) {
      line(name) << short_hex(value.bytes) << "\n";
    } else if constexpr (zkt::detail::is_uint_array_v<T>) {
      std::ostream& os = line(name);
      for (size_t i = 0; i < value.size(); ++i) {
        os << (i > 0 ? " " : "") << static_cast<u64>(value[i]);
      }
      os << "\n";
    } else if constexpr (zkt::detail::HasFields<T>) {
      nested(std::string(name), value);
    } else {
      line(name) << value.to_string() << "\n";
    }
  }

  void bytes(std::string_view name, const Bytes& value) {
    line(name) << value.size() << " B\n";
  }

  template <class T>
  void blob(std::string_view name, const T& value) {
    if constexpr (std::is_same_v<T, zvm::Receipt>) {
      line(name) << summarize_receipt(value) << "\n";
    } else {
      line(name) << value.to_string() << "\n";
    }
  }

  template <class T>
  void list(std::string_view name, const std::vector<T>& items, u64,
            Count = Count::varint) {
    line(name) << items.size() << "\n";
    for (size_t i = 0; i < items.size(); ++i) {
      field(std::string(name) + "[" + std::to_string(i) + "]", items[i]);
    }
  }

  template <class T>
  void derived(std::string_view name, const T& value, BytesView) {
    nested(std::string(name), value);
  }
  void check(bool, std::string_view) {}

 private:
  std::ostream& line(std::string_view name) {
    return os_ << "    " << prefix_ << name << " ";
  }

  template <class T>
  void nested(const std::string& path, const T& value) {
    const size_t outer = prefix_.size();
    prefix_ += path + ".";
    T::fields(*this, value);
    prefix_.resize(outer);
  }

  std::ostringstream& os_;
  std::string prefix_;
};

template <class T>
JournalCodec codec(std::string_view name, std::vector<zvm::ImageID> images) {
  return JournalCodec{
      name, std::move(images),
      [](BytesView bytes) -> Result<Bytes> {
        auto value = decode<T>(bytes);
        if (!value.ok()) return value.error();
        Writer w;
        encode(w, value.value());
        return std::move(w).take();
      },
      [](BytesView bytes) -> Result<std::string> {
        auto value = decode<T>(bytes);
        if (!value.ok()) return value.error();
        std::ostringstream os;
        FieldPrinter printer(os);
        T::fields(printer, value.value());
        return os.str();
      }};
}

const JournalCodec* codec_for(const zvm::ImageID& image) {
  for (const JournalCodec& c : journal_codecs()) {
    for (const zvm::ImageID& id : c.images) {
      if (id == image) return &c;
    }
  }
  return nullptr;
}

std::string image_name(const zvm::ImageID& image) {
  journal_codecs();  // registers the guests by name
  const zvm::Image* found = zvm::ImageRegistry::instance().find(image);
  return found != nullptr ? found->name : "unknown-image";
}

}  // namespace

std::span<const JournalCodec> journal_codecs() {
  static const std::vector<JournalCodec> codecs = [] {
    const GuestImages& guests = guest_images();
    return std::vector<JournalCodec>{
        codec<AggJournal>("AGG1/AGGI",
                          {guests.aggregate, guests.aggregate_incremental}),
        codec<QueryJournal>("QRY1", {guests.query, guests.query_selective}),
        codec<GroupedQueryJournal>("GQRY1", {grouped_query_image()}),
        codec<HistogramQueryJournal>("HQRY1", {histogram_query_image()}),
        codec<SketchHeavyJournal>("SKHH", {sketch_heavy_image()}),
        codec<SketchCardinalityJournal>("SKCD", {sketch_card_image()}),
        codec<SplitJournal>("SPLIT1", {shard_split_image()}),
        codec<JoinJournal>("JOIN1", {join_image()}),
        codec<ChainSummaryJournal>("EPOCH1", {chain_summary_image()}),
        codec<EpochSeal>("EPSEAL1", {}),
    };
  }();
  return codecs;
}

std::string describe_commitment(const Commitment& commitment) {
  std::ostringstream os;
  FieldPrinter printer(os);
  Commitment::fields(printer, commitment);
  return os.str();
}

std::string summarize_receipt(const zvm::Receipt& receipt) {
  std::ostringstream os;
  os << image_name(receipt.claim.image_id) << ", "
     << receipt.claim.cycle_count << " cycles, journal "
     << receipt.journal.size() << " B, "
     << (receipt.seal_kind == zvm::SealKind::succinct ? "succinct"
                                                      : "composite")
     << " seal " << receipt.seal_size_bytes() << " B, receipt "
     << receipt.receipt_size_bytes() << " B";
  return os.str();
}

std::string describe_receipt(const zvm::Receipt& receipt) {
  std::ostringstream os;
  os << summarize_receipt(receipt) << "\n";
  os << "  claim " << short_hex(receipt.claim.digest().view()) << ", input "
     << short_hex(receipt.claim.input_digest.view()) << ", journal "
     << short_hex(receipt.claim.journal_digest.view()) << "\n";
  if (!receipt.claim.assumptions.empty()) {
    os << "  assumptions: " << receipt.claim.assumptions.size()
       << " inner claim(s)\n";
  }
  if (receipt.seal_kind == zvm::SealKind::composite) {
    os << "  segments: " << receipt.composite.segments.size() << " (";
    for (size_t i = 0; i < receipt.composite.segments.size(); ++i) {
      const zvm::SegmentSeal& segment = receipt.composite.segments[i];
      if (i > 0) os << "; ";
      os << segment.row_count << " rows, "
         << zvm::leaves_for_rows(segment.row_count) << " leaves, "
         << segment.openings.size() << " opened";
    }
    os << ")\n";
  }
  const JournalCodec* codec = codec_for(receipt.claim.image_id);
  if (codec == nullptr) {
    os << "  journal: " << receipt.journal.size()
       << " bytes (unknown image; not decoded)\n";
    return os.str();
  }
  auto fields = codec->describe(receipt.journal);
  if (!fields.ok()) {
    os << "  journal: MALFORMED (" << fields.error().to_string() << ")\n";
    return os.str();
  }
  os << "  journal:\n" << fields.value();
  return os.str();
}

}  // namespace zkt::core
