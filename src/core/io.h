// File formats for moving zktel artifacts between processes: commitment
// board dumps and receipt bundles. Both are length-framed sequences with a
// magic header and per-item CRC, so the CLI tools (zkt-sim, zkt-prove,
// zkt-verify) can hand artifacts to each other — and to auditors — as plain
// files.
#pragma once

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/commitment.h"
#include "store/fault.h"
#include "zvm/receipt.h"

namespace zkt::core {

/// Write every commitment on the board to `path`.
Status save_commitments(const CommitmentBoard& board, const std::string& path);

/// Load commitments from `path` and publish them onto `board` (signatures
/// re-verified by the board).
Status load_commitments(const std::string& path, CommitmentBoard& board);

/// Write a sequence of receipts to `path`.
Status save_receipts(const std::vector<zvm::Receipt>& receipts,
                     const std::string& path);

/// Load a sequence of receipts from `path`.
Result<std::vector<zvm::Receipt>> load_receipts(const std::string& path);

/// Pull-based receipt iterator: the streaming counterpart of
/// load_receipts(), and the input shape of Auditor::audit. Sources yield
/// receipts one at a time so an arbitrarily long chain can be verified in
/// O(1) memory — no std::vector<Receipt> materialization.
class ReceiptSource {
 public:
  virtual ~ReceiptSource() = default;

  /// The next receipt, or an empty optional at clean end-of-stream. After
  /// an error the source is exhausted (subsequent calls repeat the error).
  virtual Result<std::optional<zvm::Receipt>> next() = 0;
};

/// File-backed source over the ZKTRCPT1 receipt-bundle format: parses the
/// length-framed items incrementally with the same validation as
/// load_receipts (magic, per-item CRC, item-count cap, trailing-byte
/// check), but holds only ONE receipt plus a bounded IO buffer resident —
/// peak memory is the largest single receipt, not the chain length.
class ReceiptFileSource final : public ReceiptSource {
 public:
  struct Options {
    /// Optional deterministic fault hook (mirrors LogStore's read path):
    /// when armed, each item read consults FaultPoint::scan and surfaces
    /// Errc::io_error on fire — so audits can be tested under injected
    /// read failures.
    store::FaultInjector* fault = nullptr;
  };

  /// Open `path` and validate the bundle header. (Two overloads instead of
  /// a defaulted argument: a nested class is incomplete as a default
  /// argument inside its enclosing class.)
  static Result<ReceiptFileSource> open(const std::string& path) {
    return open(path, Options{});
  }
  static Result<ReceiptFileSource> open(const std::string& path,
                                        Options options);

  Result<std::optional<zvm::Receipt>> next() override;

  /// Item count declared by the bundle header (not yet cross-checked
  /// against the actual stream — next() enforces that incrementally).
  u64 declared_count() const { return count_; }
  /// Receipts successfully yielded so far.
  u64 read_count() const { return read_; }

 private:
  ReceiptFileSource(std::FILE* file, Options options)
      : file_(file, &std::fclose), options_(options) {}

  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file_;
  Options options_;
  u64 count_ = 0;
  u64 read_ = 0;
  std::optional<Error> failed_;
};

/// In-memory adapter over already-loaded receipts (tests, and callers that
/// still materialize). Non-owning: the span must outlive the source.
class ReceiptSpanSource final : public ReceiptSource {
 public:
  explicit ReceiptSpanSource(std::span<const zvm::Receipt> receipts)
      : receipts_(receipts) {}

  Result<std::optional<zvm::Receipt>> next() override {
    if (next_ >= receipts_.size()) return std::optional<zvm::Receipt>{};
    return std::optional<zvm::Receipt>{receipts_[next_++]};
  }

 private:
  std::span<const zvm::Receipt> receipts_;
  size_t next_ = 0;
};

/// Raw helpers shared by the formats above.
Status write_file(const std::string& path, BytesView data);
Result<Bytes> read_file(const std::string& path);

}  // namespace zkt::core
