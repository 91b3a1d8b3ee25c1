// zkt-inspect: dump the contents of zktel artifact files — receipts (with
// journals decoded per guest type), epoch-seal ladders, and commitment
// boards, the last two field by field through their field lists. Receipt
// bundles (ZKTRCPT1) and epoch-seal files (ZKTEPCH1) are told apart by
// their magic.
//
// Usage:
//   zkt-inspect receipts.bin epoch_seals.bin [more files...]
//   zkt-inspect --commitments commitments.bin
#include <algorithm>
#include <cstdio>

#include "common/flags.h"
#include "common/serial.h"
#include "core/describe.h"
#include "core/epoch.h"
#include "core/io.h"

using namespace zkt;

namespace {

int inspect_receipts(const std::string& path) {
  auto receipts = core::load_receipts(path);
  if (!receipts.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 receipts.error().to_string().c_str());
    return 1;
  }
  std::printf("%s: %zu receipt(s)\n", path.c_str(), receipts.value().size());
  for (size_t i = 0; i < receipts.value().size(); ++i) {
    std::printf("[%zu] %s\n", i,
                core::describe_receipt(receipts.value()[i]).c_str());
  }
  return 0;
}

int inspect_epoch_seals(const std::string& path) {
  auto seals = core::load_epoch_seals(path);
  if (!seals.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 seals.error().to_string().c_str());
    return 1;
  }
  const auto codecs = core::journal_codecs();
  const auto epseal = std::find_if(
      codecs.begin(), codecs.end(),
      [](const core::JournalCodec& c) { return c.name == "EPSEAL1"; });
  std::printf("%s: %zu epoch seal(s)\n", path.c_str(), seals.value().size());
  int rc = 0;
  for (size_t i = 0; i < seals.value().size(); ++i) {
    auto text = epseal->describe(seals.value()[i].to_bytes());
    if (!text.ok()) {
      std::fprintf(stderr, "%s [%zu]: %s\n", path.c_str(), i,
                   text.error().to_string().c_str());
      rc = 1;
      continue;
    }
    std::printf("[%zu]\n%s", i, text.value().c_str());
  }
  return rc;
}

/// Dispatch on the file's leading magic string.
int inspect_file(const std::string& path) {
  auto data = core::read_file(path);
  if (!data.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 data.error().to_string().c_str());
    return 1;
  }
  Reader r(data.value());
  auto magic = r.str();
  if (magic.ok() && magic.value() == "ZKTEPCH1") {
    return inspect_epoch_seals(path);
  }
  return inspect_receipts(path);
}

int inspect_commitments(const std::string& path) {
  core::CommitmentBoard board;
  if (auto s = core::load_commitments(path, board); !s.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), s.to_string().c_str());
    return 1;
  }
  std::printf("%s: %zu commitment(s)\n", path.c_str(), board.size());
  const auto commitments = board.all();
  for (size_t i = 0; i < commitments.size(); ++i) {
    std::printf("[%zu]\n%s", i,
                core::describe_commitment(commitments[i]).c_str());
  }
  return 0;
}

constexpr std::string_view kUsage =
    "usage: zkt-inspect [--commitments FILE] "
    "[receipts.bin|epoch_seals.bin...]";

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv, {"commitments"});
  if (!flags.check(kUsage)) return 1;
  int rc = 0;
  if (flags.has("commitments")) {
    rc |= inspect_commitments(flags.get("commitments"));
  }
  for (const auto& path : flags.positional()) {
    rc |= inspect_file(path);
  }
  if (!flags.has("commitments") && flags.positional().empty()) {
    std::fprintf(stderr, "%.*s\n", static_cast<int>(kUsage.size()),
                 kUsage.data());
    return 1;
  }
  return rc;
}
