// zkt-inspect: dump the contents of zktel artifact files — receipts (with
// journals decoded per guest type), epoch-seal ladders, and commitment
// boards. Receipt bundles (ZKTRCPT1) and epoch-seal files (ZKTEPCH1) are
// told apart by their magic.
//
// Usage:
//   zkt-inspect receipts.bin epoch_seals.bin [more files...]
//   zkt-inspect --commitments commitments.bin
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
  std::printf("%s: %zu epoch seal(s)\n", path.c_str(), seals.value().size());
  for (size_t i = 0; i < seals.value().size(); ++i) {
    const auto& seal = seals.value()[i];
    std::printf("[%zu] level %u, rounds [%llu, %llu), windows %llu..%llu, "
                "%zu commitment ref(s)\n     %s\n",
                i, seal.level, (unsigned long long)seal.start_round,
                (unsigned long long)(seal.start_round + seal.rounds),
                (unsigned long long)seal.first_window,
                (unsigned long long)seal.last_window, seal.commitments.size(),
                core::describe_receipt(seal.receipt).c_str());
  }
  return 0;
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
  for (const auto& c : board.all()) {
    std::printf("  router %u window %llu: %llu records, H=%s..., signed %s"
                "..., at t=%llu ms\n",
                c.router_id, (unsigned long long)c.window_id,
                (unsigned long long)c.record_count,
                c.rlog_hash.hex().substr(0, 16).c_str(),
                to_hex(BytesView(c.router_pubkey.data(), 32)).substr(0, 12).c_str(),
                (unsigned long long)c.published_at_ms);
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
