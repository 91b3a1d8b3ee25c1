// The --metrics / --metrics-json surface the zkt-* tools share.
#pragma once

#include <cstdio>
#include <fstream>
#include <string>

#include "common/flags.h"
#include "obs/metrics.h"

namespace zkt::tools {

/// Final act of a tool's exit paths: dump the process-wide metrics as
/// `flags` ask. --metrics prints the table to stderr; --metrics-json
/// [PATH|-] writes the JSON snapshot to PATH (`default_json_path` when
/// bare) or to stdout. Returns `exit_code`, or 1 when an otherwise clean
/// exit could not write the JSON.
inline int finish(const Flags& flags, const std::string& default_json_path,
                  int exit_code) {
  const auto snapshot = obs::Registry::instance().snapshot();
  if (flags.has("metrics")) {
    std::fprintf(stderr, "%s", snapshot.to_table().c_str());
  }
  if (!flags.has("metrics-json")) return exit_code;
  std::string path = flags.get("metrics-json");
  if (path.empty()) path = default_json_path;
  if (path == "-") {
    std::printf("%s", snapshot.to_json().c_str());
    return exit_code;
  }
  std::ofstream out(path);
  out << snapshot.to_json();
  if (!out) {
    std::fprintf(stderr, "metrics-json: cannot write %s\n", path.c_str());
    return exit_code == 0 ? 1 : exit_code;
  }
  std::printf("  metrics -> %s\n", path.c_str());
  return exit_code;
}

}  // namespace zkt::tools
