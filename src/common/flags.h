// Tiny command-line flag parser for the zkt-* tools: supports
// --name=value, --name value, bare --switch, and positional arguments. A
// tool names the flags it accepts; any other --name is unknown(), and
// check() reports it so the tool can exit instead of ignoring it.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"

namespace zkt {

class Flags {
 public:
  /// Parse argv for a tool that accepts exactly the `accepted` names.
  Flags(int argc, const char* const* argv,
        std::initializer_list<std::string_view> accepted) {
    for (int i = 1; i < argc; ++i) {
      std::string_view arg = argv[i];
      if (!arg.starts_with("--")) {
        positional_.emplace_back(arg);
        continue;
      }
      arg.remove_prefix(2);
      const size_t eq = arg.find('=');
      const std::string name(arg.substr(0, eq));
      std::string value;  // bare switch
      if (eq != std::string_view::npos) {
        value = arg.substr(eq + 1);
      } else if (i + 1 < argc &&
                 std::string_view(argv[i + 1]).substr(0, 2) != "--") {
        value = argv[++i];
      }
      if (std::find(accepted.begin(), accepted.end(), name) ==
          accepted.end()) {
        unknown_.push_back(name);
      } else {
        named_[name] = std::move(value);
      }
    }
  }

  /// The --names outside the accepted set, in argv order (never stored as
  /// flags: has() is false for them).
  const std::vector<std::string>& unknown() const { return unknown_; }

  /// Print `unknown flag --name` for every unknown flag, then `usage`, to
  /// stderr. False when there was any: the tool should exit 1.
  bool check(std::string_view usage) const {
    for (const auto& name : unknown_) {
      std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
    }
    if (unknown_.empty()) return true;
    std::fprintf(stderr, "%.*s\n", static_cast<int>(usage.size()),
                 usage.data());
    return false;
  }

  bool has(const std::string& name) const { return named_.count(name) > 0; }

  std::string get(const std::string& name,
                  const std::string& fallback = "") const {
    auto it = named_.find(name);
    return it == named_.end() ? fallback : it->second;
  }

  u64 get_u64(const std::string& name, u64 fallback) const {
    auto it = named_.find(name);
    if (it == named_.end() || it->second.empty()) return fallback;
    u64 value = fallback;
    const auto& s = it->second;
    std::from_chars(s.data(), s.data() + s.size(), value);
    return value;
  }

  double get_double(const std::string& name, double fallback) const {
    auto it = named_.find(name);
    if (it == named_.end() || it->second.empty()) return fallback;
    try {
      return std::stod(it->second);
    } catch (...) {
      return fallback;
    }
  }

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> named_;
  std::vector<std::string> positional_;
  std::vector<std::string> unknown_;
};

}  // namespace zkt
