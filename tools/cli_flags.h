#ifndef DCS_TOOLS_CLI_FLAGS_H_
#define DCS_TOOLS_CLI_FLAGS_H_

// The strict --name value / --switch parser of the command-line tools.

#include <charconv>
#include <cstdint>
#include <cstring>
#include <map>
#include <span>
#include <string>

#include "common/status.h"

namespace dcs {

/// What a known flag takes: nothing, any value, or a base-10 integer.
enum class FlagKind { kSwitch, kString, kInt };

struct FlagSpec {
  const char* name;  ///< Without the leading "--".
  FlagKind kind;
};

class Flags {
 public:
  /// Reads argv[first, argc) against the flags a command knows. Returns
  /// InvalidArgument for a positional argument, an unknown name, a switch
  /// followed by a value, a valued flag with no value, and an integer flag
  /// whose value is not a whole base-10 int64.
  Status Parse(int argc, char** argv, int first,
               std::span<const FlagSpec> known) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        return Status::InvalidArgument("unexpected argument: " + arg);
      }
      arg = arg.substr(2);
      const FlagSpec* spec = nullptr;
      for (const FlagSpec& candidate : known) {
        if (arg == candidate.name) spec = &candidate;
      }
      if (spec == nullptr) {
        return Status::InvalidArgument("unknown flag: --" + arg);
      }
      if (spec->kind == FlagKind::kSwitch) {
        values_[arg] = "";
        continue;
      }
      if (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
        return Status::InvalidArgument("--" + arg + " needs a value");
      }
      const std::string value = argv[++i];
      if (spec->kind == FlagKind::kInt) {
        std::int64_t parsed = 0;
        const char* end = value.data() + value.size();
        const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
        if (value.empty() || ec != std::errc() || ptr != end) {
          return Status::InvalidArgument("--" + arg +
                                         " needs an integer, got '" + value +
                                         "'");
        }
      }
      values_[arg] = value;
    }
    return Status::Ok();
  }

  bool Has(const std::string& name) const { return values_.contains(name); }

  std::string Get(const std::string& name, const std::string& fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }

  /// The flag's value; Parse checked that it is an integer.
  std::int64_t GetInt(const std::string& name, std::int64_t fallback) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    std::int64_t value = 0;
    const std::string& text = it->second;
    std::from_chars(text.data(), text.data() + text.size(), value);
    return value;
  }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace dcs

#endif  // DCS_TOOLS_CLI_FLAGS_H_
