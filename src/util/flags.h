// Minimal command-line flag parsing for the example/CLI binaries.
//
// Supports --key=value, --key value, and bare --switch (true). Unknown
// flags are collected so the caller can reject typos; positional arguments
// are preserved in order.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace util {

class FlagParser {
 public:
  FlagParser(int argc, const char* const* argv);

  bool Has(const std::string& name) const;

  // Typed getters with defaults; throw CheckError when the stored value
  // cannot be parsed as the requested type.
  std::string GetString(const std::string& name,
                        const std::string& fallback) const;
  std::int64_t GetInt(const std::string& name, std::int64_t fallback) const;
  // Decimal digits only: no sign, no suffix, no wrap past 2^64 - 1.
  std::uint64_t GetUint64(const std::string& name,
                          std::uint64_t fallback) const;
  double GetDouble(const std::string& name, double fallback) const;
  bool GetBool(const std::string& name, bool fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

  // Flag names that were parsed, in no particular order (for validation).
  std::vector<std::string> Names() const;

  // Throws CheckError naming every parsed flag not in `known` — call once
  // after listing the flags a binary accepts, so typos fail loudly instead
  // of silently running with defaults.
  void RejectUnknown(const std::vector<std::string>& known) const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

// Parses `text` as GetUint64 does; `flag` names it in the error message.
// For list-valued flags (e.g. --seeds=1,2,3) whose items are split first.
std::uint64_t ParseUint64(const std::string& text, const std::string& flag);

}  // namespace util
