#include "util/flags.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "util/check.h"

namespace util {
namespace {

bool LooksLikeFlag(const std::string& arg) {
  return arg.size() > 2 && arg[0] == '-' && arg[1] == '-';
}

}  // namespace

FlagParser::FlagParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!LooksLikeFlag(arg)) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // "--key value" when the next token is not itself a flag; otherwise a
    // bare switch.
    if (i + 1 < argc && !LooksLikeFlag(argv[i + 1])) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

bool FlagParser::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t FlagParser::GetInt(const std::string& name,
                                std::int64_t fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) {
    return fallback;
  }
  char* end = nullptr;
  const std::int64_t value = std::strtoll(it->second.c_str(), &end, 10);
  AF_CHECK(end != nullptr && *end == '\0' && !it->second.empty())
      << "flag --" << name << " is not an integer: " << it->second;
  return value;
}

std::uint64_t FlagParser::GetUint64(const std::string& name,
                                   std::uint64_t fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : ParseUint64(it->second, name);
}

double FlagParser::GetDouble(const std::string& name, double fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) {
    return fallback;
  }
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  AF_CHECK(end != nullptr && *end == '\0' && !it->second.empty())
      << "flag --" << name << " is not a number: " << it->second;
  return value;
}

bool FlagParser::GetBool(const std::string& name, bool fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) {
    return fallback;
  }
  std::string lower = it->second;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "true" || lower == "1" || lower == "yes" || lower == "on") {
    return true;
  }
  if (lower == "false" || lower == "0" || lower == "no" || lower == "off") {
    return false;
  }
  AF_CHECK(false) << "flag --" << name << " is not a boolean: " << it->second;
  return fallback;
}

std::vector<std::string> FlagParser::Names() const {
  std::vector<std::string> names;
  names.reserve(values_.size());
  for (const auto& [name, value] : values_) {
    names.push_back(name);
  }
  return names;
}

void FlagParser::RejectUnknown(const std::vector<std::string>& known) const {
  std::string unknown;
  for (const auto& [name, value] : values_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      if (!unknown.empty()) {
        unknown += ", ";
      }
      unknown += "--" + name;
    }
  }
  AF_CHECK(unknown.empty()) << "unknown flag(s): " << unknown;
}

std::uint64_t ParseUint64(const std::string& text, const std::string& flag) {
  const bool digits =
      !text.empty() && std::all_of(text.begin(), text.end(), [](char c) {
        return std::isdigit(static_cast<unsigned char>(c)) != 0;
      });
  AF_CHECK(digits) << "flag --" << flag
                   << " is not a non-negative integer: " << text;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), nullptr, 10);
  AF_CHECK(errno != ERANGE) << "flag --" << flag << " is out of range: "
                            << text;
  return static_cast<std::uint64_t>(value);
}

}  // namespace util
