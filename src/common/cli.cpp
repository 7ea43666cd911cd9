#include "common/cli.h"

#include <charconv>
#include <cmath>

namespace bluedove {

namespace {

/// Parses the whole of `text` into `v`; false for empty text, a value out
/// of T's range, or anything left over.
template <typename T>
bool parse_whole(std::string_view text, T& v) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  return !text.empty() && ec == std::errc{} && ptr == end;
}

}  // namespace

std::optional<std::uint64_t> parse_uint(std::string_view text,
                                        std::uint64_t lo, std::uint64_t hi) {
  std::uint64_t v = 0;
  if (!parse_whole(text, v) || v < lo || v > hi) return std::nullopt;
  return v;
}

CliArgs CliArgs::parse(int argc, const char* const* argv) {
  CliArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      args.positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      args.values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args.values_[body] = argv[++i];
    } else {
      args.values_[body] = "true";
    }
  }
  return args;
}

std::string CliArgs::get(const std::string& key,
                         const std::string& fallback) const {
  consumed_[key] = true;
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t CliArgs::get_int(const std::string& key,
                              std::int64_t fallback) const {
  consumed_[key] = true;
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::int64_t v = 0;
  if (!parse_whole(it->second, v)) {
    malformed_.insert(key);
    return fallback;
  }
  return v;
}

std::optional<std::uint64_t> CliArgs::get_uint(const std::string& key,
                                               std::uint64_t fallback,
                                               std::uint64_t lo,
                                               std::uint64_t hi) const {
  consumed_[key] = true;
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return parse_uint(it->second, lo, hi);
}

double CliArgs::get_double(const std::string& key, double fallback) const {
  consumed_[key] = true;
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  double v = 0.0;
  if (!parse_whole(it->second, v) || !std::isfinite(v)) {
    malformed_.insert(key);
    return fallback;
  }
  return v;
}

bool CliArgs::get_bool(const std::string& key, bool fallback) const {
  consumed_[key] = true;
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return it->second != "false" && it->second != "0" && it->second != "no";
}

std::vector<std::string> CliArgs::unconsumed() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_) {
    if (!consumed_.count(key)) out.push_back(key);
  }
  return out;
}

}  // namespace bluedove
