#pragma once
// Minimal --key=value / --flag command-line parser for the tools and the
// experiment CLI. No external dependencies; unknown keys, and keys whose
// values are not the numbers asked for, are collected so callers can
// reject typos.

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace bluedove {

/// The whole of `text` as a decimal integer in [lo, hi]; nullopt for an
/// empty string, a sign, any other character, or a value out of range.
std::optional<std::uint64_t> parse_uint(std::string_view text,
                                        std::uint64_t lo, std::uint64_t hi);

class CliArgs {
 public:
  /// Parses argv. Accepts "--key=value", "--key value" and bare "--flag"
  /// (value "true"); everything not starting with "--" becomes a
  /// positional argument.
  static CliArgs parse(int argc, const char* const* argv);

  bool has(const std::string& key) const { return values_.count(key) != 0; }

  std::string get(const std::string& key,
                  const std::string& fallback = "") const;
  /// The value as a whole decimal integer, or `fallback` when the key is
  /// absent. A value that is not one in full ("abc", "12x", "1e6", a bare
  /// flag) also yields `fallback`, and its key is listed by malformed().
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  /// The value as a whole decimal integer in [lo, hi] (parse_uint), or
  /// `fallback` when the key is absent; nullopt when present but not one.
  std::optional<std::uint64_t> get_uint(const std::string& key,
                                        std::uint64_t fallback,
                                        std::uint64_t lo,
                                        std::uint64_t hi) const;
  /// The value as a whole finite decimal number ("2.5", "-1e-3"), or
  /// `fallback`; malformed values are listed as for get_int.
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback = false) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Keys the caller never consumed (call after all get()s to reject typos).
  std::vector<std::string> unconsumed() const;
  /// Keys whose values get_int or get_double could not parse, in order.
  std::vector<std::string> malformed() const {
    return {malformed_.begin(), malformed_.end()};
  }

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> consumed_;
  mutable std::set<std::string> malformed_;
  std::vector<std::string> positional_;
};

}  // namespace bluedove
