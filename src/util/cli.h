#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace mlck::util {

/// Tiny "--key=value" / "--key value" / "--flag" argument parser for the
/// experiment drivers and examples. A bare "--key" takes the following
/// token as its value unless that token is itself an option.
///
/// Unknown keys are collected and reported so a typo in a sweep parameter
/// fails loudly instead of silently running the default configuration.
class Cli {
 public:
  Cli(int argc, const char* const* argv);

  /// True if "--name" or "--name=..." was passed.
  bool has(const std::string& name) const;

  /// Value of "--name=value" if present.
  std::optional<std::string> value(const std::string& name) const;

  /// Typed getters with defaults.
  int get_int(const std::string& name, int fallback) const;
  double get_double(const std::string& name, double fallback) const;
  /// Full-range unsigned value (seeds). Throws std::out_of_range, naming
  /// the flag, when the value is not a decimal number that fits in 64
  /// bits — never wraps or truncates.
  std::uint64_t get_u64(const std::string& name,
                        std::uint64_t fallback) const;
  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Positional (non "--") arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// The original argv tokens, including argv[0], verbatim — for
  /// stamping provenance into artifact `meta` sections.
  const std::vector<std::string>& raw_args() const { return raw_; }

  /// Marks a key as recognized; unrecognized() lists the rest.
  std::vector<std::string> unrecognized() const;

 private:
  std::map<std::string, std::string> options_;
  mutable std::map<std::string, bool> seen_;
  std::vector<std::string> positional_;
  std::vector<std::string> raw_;
};

}  // namespace mlck::util
