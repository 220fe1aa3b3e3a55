#pragma once

#include <climits>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace mlck::util {

/// One declared command-line option. Every command, driver and example
/// lists its options once, in a table that Cli checks argv against,
/// takes defaults from and prints as the synopsis.
struct Option {
  enum Kind {
    kFlag,          ///< "--name" alone; never takes a value
    kInt,           ///< decimal integer in [min, max]
    kNumber,        ///< finite decimal number
    kU64,           ///< unsigned 64-bit decimal integer (seeds)
    kText,          ///< non-empty string
    kPath,          ///< non-empty file path
    kOptionalPath,  ///< "--name" alone or "--name=path"
    kLaw,           ///< failure law, in the grammar @ref check enforces
  };
  std::string name;
  Kind kind = kFlag;
  std::string fallback = {};  ///< the default as typed; empty if none
  int min = 0, max = INT_MAX;
  std::string meta = {};  ///< synopsis placeholder overriding the kind's
  void (*check)(const std::string&) = nullptr;  ///< throws invalid_argument
};

/// A bad invocation; programs exit 2 on it.
class UsageError : public std::out_of_range {
 public:
  using std::out_of_range::out_of_range;
};

/// Command-line arguments, checked against a declared option table.
class Cli {
 public:
  /// Parses argv[first..] against @p table. Throws UsageError, naming
  /// the offending token, on an unknown or repeated flag, a positional
  /// argument, a flag given a value, or a missing, malformed or
  /// out-of-range value. A value option takes "--name=value" or
  /// "--name value"; a flag never takes the next token.
  Cli(int argc, const char* const* argv, std::vector<Option> table,
      int first = 1);

  /// The constructor above for a main(): on a UsageError it prints the
  /// error and the synopsis to stderr and exits 2.
  static Cli parse_or_exit(int argc, const char* const* argv,
                           std::vector<Option> table);

  /// "usage: <program> [--name=<default>] ...", wrapped to 78 columns.
  static std::string synopsis(const std::string& program,
                              const std::vector<Option>& table);

  /// Tableless parse of any "--key=value", "--key value" or "--flag".
  Cli(int argc, const char* const* argv);

  /// True if "--name" or "--name=..." was passed.
  bool has(const std::string& name) const;

  /// The value passed for --name, if it was passed.
  std::optional<std::string> value(const std::string& name) const;

  /// The value passed for --name, else its declared default. Reading an
  /// undeclared option throws std::logic_error.
  int get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  std::uint64_t get_u64(const std::string& name) const;
  std::string get_string(const std::string& name) const;

  /// Tableless getters with a caller's fallback; a malformed value
  /// throws UsageError.
  int get_int(const std::string& name, int fallback) const;
  double get_double(const std::string& name, double fallback) const;
  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Non-option arguments of a tableless parse, in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// The original argv tokens, including argv[0], verbatim — for
  /// stamping provenance into artifact `meta` sections.
  const std::vector<std::string>& raw_args() const { return raw_; }

  /// Keys of a tableless parse that no getter asked for.
  std::vector<std::string> unrecognized() const;

 private:
  void parse(std::size_t first);
  const Option* find(const std::string& name) const;
  std::string given_or_default(const std::string& name) const;

  std::vector<Option> table_;
  bool strict_ = false;
  std::map<std::string, std::string> options_;
  mutable std::map<std::string, bool> seen_;
  std::vector<std::string> positional_;
  std::vector<std::string> raw_;
};

}  // namespace mlck::util
