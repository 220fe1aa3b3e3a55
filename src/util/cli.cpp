#include "util/cli.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>

namespace mlck::util {

namespace {

/// All of @p v as a T, or a UsageError saying what was @p expected.
template <typename T>
T parse_whole(const std::string& name, const std::string& v,
              const std::string& expected) {
  T out{};
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (v.empty() || ec != std::errc() || end != v.data() + v.size()) {
    throw UsageError("--" + name + "=" + v + ": expected " + expected);
  }
  return out;
}

int to_int(const std::string& name, const std::string& v, int min = INT_MIN,
           int max = INT_MAX) {
  std::string expected = "an integer";
  if (min != INT_MIN) expected += " >= " + std::to_string(min);
  if (max != INT_MAX) {
    expected = "an integer in [" + std::to_string(min) + ", " +
               std::to_string(max) + "]";
  }
  const auto wide = parse_whole<long long>(name, v, expected);
  if (wide < min || wide > max) {
    throw UsageError("--" + name + "=" + v + ": expected " + expected);
  }
  return static_cast<int>(wide);
}

double to_double(const std::string& name, const std::string& v) {
  char* end = nullptr;
  const double out = std::strtod(v.c_str(), &end);
  if (v.empty() || std::isspace(static_cast<unsigned char>(v[0])) ||
      end != v.c_str() + v.size() || !std::isfinite(out)) {
    throw UsageError("--" + name + "=" + v + ": expected a number");
  }
  return out;
}

std::uint64_t to_u64(const std::string& name, const std::string& v) {
  return parse_whole<std::uint64_t>(name, v, "an unsigned 64-bit integer");
}

/// Throws UsageError unless @p v is a valid value for @p o.
void check_value(const Option& o, const std::string& v) {
  if (v.empty()) {
    const bool path =
        o.kind == Option::kPath || o.kind == Option::kOptionalPath;
    throw UsageError("--" + o.name + " requires a " +
                     (path ? "file path" : "value"));
  }
  if (o.kind == Option::kInt) to_int(o.name, v, o.min, o.max);
  if (o.kind == Option::kNumber) to_double(o.name, v);
  if (o.kind == Option::kU64) to_u64(o.name, v);
  try {
    if (o.check != nullptr) o.check(v);
  } catch (const std::invalid_argument& e) {
    throw UsageError("--" + o.name + "=" + v + ": " + e.what());
  }
}

}  // namespace

Cli::Cli(int argc, const char* const* argv, std::vector<Option> table,
         int first)
    : table_(std::move(table)), strict_(true), raw_(argv, argv + argc) {
  parse(static_cast<std::size_t>(first));
}

Cli::Cli(int argc, const char* const* argv) : raw_(argv, argv + argc) {
  parse(1);
}

void Cli::parse(std::size_t first) {
  for (std::size_t i = first; i < raw_.size(); ++i) {
    const std::string& arg = raw_[i];
    if (arg.rfind("--", 0) != 0) {
      if (strict_) throw UsageError(arg + ": unexpected argument");
      positional_.push_back(arg);
      continue;
    }
    const auto eq = arg.find('=');
    const bool inline_value = eq != std::string::npos;
    const std::string name = arg.substr(2, inline_value ? eq - 2 : eq);
    const Option* o = find(name);
    if (strict_ && o == nullptr) {
      throw UsageError("--" + name + ": unknown option");
    }
    if (strict_ && options_.count(name) != 0) {
      throw UsageError("--" + name + " given more than once");
    }
    // "--key value" takes the next token unless it is itself an option or
    // the key is a flag, so "--cases 200" means "--cases=200".
    const bool bare = o != nullptr && (o->kind == Option::kFlag ||
                                       o->kind == Option::kOptionalPath);
    std::string value;
    if (inline_value) {
      if (o != nullptr && o->kind == Option::kFlag) {
        throw UsageError("--" + name + " is a flag and takes no value");
      }
      value = arg.substr(eq + 1);
    } else if (!bare && i + 1 < raw_.size() &&
               raw_[i + 1].rfind("--", 0) != 0) {
      value = raw_[++i];
    }
    if (o != nullptr && (inline_value || !bare)) check_value(*o, value);
    options_.emplace(name, value);
  }
}

Cli Cli::parse_or_exit(int argc, const char* const* argv,
                       std::vector<Option> table) {
  try {
    return Cli(argc, argv, table);
  } catch (const UsageError& e) {
    const std::string program = argc > 0 ? argv[0] : "";
    std::cerr << "error: " << e.what() << "\n"
              << synopsis(program.substr(program.rfind('/') + 1), table);
    std::exit(2);
  }
}

std::string Cli::synopsis(const std::string& program,
                          const std::vector<Option>& table) {
  static const char* const kMeta[] = {"",     "n",    "x",    "u64",
                                      "text", "path", "path", "law"};
  std::string out = "usage: " + program;
  const std::string indent(out.size(), ' ');
  std::size_t line_start = 0;
  for (const Option& o : table) {
    const std::string meta = o.meta.empty() ? kMeta[o.kind] : o.meta;
    std::string item = "[--" + o.name;
    if (o.kind == Option::kOptionalPath) item += "[=<" + meta + ">]";
    if (o.kind != Option::kFlag && o.kind != Option::kOptionalPath) {
      item += "=" + (o.fallback.empty() ? "<" + meta + ">" : o.fallback);
    }
    if (out.size() - line_start + item.size() + 2 > 78) {
      line_start = out.size() + 1;
      out += "\n" + indent;
    }
    out += " " + item + "]";
  }
  return out + "\n";
}

const Option* Cli::find(const std::string& name) const {
  const auto o = std::find_if(table_.begin(), table_.end(),
                              [&](const Option& d) { return d.name == name; });
  return o == table_.end() ? nullptr : &*o;
}

std::string Cli::given_or_default(const std::string& name) const {
  if (const auto v = value(name)) return *v;
  const Option* o = find(name);
  return o != nullptr ? o->fallback : std::string();
}

bool Cli::has(const std::string& name) const {
  return value(name).has_value();
}

std::optional<std::string> Cli::value(const std::string& name) const {
  if (strict_ && find(name) == nullptr) {
    throw std::logic_error("--" + name + " is not a declared option");
  }
  seen_[name] = true;
  const auto it = options_.find(name);
  if (it == options_.end()) return std::nullopt;
  return it->second;
}

int Cli::get_int(const std::string& name) const {
  return to_int(name, given_or_default(name));
}

double Cli::get_double(const std::string& name) const {
  return to_double(name, given_or_default(name));
}

std::uint64_t Cli::get_u64(const std::string& name) const {
  return to_u64(name, given_or_default(name));
}

std::string Cli::get_string(const std::string& name) const {
  return given_or_default(name);
}

int Cli::get_int(const std::string& name, int fallback) const {
  const auto v = value(name);
  return v && !v->empty() ? to_int(name, *v) : fallback;
}

double Cli::get_double(const std::string& name, double fallback) const {
  const auto v = value(name);
  return v && !v->empty() ? to_double(name, *v) : fallback;
}

std::string Cli::get_string(const std::string& name,
                            const std::string& fallback) const {
  return value(name).value_or(fallback);
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  const auto v = value(name);
  if (!v) return fallback;
  return v->empty() || *v == "1" || *v == "true" || *v == "yes";
}

std::vector<std::string> Cli::unrecognized() const {
  std::vector<std::string> out;
  for (const auto& [key, _] : options_) {
    if (!seen_.count(key)) out.push_back(key);
  }
  return out;
}

}  // namespace mlck::util
