#include "util/cli.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

namespace mlck::util {

Cli::Cli(int argc, const char* const* argv) {
  raw_.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) raw_.emplace_back(argv[i]);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq == std::string_view::npos) {
        // "--key value": attach the next token as the value unless it is
        // itself an option, so "--cases 200" means "--cases=200".
        if (i + 1 < argc &&
            std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
          options_.emplace(std::string(arg.substr(2)), argv[++i]);
        } else {
          options_.emplace(std::string(arg.substr(2)), "");
        }
      } else {
        options_.emplace(std::string(arg.substr(2, eq - 2)),
                         std::string(arg.substr(eq + 1)));
      }
    } else {
      positional_.emplace_back(arg);
    }
  }
}

bool Cli::has(const std::string& name) const {
  seen_[name] = true;
  return options_.count(name) != 0;
}

std::optional<std::string> Cli::value(const std::string& name) const {
  seen_[name] = true;
  const auto it = options_.find(name);
  if (it == options_.end()) return std::nullopt;
  return it->second;
}

int Cli::get_int(const std::string& name, int fallback) const {
  const auto v = value(name);
  return v && !v->empty() ? std::atoi(v->c_str()) : fallback;
}

double Cli::get_double(const std::string& name, double fallback) const {
  const auto v = value(name);
  return v && !v->empty() ? std::atof(v->c_str()) : fallback;
}

std::uint64_t Cli::get_u64(const std::string& name,
                           std::uint64_t fallback) const {
  const auto v = value(name);
  if (!v) return fallback;
  const bool digits =
      !v->empty() && std::all_of(v->begin(), v->end(), [](unsigned char c) {
        return std::isdigit(c) != 0;
      });
  try {
    if (digits) return std::stoull(*v);
  } catch (const std::out_of_range&) {
  }
  throw std::out_of_range("--" + name + "=" + *v +
                          ": expected an unsigned 64-bit integer");
}

std::string Cli::get_string(const std::string& name,
                            const std::string& fallback) const {
  const auto v = value(name);
  return v ? *v : fallback;
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  const auto v = value(name);
  if (!v) return fallback;
  if (v->empty() || *v == "1" || *v == "true" || *v == "yes") return true;
  return false;
}

std::vector<std::string> Cli::unrecognized() const {
  std::vector<std::string> out;
  for (const auto& [key, _] : options_) {
    if (!seen_.count(key)) out.push_back(key);
  }
  return out;
}

}  // namespace mlck::util
