#include "util/flags.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/strings.h"

namespace meshnet::util {

Flags Flags::parse(int argc, const char* const* argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!starts_with(arg, "--")) {
      flags.positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    std::string name;
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string_view::npos) {
      name = std::string(arg.substr(0, eq));
      value = std::string(arg.substr(eq + 1));
    } else if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
      // "--name value" when the next token is not itself a flag.
      name = std::string(arg);
      value = argv[i + 1];
      ++i;
    } else {
      // Bare boolean "--name".
      name = std::string(arg);
      value = "true";
    }
    auto [it, inserted] = flags.values_.emplace(name, value);
    if (!inserted) {
      it->second = value;  // later duplicate wins, but is recorded
      if (std::find(flags.duplicates_.begin(), flags.duplicates_.end(),
                    name) == flags.duplicates_.end()) {
        flags.duplicates_.push_back(name);
      }
    }
  }
  return flags;
}

Flags Flags::parse_or_die(int argc, const char* const* argv,
                          const std::vector<std::string_view>& known,
                          const std::vector<std::string_view>& known_prefixes) {
  Flags flags = parse(argc, argv);
  const std::string error = flags.validate(known, known_prefixes);
  if (!error.empty()) {
    std::fprintf(stderr, "%s: %s\n", argc > 0 ? argv[0] : "flags",
                 error.c_str());
    std::string list;
    for (const std::string_view name : known) {
      list += list.empty() ? "--" : ", --";
      list += name;
    }
    std::fprintf(stderr, "known flags: %s\n", list.c_str());
    std::exit(2);
  }
  return flags;
}

bool Flags::has(std::string_view name) const {
  return values_.find(name) != values_.end();
}

std::optional<std::string> Flags::get(std::string_view name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Flags::get_or(std::string_view name,
                          std::string_view fallback) const {
  const auto v = get(name);
  return v ? *v : std::string(fallback);
}

namespace {

bool in_range(double value, NumberRange range) {
  return range == NumberRange::kPositive ? value > 0 : value >= 0;
}

[[noreturn]] void bad_number(std::string_view name, const std::string& value,
                             const char* kind, NumberRange range) {
  std::fprintf(stderr, "bad --%.*s entry '%s' (want a %s %s)\n",
               static_cast<int>(name.size()), name.data(), value.c_str(),
               range == NumberRange::kPositive ? "positive" : "non-negative",
               kind);
  std::exit(2);
}

}  // namespace

std::int64_t Flags::get_int_or(std::string_view name, std::int64_t fallback,
                               NumberRange range) const {
  const auto v = get(name);
  if (!v) return fallback;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(v->c_str(), &end, 10);
  if (end == v->c_str() || *end != '\0' || errno == ERANGE ||
      !in_range(static_cast<double>(parsed), range)) {
    bad_number(name, *v, "integer", range);
  }
  return parsed;
}

double Flags::get_double_or(std::string_view name, double fallback,
                            NumberRange range) const {
  const auto v = get(name);
  if (!v) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v->c_str(), &end);
  if (end == v->c_str() || *end != '\0' || !std::isfinite(parsed) ||
      !in_range(parsed, range)) {
    bad_number(name, *v, "number", range);
  }
  return parsed;
}

bool Flags::get_bool_or(std::string_view name, bool fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  return *v == "true" || *v == "1" || *v == "yes" || *v == "on";
}

std::vector<std::string> Flags::unknown(
    const std::vector<std::string_view>& known,
    const std::vector<std::string_view>& known_prefixes) const {
  std::vector<std::string> out;
  for (const auto& [name, value] : values_) {
    if (std::find(known.begin(), known.end(), name) != known.end()) continue;
    const bool prefixed = std::any_of(
        known_prefixes.begin(), known_prefixes.end(),
        [&name = name](std::string_view prefix) {
          return starts_with(name, prefix);
        });
    if (!prefixed) out.push_back(name);
  }
  return out;
}

std::string Flags::validate(
    const std::vector<std::string_view>& known,
    const std::vector<std::string_view>& known_prefixes) const {
  std::string error;
  for (const std::string& name : unknown(known, known_prefixes)) {
    if (!error.empty()) error += "; ";
    error += "unknown flag --" + name;
  }
  for (const std::string& name : duplicates_) {
    if (!error.empty()) error += "; ";
    error += "duplicate flag --" + name;
  }
  return error;
}

}  // namespace meshnet::util
