#pragma once

// Tiny command-line flag parser used by the examples and bench binaries.
//
// Supports "--name=value", "--name value", and boolean "--name". Splitting
// argv never fails, but problems are *recorded* instead of silently
// ignored: duplicate occurrences land in duplicates(), and
// validate()/parse_or_die() reject flags outside a binary's declared set —
// a typo like `--thread=8` must abort the run, not silently sweep with
// defaults. The numeric readers fail loudly too: a value that does not
// parse in full, or lies outside the reader's range, ends the process
// with exit code 2 (`--duration=1O` must not run the default 15 s).
// Binaries that embed other flag-parsing libraries (google-benchmark)
// whitelist those by prefix.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace meshnet::util {

/// The values a numeric flag admits.
enum class NumberRange {
  kNonNegative,  ///< >= 0: seeds, tolerances
  kPositive,     ///< > 0: rates, counts
};

class Flags {
 public:
  /// Parses argv (excluding argv[0]). Later duplicates override earlier
  /// ones; every duplicated name is also recorded in duplicates().
  static Flags parse(int argc, const char* const* argv);

  /// parse() + validate(); on any error prints the message and the known
  /// flag list to stderr and exits with status 2.
  static Flags parse_or_die(int argc, const char* const* argv,
                            const std::vector<std::string_view>& known,
                            const std::vector<std::string_view>&
                                known_prefixes = {});

  bool has(std::string_view name) const;

  /// Returns the raw string value, or nullopt when absent.
  std::optional<std::string> get(std::string_view name) const;

  std::string get_or(std::string_view name, std::string_view fallback) const;
  /// `fallback` when the flag is absent. A malformed or out-of-range value
  /// prints "bad --NAME entry 'VALUE' (...)" to stderr and exits with
  /// status 2. Doubles must also be finite.
  std::int64_t get_int_or(std::string_view name, std::int64_t fallback,
                          NumberRange range) const;
  double get_double_or(std::string_view name, double fallback,
                       NumberRange range) const;
  bool get_bool_or(std::string_view name, bool fallback) const;

  /// Positional (non-flag) arguments in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Flag names that appeared more than once, in first-repeat order.
  const std::vector<std::string>& duplicates() const { return duplicates_; }

  /// Parsed flags not in `known` and not matching any of `known_prefixes`.
  std::vector<std::string> unknown(
      const std::vector<std::string_view>& known,
      const std::vector<std::string_view>& known_prefixes = {}) const;

  /// Human-readable description of every problem (unknown flags given the
  /// declared set, plus duplicates). Empty string when the command line is
  /// clean.
  std::string validate(const std::vector<std::string_view>& known,
                       const std::vector<std::string_view>& known_prefixes =
                           {}) const;

 private:
  std::map<std::string, std::string, std::less<>> values_;
  std::vector<std::string> positional_;
  std::vector<std::string> duplicates_;
};

}  // namespace meshnet::util
