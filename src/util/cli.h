// Strict command-line parsing shared by every binary (dse_tool, serve_tool,
// sdlc and the benches).
//
// A binary declares the options that take a value and the flags that take
// none. Any other argument, or an option with no value, is a usage error,
// and so is a value that does not parse whole and in range when the binary
// reads it. A usage error throws UsageError; every tool turns it into its
// usage text and exit status 2. A malformed or misspelt flag therefore
// never runs a different sweep than the one asked for.
#ifndef SDLC_UTIL_CLI_H
#define SDLC_UTIL_CLI_H

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace sdlc {

/// A command line that does not parse: an unknown option, a missing value,
/// or a value that is malformed or out of range.
class UsageError : public std::invalid_argument {
public:
    using std::invalid_argument::invalid_argument;
};

/// `text` as a whole decimal integer in [lo, hi]: an optional '-', no '+',
/// no whitespace. Throws UsageError naming `name` otherwise.
[[nodiscard]] int parse_int(std::string_view name, std::string_view text, int lo, int hi);

/// Parsed `--option value` pairs and `--flag`s of one command line. The
/// getters parse a value only when asked for it and return the default
/// when the option was not given.
class CommandLine {
public:
    /// Parses argv[first..argc). A repeated option keeps its last value.
    /// "--help" or "-h" sets help() and ends parsing.
    /// Throws UsageError on an undeclared argument or a missing value.
    CommandLine(int argc, const char* const* argv,
                std::initializer_list<std::string_view> options,
                std::initializer_list<std::string_view> flags = {}, int first = 1);

    [[nodiscard]] bool help() const noexcept { return help_; }

    /// True when the option was given, with any value, or the flag was set.
    [[nodiscard]] bool has(std::string_view key) const;

    /// The option's value as given.
    [[nodiscard]] std::string get(std::string_view key, std::string_view dflt = {}) const;

    /// The option's value by parse_int.
    [[nodiscard]] int get_int(std::string_view key, int dflt,
                              int lo = std::numeric_limits<int>::min(),
                              int hi = std::numeric_limits<int>::max()) const;

    /// The option's value as strtoull(base 0) reads it: decimal up to
    /// 2^64 - 1, "0x" hex or leading-zero octal. The value must start with
    /// a digit, parse whole and not overflow.
    [[nodiscard]] uint64_t get_uint64(std::string_view key, uint64_t dflt) const;

    /// The option's value as a whole, finite number >= lo.
    [[nodiscard]] double get_double(std::string_view key, double dflt,
                                    double lo = -std::numeric_limits<double>::infinity()) const;

    /// The option's value split at commas, empty items skipped; no items
    /// when the option was not given.
    [[nodiscard]] std::vector<std::string> get_list(std::string_view key) const;

private:
    /// The option's value, or nullptr when it was not given.
    [[nodiscard]] const std::string* find(std::string_view key) const;

    std::map<std::string, std::string, std::less<>> values_;
    std::set<std::string, std::less<>> flags_;
    bool help_ = false;
};

}  // namespace sdlc

#endif  // SDLC_UTIL_CLI_H
