#include "util/cli.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace sdlc {

namespace {

[[noreturn]] void malformed(std::string_view name, std::string_view what, std::string_view text) {
    throw UsageError(std::string(name) + " expects " + std::string(what) + ", got \"" +
                     std::string(text) + "\"");
}

}  // namespace

int parse_int(std::string_view name, std::string_view text, int lo, int hi) {
    long long n = 0;
    const char* end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, n);
    if (ec != std::errc() || stop != end) malformed(name, "an integer", text);
    if (n < lo || n > hi) {
        throw UsageError(std::string(name) + " must be in [" + std::to_string(lo) + ", " +
                         std::to_string(hi) + "], got " + std::string(text));
    }
    return static_cast<int>(n);
}

CommandLine::CommandLine(int argc, const char* const* argv,
                         std::initializer_list<std::string_view> options,
                         std::initializer_list<std::string_view> flags, int first) {
    const auto declared = [](std::initializer_list<std::string_view> names, std::string_view key) {
        return std::find(names.begin(), names.end(), key) != names.end();
    };
    for (int i = first; i < argc; ++i) {
        const std::string key = argv[i];
        if (key == "--help" || key == "-h") {
            help_ = true;
            return;
        }
        if (declared(flags, key)) {
            flags_.insert(key);
        } else if (!declared(options, key)) {
            throw UsageError("unknown option " + key);
        } else if (i + 1 >= argc) {
            throw UsageError("missing value for " + key);
        } else {
            values_[key] = argv[++i];
        }
    }
}

bool CommandLine::has(std::string_view key) const {
    return find(key) != nullptr || flags_.find(key) != flags_.end();
}

std::string CommandLine::get(std::string_view key, std::string_view dflt) const {
    const std::string* v = find(key);
    return v != nullptr ? *v : std::string(dflt);
}

int CommandLine::get_int(std::string_view key, int dflt, int lo, int hi) const {
    const std::string* v = find(key);
    return v != nullptr ? parse_int(key, *v, lo, hi) : dflt;
}

uint64_t CommandLine::get_uint64(std::string_view key, uint64_t dflt) const {
    const std::string* v = find(key);
    if (v == nullptr) return dflt;
    // strtoull alone would also take leading whitespace and a sign (and
    // negate "-1" into 2^64 - 1): the value must start with a digit.
    errno = 0;
    char* end = nullptr;
    const unsigned long long n = std::strtoull(v->c_str(), &end, 0);
    if (v->empty() || (*v)[0] < '0' || (*v)[0] > '9' || errno != 0 ||
        end != v->c_str() + v->size()) {
        malformed(key, "an unsigned 64-bit integer (decimal, 0x hex or 0 octal)", *v);
    }
    return static_cast<uint64_t>(n);
}

double CommandLine::get_double(std::string_view key, double dflt, double lo) const {
    const std::string* v = find(key);
    if (v == nullptr) return dflt;
    double x = 0.0;
    const char* end = v->data() + v->size();
    const auto [stop, ec] = std::from_chars(v->data(), end, x);
    if (ec != std::errc() || stop != end || !std::isfinite(x)) {
        malformed(key, "a finite number", *v);
    }
    if (x < lo) {
        char bound[32];
        std::snprintf(bound, sizeof bound, "%g", lo);
        throw UsageError(std::string(key) + " must be >= " + bound + ", got " + *v);
    }
    return x;
}

std::vector<std::string> CommandLine::get_list(std::string_view key) const {
    std::vector<std::string> items;
    const std::string* v = find(key);
    if (v == nullptr) return items;
    for (size_t start = 0; start <= v->size();) {
        const size_t comma = std::min(v->find(',', start), v->size());
        if (comma > start) items.push_back(v->substr(start, comma - start));
        start = comma + 1;
    }
    return items;
}

const std::string* CommandLine::find(std::string_view key) const {
    const auto it = values_.find(key);
    return it != values_.end() ? &it->second : nullptr;
}

}  // namespace sdlc
