// Strict number parsing for command-line options and protocol tokens.
#pragma once

#include <charconv>
#include <cmath>
#include <string_view>
#include <system_error>

namespace bosphorus {

/// Parse all of `s` as a base-10 integer of type T. Rejects the empty
/// string, trailing characters, a value T cannot hold and, for an
/// unsigned T, any sign. `out` is written only on success.
template <class T>
bool parse_integer(std::string_view s, T& out) {
    T v{};
    const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec != std::errc() || p != s.data() + s.size()) return false;
    out = v;
    return true;
}

/// Parse all of `s` as a duration in seconds: a finite decimal value
/// >= 0. Rejects the empty string, trailing characters, a '+' sign, a
/// negative value, hex, "inf", "nan" and values a double cannot hold.
/// `out` is written only on success.
inline bool parse_seconds(std::string_view s, double& out) {
    double v = 0.0;
    const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v,
                                         std::chars_format::general);
    if (ec != std::errc() || p != s.data() + s.size()) return false;
    if (!std::isfinite(v) || v < 0.0) return false;
    out = v;
    return true;
}

}  // namespace bosphorus
