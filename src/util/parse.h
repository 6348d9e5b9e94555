// Strict integer parsing for command-line options and protocol tokens.
#pragma once

#include <charconv>
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

}  // namespace bosphorus
