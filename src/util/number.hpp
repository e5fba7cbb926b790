// The number rule (DESIGN.md §14) for every number that arrives as
// outside bytes. A text token is read whole: an integer T is decimal
// digits, with a '-' only for a signed T, and a value within T; a
// double is finite. Whitespace, '+', hex, trailing bytes and, for an
// integer, a fraction or an exponent are rejected. srclint's
// `number-parse` rule keeps every other module off the parsers.
#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace mpa {

/// `token` read whole as a T, or nullopt. `*trailing`, when given, is
/// true when the token failed only for bytes after a valid number, a
/// case the dataset loaders name apart.
template <typename T>
std::optional<T> parse_whole(std::string_view token, bool* trailing = nullptr) {
  T v{};
  const char* end = token.data() + token.size();
  const auto [stop, ec] = std::from_chars(token.data(), end, v);
  if (trailing != nullptr) *trailing = ec == std::errc() && stop != end;
  if (ec != std::errc() || stop != end) return std::nullopt;
  if constexpr (std::floating_point<T>)
    if (!std::isfinite(v)) return std::nullopt;
  return v;
}

/// `v * scale` rounded to the nearest T (µs -> ns, ms -> ns), or
/// nullopt when it does not fit: the check comes before the
/// conversion, which is undefined outside T. Both bounds are powers of
/// two, exact as doubles.
template <std::integral T>
std::optional<T> scaled(double v, double scale) {
  const double r = std::round(v * scale);
  if (!(r >= static_cast<double>(std::numeric_limits<T>::min()) &&
        r < std::ldexp(1.0, std::numeric_limits<T>::digits)))
    return std::nullopt;
  return static_cast<T>(r);
}

/// `v * factor` when the product fits T, else nullopt (no wrap).
template <std::integral T>
std::optional<T> scaled(T v, T factor) {
  T out{};
  return __builtin_mul_overflow(v, factor, &out) ? std::nullopt : std::optional<T>(out);
}

/// T's range as "[min, max]", for error messages.
template <std::integral T>
std::string range_text() {
  std::string out(1, '[');
  out += std::to_string(std::numeric_limits<T>::min()) + ", ";
  return out += std::to_string(std::numeric_limits<T>::max()) + "]";
}

/// The environment variable `name` as a positive count; nullopt when it
/// is unset, breaks the rule or is below 1, so such a value counts as
/// unset.
inline std::optional<int> env_count(const char* name) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read at startup, before any worker exists
  const char* v = std::getenv(name);
  const std::optional<int> n = v == nullptr ? std::nullopt : parse_whole<int>(v);
  return n > 0 ? n : std::nullopt;
}

}  // namespace mpa
