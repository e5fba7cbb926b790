// Seeded byte-level mutation of parser inputs, shared by the tests that
// feed mutants of real inputs to a parser of outside bytes. The
// contract those tests check: every mutant is accepted or rejected with
// a named DataError, and nothing trips a sanitizer.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/rng.hpp"

namespace mpa {

/// Bytes that carry structure in one dialect or the other.
inline constexpr std::string_view kStructural = "\n \t!{};/*\r";

/// One seeded mutation of `text`: a byte flip, a structural byte
/// written over a random one, a truncation, or a splice of a slice of
/// `donor` over a random range.
inline std::string mutate(std::string text, const std::string& donor, Rng& rng) {
  const auto pos = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n)));
  };
  if (text.empty()) return donor;
  switch (rng.uniform_int(0, 3)) {
    case 0:
      for (std::int64_t k = rng.uniform_int(1, 4); k > 0; --k)
        text[pos(text.size() - 1)] ^= static_cast<char>(rng.uniform_int(1, 255));
      break;
    case 1:
      for (std::int64_t k = rng.uniform_int(1, 4); k > 0; --k)
        text[pos(text.size() - 1)] = kStructural[pos(kStructural.size() - 1)];
      break;
    case 2:
      text.resize(pos(text.size()));
      break;
    default: {
      const std::size_t from = pos(donor.size());
      const std::string_view slice =
          std::string_view(donor).substr(from, pos(donor.size() - from));
      const std::size_t at = pos(text.size());
      text.replace(at, pos(text.size() - at), slice);
      break;
    }
  }
  return text;
}

}  // namespace mpa
