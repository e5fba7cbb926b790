// Seeded byte-level mutation of parser inputs, shared by the tests that
// feed mutants of real inputs to a parser of outside bytes. The
// contract those tests check: every mutant is accepted or rejected with
// a named DataError, and nothing trips a sanitizer.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "util/rng.hpp"

namespace mpa {

/// The seed of one fuzz loop. Without --gtest_shuffle it is `base`, so
/// tier-1 draws the same mutants every run. With it, gtest's random
/// seed is mixed in, so each --gtest_repeat iteration draws new ones,
/// and a failure replays with the --gtest_random_seed gtest printed.
/// (gtest seeds random_seed() from the clock even without shuffle,
/// hence the flag check; gtest before 1.12 has no GTEST_FLAG_GET.)
inline std::uint64_t fuzz_seed(std::uint64_t base) {
#ifdef GTEST_FLAG_GET
  if (!GTEST_FLAG_GET(shuffle)) return base;
#else
  if (!::testing::GTEST_FLAG(shuffle)) return base;
#endif
  const auto seed = static_cast<std::uint64_t>(testing::UnitTest::GetInstance()->random_seed());
  return base ^ (seed * 0x9e3779b97f4a7c15ULL);
}

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
