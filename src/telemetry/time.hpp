// Time conventions for the MPA datasets.
//
// Timestamps are minutes since the start of the observation window
// (the paper's window is Aug 2013 - Dec 2014, 17 months). For monthly
// aggregation we use fixed 30-day months; the analyses only ever
// compare within this synthetic calendar, so uniform months are a
// harmless simplification.
#pragma once

#include <cstdint>

namespace mpa {

/// Minutes since the start of the observation window.
using Timestamp = std::int64_t;

inline constexpr Timestamp kMinutesPerHour = 60;
inline constexpr Timestamp kMinutesPerDay = 24 * kMinutesPerHour;
inline constexpr Timestamp kMinutesPerMonth = 30 * kMinutesPerDay;

/// Months a dataset may span: a loader rejects any snapshot or ticket
/// time outside [0, month_start(kMaxMonths)), a century of 30-day
/// months, so month indices and counts derived from loaded data stay
/// small ints.
inline constexpr int kMaxMonths = 1200;

/// Month index (0-based) containing `t`. Negative times map to month 0.
inline int month_of(Timestamp t) {
  return t < 0 ? 0 : static_cast<int>(t / kMinutesPerMonth);
}

/// First minute of month `m`.
inline Timestamp month_start(int m) {
  return static_cast<Timestamp>(m) * kMinutesPerMonth;
}

}  // namespace mpa
