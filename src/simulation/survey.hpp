// Operator-survey simulation (Figure 2).
//
// The paper surveyed 51 operators (45 NANOG, 4 campus, 2 OSP) on how
// much each of ten practices matters to network health, finding "clear
// consensus in just one case — number of change events" and broad
// disagreement elsewhere. The real responses are not published; this
// simulator draws from per-practice opinion distributions shaped to the
// published histogram so the Table-7-vs-Figure-2 comparison (causal
// findings vs operator beliefs) can be reproduced.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace mpa {

enum class Opinion : std::uint8_t { kNoImpact, kLow, kMedium, kHigh, kNotSure };

inline constexpr int kNumOpinions = 5;

std::string_view to_string(Opinion o);

/// Aggregated responses for one surveyed practice.
struct SurveyResult {
  std::string practice;
  std::array<int, kNumOpinions> counts{};  ///< Indexed by Opinion.

  int total() const;
  /// The modal opinion.
  Opinion consensus() const;
  /// True when one opinion holds a strict majority of responses —
  /// the paper's bar for "clear consensus".
  bool has_majority_consensus() const;
};

/// Draw `num_operators` responses per practice (paper: 51), one
/// result per practice shown in Figure 2, in figure order.
std::vector<SurveyResult> simulate_survey(int num_operators, Rng& rng);

}  // namespace mpa
