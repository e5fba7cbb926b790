#include "simulation/survey.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace mpa {
namespace {

struct QuestionProfile {
  const char* practice;
  // Relative weights for {No, Low, Medium, High, NotSure}, shaped to
  // Figure 2's bars.
  std::array<double, kNumOpinions> weights;
};

// Only "No. of change events" has a majority-High profile; the others
// split Low vs High roughly evenly (the paper's "diversity of
// opinion"), and several carry a visible Not-Sure remainder.
constexpr QuestionProfile kProfiles[] = {
    {"No. of devices", {4, 16, 14, 12, 5}},
    {"No. of models", {3, 15, 13, 15, 5}},
    {"No. of firmware versions", {3, 13, 15, 16, 4}},
    {"No. of protocols", {2, 12, 16, 17, 4}},
    {"Inter-device complexity", {2, 14, 12, 16, 7}},
    {"No. of change events", {1, 4, 12, 30, 4}},
    {"Avg. devices changed/event", {3, 13, 15, 14, 6}},
    {"Frac. events w/ mbox change", {2, 10, 14, 20, 5}},
    {"Frac. events automated", {4, 12, 14, 16, 5}},
    {"Frac. events w/ router change", {2, 11, 16, 17, 5}},
    {"Frac. events w/ ACL change", {5, 18, 12, 11, 5}},
};

}  // namespace

std::string_view to_string(Opinion o) {
  switch (o) {
    case Opinion::kNoImpact: return "no impact";
    case Opinion::kLow: return "low";
    case Opinion::kMedium: return "medium";
    case Opinion::kHigh: return "high";
    case Opinion::kNotSure: return "not sure";
  }
  return "unknown";
}

int SurveyResult::total() const {
  int t = 0;
  for (int c : counts) t += c;
  return t;
}

Opinion SurveyResult::consensus() const {
  return static_cast<Opinion>(std::max_element(counts.begin(), counts.end()) - counts.begin());
}

bool SurveyResult::has_majority_consensus() const {
  const int t = total();
  for (int c : counts)
    if (2 * c > t) return true;
  return false;
}

std::vector<SurveyResult> simulate_survey(int num_operators, Rng& rng) {
  require(num_operators >= 1, "simulate_survey: need at least one operator");
  std::vector<SurveyResult> out;
  for (const auto& q : kProfiles) {
    SurveyResult r;
    r.practice = q.practice;
    const std::vector<double> w(q.weights.begin(), q.weights.end());
    for (int i = 0; i < num_operators; ++i) r.counts[rng.weighted_index(w)]++;
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace mpa
