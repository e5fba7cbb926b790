// The management-practice metric catalogue (Table 1).
//
// Design practices (D1-D6) are long-term structural decisions inferred
// from inventory + configuration state; operational practices (O1-O4)
// are inferred from configuration-change streams. The paper analyzes
// 28 metrics; our inference produces the 31 below (a couple of the
// per-type change fractions are kept separate rather than folded).
#pragma once

#include <array>
#include <vector>
#include <cstdint>
#include <string_view>

namespace mpa {

enum class Practice : std::uint8_t {
  // --- Design practices -------------------------------------------------
  kNumWorkloads,          // D1: services / users / networks connected
  kNumDevices,            // D2
  kNumVendors,            // D2
  kNumModels,             // D2
  kNumRoles,              // D2
  kNumFirmwareVersions,   // D2
  kHardwareEntropy,       // D3: normalized model-x-role entropy
  kFirmwareEntropy,       // D3
  kNumL2Protocols,        // D4
  kNumL3Protocols,        // D5
  kNumProtocols,          // D4+D5 combined (Figure 11(b) "Both")
  kNumVlans,              // D4 instance count
  kNumBgpInstances,       // D5
  kNumOspfInstances,      // D5
  kAvgBgpInstanceSize,    // D5
  kAvgOspfInstanceSize,   // D5
  kIntraDeviceComplexity, // D6
  kInterDeviceComplexity, // D6
  // --- Operational practices --------------------------------------------
  kNumConfigChanges,      // O1
  kNumDevicesChanged,     // O1
  kFracDevicesChanged,    // O1
  kFracChangesAutomated,  // O2
  kNumChangeTypes,        // O3
  kNumChangeEvents,       // O4
  kAvgDevicesPerEvent,    // O4
  kFracEventsInterface,   // O3 (per-type modality)
  kFracEventsAcl,         // O3
  kFracEventsRouter,      // O3
  kFracEventsVlan,        // O3
  kFracEventsMbox,        // O3: event touches a middlebox device
  kFracEventsPool,        // O3
  // --- Hygiene practices (lint-derived) ----------------------------------
  kLintIssues,            // H1: total unsuppressed lint findings
  kLintErrors,            // H1: error-severity findings
  kLintRulesHit,          // H2: distinct rule ids that fired
  kLintDensity,           // H1: findings per device
};

inline constexpr int kNumPractices = 35;

enum class PracticeCategory : std::uint8_t { kDesign, kOperational, kHygiene };

/// Human-readable name matching the paper's tables ("No. of devices").
std::string_view practice_name(Practice p);

/// Inverse of practice_name() over all_practices(). Throws DataError
/// naming the unknown input and listing every accepted name.
Practice practice_from_name(std::string_view name);

/// D / O / H classification (the parenthetical annotations in Tables
/// 3-4, extended with the lint-derived hygiene metrics).
PracticeCategory practice_category(Practice p);

/// "D" / "O" / "H" suffix used in table printouts.
std::string_view category_tag(Practice p);

/// All practices, in enum order.
std::array<Practice, kNumPractices> all_practices();

/// The practices used by the dependence and causal analyses. Excludes
/// metrics that are *exact arithmetic identities* of other included
/// metrics (kFracDevicesChanged = kNumDevicesChanged / kNumDevices,
/// kNumProtocols = kNumL2Protocols + kNumL3Protocols, and
/// kLintDensity = kLintIssues / kNumDevices): an exact identity lets
/// the propensity model reconstruct any treatment from its confounders
/// perfectly, which makes matched designs impossible by construction.
/// They remain available for characterization figures.
std::vector<Practice> analysis_practices();

}  // namespace mpa
