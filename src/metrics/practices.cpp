#include "metrics/practices.hpp"

#include <string>

#include "util/error.hpp"

namespace mpa {

std::string_view practice_name(Practice p) {
  switch (p) {
    case Practice::kNumWorkloads: return "No. of workloads";
    case Practice::kNumDevices: return "No. of devices";
    case Practice::kNumVendors: return "No. of vendors";
    case Practice::kNumModels: return "No. of models";
    case Practice::kNumRoles: return "No. of roles";
    case Practice::kNumFirmwareVersions: return "No. of firmware versions";
    case Practice::kHardwareEntropy: return "Hardware entropy";
    case Practice::kFirmwareEntropy: return "Firmware entropy";
    case Practice::kNumL2Protocols: return "No. of L2 protocols";
    case Practice::kNumL3Protocols: return "No. of L3 protocols";
    case Practice::kNumProtocols: return "No. of protocols";
    case Practice::kNumVlans: return "No. of VLANs";
    case Practice::kNumBgpInstances: return "No. of BGP instances";
    case Practice::kNumOspfInstances: return "No. of OSPF instances";
    case Practice::kAvgBgpInstanceSize: return "Avg. size of a BGP instance";
    case Practice::kAvgOspfInstanceSize: return "Avg. size of an OSPF instance";
    case Practice::kIntraDeviceComplexity: return "Intra-device complexity";
    case Practice::kInterDeviceComplexity: return "Inter-device complexity";
    case Practice::kNumConfigChanges: return "No. of config changes";
    case Practice::kNumDevicesChanged: return "No. of devices changed";
    case Practice::kFracDevicesChanged: return "Frac. devices changed";
    case Practice::kFracChangesAutomated: return "Frac. changes automated";
    case Practice::kNumChangeTypes: return "No. of change types";
    case Practice::kNumChangeEvents: return "No. of change events";
    case Practice::kAvgDevicesPerEvent: return "Avg. devices changed per event";
    case Practice::kFracEventsInterface: return "Frac. events w/ interface change";
    case Practice::kFracEventsAcl: return "Frac. events w/ ACL change";
    case Practice::kFracEventsRouter: return "Frac. events w/ router change";
    case Practice::kFracEventsVlan: return "Frac. events w/ VLAN change";
    case Practice::kFracEventsMbox: return "Frac. events w/ mbox change";
    case Practice::kFracEventsPool: return "Frac. events w/ pool change";
    case Practice::kLintIssues: return "No. of lint issues";
    case Practice::kLintErrors: return "No. of lint errors";
    case Practice::kLintRulesHit: return "No. of lint rules hit";
    case Practice::kLintDensity: return "Lint issues per device";
  }
  return "unknown";
}

Practice practice_from_name(std::string_view name) {
  for (Practice p : all_practices())
    if (practice_name(p) == name) return p;
  std::string known;
  for (Practice p : all_practices()) known += "\n  " + std::string(practice_name(p));
  throw DataError("unknown practice '" + std::string(name) + "'; known practices:" + known);
}

PracticeCategory practice_category(Practice p) {
  if (static_cast<int>(p) < static_cast<int>(Practice::kNumConfigChanges))
    return PracticeCategory::kDesign;
  if (static_cast<int>(p) < static_cast<int>(Practice::kLintIssues))
    return PracticeCategory::kOperational;
  return PracticeCategory::kHygiene;
}

std::string_view category_tag(Practice p) {
  switch (practice_category(p)) {
    case PracticeCategory::kDesign: return "D";
    case PracticeCategory::kOperational: return "O";
    case PracticeCategory::kHygiene: return "H";
  }
  return "?";
}

std::array<Practice, kNumPractices> all_practices() {
  std::array<Practice, kNumPractices> out{};
  for (int i = 0; i < kNumPractices; ++i) out[static_cast<std::size_t>(i)] = static_cast<Practice>(i);
  return out;
}

std::vector<Practice> analysis_practices() {
  std::vector<Practice> out;
  for (Practice p : all_practices()) {
    if (p == Practice::kFracDevicesChanged || p == Practice::kNumProtocols ||
        p == Practice::kLintDensity) {
      continue;
    }
    out.push_back(p);
  }
  return out;
}

}  // namespace mpa
