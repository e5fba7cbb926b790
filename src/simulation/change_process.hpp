// The operational change process: simulates month-by-month change
// events against a generated network, mutating its live configurations
// and archiving a snapshot after every device change (as a syslog-fed
// NMS would).
//
// Event structure follows §2.2: an event touches 1..k devices within a
// short window (operators "complete most related changes within" ~5
// minutes, with occasional stragglers), has a dominant change type
// drawn from the network's type mix, and is automated with a
// per-network, per-type propensity.
#pragma once

#include <set>
#include <string>

#include "simulation/config_gen.hpp"
#include "telemetry/snapshots.hpp"

namespace mpa {

/// Ground-truth record of one month of operations on one network —
/// what the generator *actually did*, used by the health model and by
/// validation tests (the pipeline must re-infer these from snapshots).
struct MonthlyOps {
  int events = 0;
  int changes = 0;                 ///< Device-level changes.
  int automated_changes = 0;
  std::set<std::string> devices_changed;
  std::set<std::string> change_types;  ///< Agnostic types touched.
  int events_with_interface = 0;
  int events_with_acl = 0;
  int events_with_router = 0;
  int events_with_vlan = 0;
  int events_with_pool = 0;
  int events_with_mbox = 0;        ///< Events touching a middlebox device.
  int l2_protocols = 0;            ///< L2 constructs configured (design-side).
  double devices_per_event_sum = 0;

  double frac_events(int n) const { return events == 0 ? 0 : static_cast<double>(n) / events; }
  double avg_devices_per_event() const {
    return events == 0 ? 0 : devices_per_event_sum / events;
  }
};

/// Drives one network's configuration churn over time.
class ChangeProcess {
 public:
  /// `net` must outlive the process; its configs are mutated in place.
  ChangeProcess(GeneratedNetwork* net, Rng rng);

  /// Archive every device's initial configuration at t=0 (the archive
  /// bootstrap a RANCID deployment performs).
  void emit_initial_snapshots(SnapshotStore& store);

  /// Simulate month `m`: generate events, apply them to the configs,
  /// archive snapshots. Returns the ground-truth summary.
  MonthlyOps simulate_month(int m, SnapshotStore& store);

 private:
  struct PendingChange {
    Timestamp time;
    std::string device_id;
    std::string type;  ///< Agnostic change type.
    bool automated;
    int event_index;
  };

  /// Mutate `device_id`'s config with a change of agnostic `type`.
  /// Returns false if the type is inapplicable (e.g. pool change on a
  /// network with no pools left to touch).
  bool apply_change(const std::string& device_id, const std::string& type);

  /// Candidate devices for a change of `type`.
  std::vector<std::string> candidates_for(const std::string& type) const;

  void snapshot(const std::string& device_id, Timestamp t, const std::string& login,
                SnapshotStore& store);

  GeneratedNetwork* net_;
  Rng rng_;
  int change_counter_ = 0;  ///< Uniquifier for generated names/values.
  std::map<std::string, Timestamp> last_snapshot_;  ///< Per-device monotonic clock.
};

}  // namespace mpa
