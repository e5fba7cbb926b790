// Operational-practice inference (Table 1, O1-O4).
//
// Changes are recovered by parsing successive snapshots of each device
// and diffing them stanza-by-stanza. Change *events* group changes
// across devices: "if a configuration change on a device occurs within
// delta time units of a change on another device in the same network,
// then we assume the changes on both devices are part of the same
// change event" (transitively chained; the paper uses delta = 5 min).
//
// Modality (automated vs manual) is inferred from login metadata: "we
// mark a change as automated if the login is classified as a special
// account in the organization's user management system."
#pragma once

#include <functional>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "config/diff.hpp"
#include "metrics/case_table.hpp"
#include "model/inventory.hpp"
#include "telemetry/snapshots.hpp"
#include "telemetry/time.hpp"

namespace mpa {

/// Predicate deciding whether a login belongs to an automation account.
using AutomationClassifier = std::function<bool(const std::string& login)>;

/// Default organization policy: service accounts are prefixed "svc-".
/// (Conservative, like the paper: scripts run under regular user
/// accounts are classified manual.)
bool default_automation_classifier(const std::string& login);

/// One configuration change: a snapshot pair on one device that differs
/// in at least one stanza.
struct ChangeRecord {
  std::string device_id;
  std::string network_id;
  Timestamp time = 0;
  std::string login;
  bool automated = false;
  std::vector<StanzaChange> stanza_changes;

  /// True if any stanza change has the given agnostic type.
  bool touches_type(std::string_view agnostic_type) const;
};

/// Appends to `out` one ChangeRecord for each snapshot of `device` after
/// the first whose stanzas differ from the snapshot before it, in
/// snapshot order: `stanzas[i]` holds the facts of `snaps[i]`'s stanzas,
/// as a StanzaInterner reads them, and `is_automated` classifies the
/// login that made the change.
void append_changes(const DeviceRecord& device, std::span<const ConfigSnapshot> snaps,
                    std::span<const std::vector<const StanzaFacts*>> stanzas,
                    const AutomationClassifier& is_automated, std::vector<ChangeRecord>& out);

/// Recover all changes across the organization by diffing successive
/// snapshots of every device, each read through a StanzaInterner; logins
/// are classified by default_automation_classifier. Devices missing from
/// the inventory are skipped (inconsistent logging happens; the paper's
/// data is "indirect and noisy"). Output is ordered by (network, time).
/// Throws DataError on a snapshot that parse() rejects.
std::vector<ChangeRecord> extract_changes(const Inventory& inventory,
                                          const SnapshotStore& snapshots);

/// A grouped change event within one network.
struct ChangeEvent {
  Timestamp start = 0;
  Timestamp end = 0;
  std::vector<const ChangeRecord*> changes;

  std::set<std::string> devices() const;
  bool touches_type(std::string_view agnostic_type) const;
  /// True if any change lands on a device whose role is a middlebox.
  bool touches_middlebox(const std::map<std::string, Role>& device_roles) const;
};

/// Group one network's time-sorted changes into events. `delta` is the
/// chaining window in minutes; `delta` <= 0 disables grouping (each
/// change becomes its own event — Figure 3's "NA" point).
std::vector<ChangeEvent> group_events(const std::vector<const ChangeRecord*>& sorted_changes,
                                      Timestamp delta);

/// Finer grouping, the paper's stated future work (§2.2): "we plan to
/// also consider the change type ... to more finely group related
/// changes." A change joins the most recent open event (one whose last
/// change is within `delta`) that shares at least one vendor-agnostic
/// change type; otherwise it opens a new event. Two unrelated
/// maintenance activities interleaved in time therefore stay separate
/// events instead of being chained into one.
std::vector<ChangeEvent> group_events_typed(
    const std::vector<const ChangeRecord*>& sorted_changes, Timestamp delta);

/// Fill the operational-practice fields of `out` from one network's
/// changes and events within one month. Fractions whose denominator is
/// zero (no changes / no events) are recorded as 0 — see §5.2.2 on
/// undefined values.
void compute_operational_metrics(const std::vector<const ChangeRecord*>& month_changes,
                                 const std::vector<ChangeEvent>& month_events,
                                 std::size_t network_device_count,
                                 const std::map<std::string, Role>& device_roles, Case& out);

}  // namespace mpa
