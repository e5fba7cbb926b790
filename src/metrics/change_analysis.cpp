#include "metrics/change_analysis.hpp"

#include <algorithm>

#include "config/dialect.hpp"
#include "util/strings.hpp"

namespace mpa {

bool default_automation_classifier(const std::string& login) {
  return login.starts_with("svc-");
}

bool ChangeRecord::touches_type(std::string_view agnostic_type) const {
  for (const auto& sc : stanza_changes)
    if (sc.agnostic_type == agnostic_type) return true;
  return false;
}

void append_changes(const DeviceRecord& device, std::span<const ConfigSnapshot> snaps,
                    std::span<const std::vector<const StanzaFacts*>> stanzas,
                    const AutomationClassifier& is_automated, std::vector<ChangeRecord>& out) {
  for (std::size_t i = 1; i < stanzas.size(); ++i) {
    auto stanza_changes = diff(stanzas[i - 1], stanzas[i]);
    if (stanza_changes.empty()) continue;
    ChangeRecord cr;
    cr.device_id = device.device_id;
    cr.network_id = device.network_id;
    cr.time = snaps[i].time;
    cr.login = snaps[i].login;
    cr.automated = is_automated(snaps[i].login);
    cr.stanza_changes = std::move(stanza_changes);
    out.push_back(std::move(cr));
  }
}

std::vector<ChangeRecord> extract_changes(const Inventory& inventory,
                                          const SnapshotStore& snapshots) {
  std::vector<ChangeRecord> out;
  std::vector<std::vector<const StanzaFacts*>> stanzas;
  for (const auto& device_id : snapshots.devices()) {
    const DeviceRecord* rec = inventory.find_device(device_id);
    if (rec == nullptr) continue;  // device absent from inventory: skip
    const auto& snaps = snapshots.for_device(device_id);
    if (snaps.size() < 2) continue;
    StanzaInterner interner(dialect_of(rec->vendor));
    stanzas.clear();
    for (const auto& snap : snaps) stanzas.push_back(interner.read(snap.text));
    append_changes(*rec, snaps, stanzas, default_automation_classifier, out);
  }
  std::sort(out.begin(), out.end(), [](const ChangeRecord& a, const ChangeRecord& b) {
    if (a.network_id != b.network_id) return a.network_id < b.network_id;
    if (a.time != b.time) return a.time < b.time;
    return a.device_id < b.device_id;
  });
  return out;
}

std::set<std::string> ChangeEvent::devices() const {
  std::set<std::string> out;
  for (const auto* c : changes) out.insert(c->device_id);
  return out;
}

bool ChangeEvent::touches_type(std::string_view agnostic_type) const {
  for (const auto* c : changes)
    if (c->touches_type(agnostic_type)) return true;
  return false;
}

bool ChangeEvent::touches_middlebox(const std::map<std::string, Role>& device_roles) const {
  for (const auto* c : changes) {
    const auto it = device_roles.find(c->device_id);
    if (it != device_roles.end() && is_middlebox(it->second)) return true;
  }
  return false;
}

std::vector<ChangeEvent> group_events(const std::vector<const ChangeRecord*>& sorted_changes,
                                      Timestamp delta) {
  std::vector<ChangeEvent> out;
  for (const auto* c : sorted_changes) {
    const bool chain = delta > 0 && !out.empty() && c->time - out.back().end <= delta;
    if (!chain) {
      out.emplace_back();
      out.back().start = c->time;
      out.back().end = c->time;
    }
    out.back().changes.push_back(c);
    out.back().end = std::max(out.back().end, c->time);
  }
  return out;
}

std::vector<ChangeEvent> group_events_typed(
    const std::vector<const ChangeRecord*>& sorted_changes, Timestamp delta) {
  std::vector<ChangeEvent> out;
  // Open events carry the set of agnostic types seen so far; a linear
  // scan over open events suffices (few are open at any moment).
  std::vector<std::set<std::string>> open_types;  // parallel to out
  for (const auto* c : sorted_changes) {
    std::ptrdiff_t target = -1;
    if (delta > 0) {
      // Most recent open event sharing a type.
      for (std::ptrdiff_t e = static_cast<std::ptrdiff_t>(out.size()) - 1; e >= 0; --e) {
        if (c->time - out[static_cast<std::size_t>(e)].end > delta) break;  // older ones too
        bool shares = false;
        for (const auto& sc : c->stanza_changes)
          if (open_types[static_cast<std::size_t>(e)].count(sc.agnostic_type)) shares = true;
        if (shares) {
          target = e;
          break;
        }
      }
    }
    if (target < 0) {
      out.emplace_back();
      out.back().start = c->time;
      out.back().end = c->time;
      open_types.emplace_back();
      target = static_cast<std::ptrdiff_t>(out.size()) - 1;
    }
    auto& ev = out[static_cast<std::size_t>(target)];
    ev.changes.push_back(c);
    ev.end = std::max(ev.end, c->time);
    for (const auto& sc : c->stanza_changes)
      open_types[static_cast<std::size_t>(target)].insert(sc.agnostic_type);
  }
  return out;
}

void compute_operational_metrics(const std::vector<const ChangeRecord*>& month_changes,
                                 const std::vector<ChangeEvent>& month_events,
                                 std::size_t network_device_count,
                                 const std::map<std::string, Role>& device_roles, Case& out) {
  const double n_changes = static_cast<double>(month_changes.size());
  out[Practice::kNumConfigChanges] = n_changes;

  std::set<std::string> devices_changed;
  std::set<std::string> change_types;
  double automated = 0;
  for (const auto* c : month_changes) {
    devices_changed.insert(c->device_id);
    if (c->automated) automated += 1;
    for (const auto& sc : c->stanza_changes) change_types.insert(sc.agnostic_type);
  }
  out[Practice::kNumDevicesChanged] = static_cast<double>(devices_changed.size());
  out[Practice::kFracDevicesChanged] =
      network_device_count == 0
          ? 0
          : static_cast<double>(devices_changed.size()) / static_cast<double>(network_device_count);
  out[Practice::kFracChangesAutomated] = n_changes == 0 ? 0 : automated / n_changes;
  out[Practice::kNumChangeTypes] = static_cast<double>(change_types.size());

  const double n_events = static_cast<double>(month_events.size());
  out[Practice::kNumChangeEvents] = n_events;
  if (n_events == 0) {
    out[Practice::kAvgDevicesPerEvent] = 0;
    out[Practice::kFracEventsInterface] = 0;
    out[Practice::kFracEventsAcl] = 0;
    out[Practice::kFracEventsRouter] = 0;
    out[Practice::kFracEventsVlan] = 0;
    out[Practice::kFracEventsMbox] = 0;
    out[Practice::kFracEventsPool] = 0;
    return;
  }
  double devices_per_event = 0, w_iface = 0, w_acl = 0, w_router = 0, w_vlan = 0, w_mbox = 0,
         w_pool = 0;
  for (const auto& ev : month_events) {
    devices_per_event += static_cast<double>(ev.devices().size());
    if (ev.touches_type("interface")) w_iface += 1;
    if (ev.touches_type("acl")) w_acl += 1;
    if (ev.touches_type("router")) w_router += 1;
    if (ev.touches_type("vlan")) w_vlan += 1;
    if (ev.touches_type("pool")) w_pool += 1;
    if (ev.touches_middlebox(device_roles)) w_mbox += 1;
  }
  out[Practice::kAvgDevicesPerEvent] = devices_per_event / n_events;
  out[Practice::kFracEventsInterface] = w_iface / n_events;
  out[Practice::kFracEventsAcl] = w_acl / n_events;
  out[Practice::kFracEventsRouter] = w_router / n_events;
  out[Practice::kFracEventsVlan] = w_vlan / n_events;
  out[Practice::kFracEventsMbox] = w_mbox / n_events;
  out[Practice::kFracEventsPool] = w_pool / n_events;
}

}  // namespace mpa
