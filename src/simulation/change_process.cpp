#include "simulation/change_process.hpp"

#include <algorithm>

#include "config/types.hpp"

namespace mpa {
namespace {

// Human operator logins; automation accounts carry the "svc-" prefix
// the default classifier recognizes.
const char* kHumanLogins[] = {"alice", "bob", "carol", "dinesh", "erin", "felix"};
const char* kAutomationLogins[] = {"svc-deploy", "svc-netops", "svc-lbsync"};

/// Probability that a change's snapshot never reaches the archive
/// ("some snapshots may be missing due to incomplete or inconsistent
/// logging", §1). The *change* still happens — the next surviving
/// snapshot absorbs it.
constexpr double kSnapshotLoss = 0.12;
/// Month-to-month lognormal jitter (sigma) on the network's event rate,
/// event size, and type mix — operations drift over time.
constexpr double kMonthlyJitter = 0.35;

}  // namespace

ChangeProcess::ChangeProcess(GeneratedNetwork* net, Rng rng) : net_(net), rng_(rng) {}

void ChangeProcess::emit_initial_snapshots(SnapshotStore& store) {
  for (const auto& dev : net_->design.devices)
    snapshot(dev.device_id, 0, "svc-provision", store);
}

void ChangeProcess::snapshot(const std::string& device_id, Timestamp t,
                             const std::string& login, SnapshotStore& store) {
  auto& last = last_snapshot_[device_id];
  if (t <= last) t = last + 1;  // keep the per-device archive monotone
  last = t;
  // Lossy archiving (never for the t=0 bootstrap snapshot): the change
  // is applied to the live config but not archived, so the next
  // surviving snapshot shows a merged diff.
  if (t > 0 && rng_.bernoulli(kSnapshotLoss)) return;
  ConfigSnapshot snap;
  snap.device_id = device_id;
  snap.time = t;
  snap.login = login;
  snap.text = render(net_->config(device_id), dialect_of(net_->vendor_of.at(device_id)));
  store.add(std::move(snap));
}

std::vector<std::string> ChangeProcess::candidates_for(const std::string& type) const {
  const auto& design = net_->design;
  if (type == "router" || type == "acl") {
    auto routers = design.devices_with_role(Role::kRouter);
    if (type == "acl") {
      for (auto& fw : design.devices_with_role(Role::kFirewall)) routers.push_back(fw);
    }
    return routers;
  }
  if (type == "pool") {
    std::vector<std::string> out;
    for (const auto& d : design.devices)
      if (d.role == Role::kLoadBalancer || d.role == Role::kAdc) out.push_back(d.device_id);
    return out;
  }
  if (type == "vlan") {
    auto sw = design.devices_with_role(Role::kSwitch);
    return sw.empty() ? design.net.device_ids : sw;
  }
  return design.net.device_ids;  // interface, user, snmp, sflow, qos, logging
}

bool ChangeProcess::apply_change(const std::string& device_id, const std::string& type) {
  DeviceConfig& cfg = net_->config(device_id);
  const DialectVocab vocab = vocab_for(net_->vendor_of.at(device_id));
  const int uid = ++change_counter_;

  if (type == "interface") {
    auto ifaces = cfg.all_of_type(vocab.interface_type());
    if (ifaces.empty()) return false;
    const auto pick = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(ifaces.size()) - 1));
    auto* s = cfg.find(vocab.interface_type(), ifaces[pick]->name);
    s->replace("description", "upd-" + std::to_string(uid));
    return true;
  }
  if (type == "acl") {
    auto acls = cfg.all_of_type(vocab.acl_type());
    if (acls.empty()) {
      Stanza acl;
      acl.type = vocab.acl_type();
      acl.name = "acl-gen-" + std::to_string(uid);
      acl.set("permit", "tcp any any eq 443");
      cfg.add(std::move(acl));
      return true;
    }
    auto* s = cfg.find(vocab.acl_type(), acls[0]->name);
    if (rng_.bernoulli(0.7) || s->options.size() <= 1) {
      s->set("permit", "tcp any any eq " + std::to_string(rng_.uniform_int(20, 9000)));
    } else {
      s->options.pop_back();
    }
    return true;
  }
  if (type == "vlan") {
    if (rng_.bernoulli(0.4)) {
      Stanza vlan;
      vlan.type = vocab.vlan_type();
      vlan.name = std::to_string(1000 + uid);
      vlan.set("l2", "enabled");
      cfg.add(std::move(vlan));
      return true;
    }
    auto vlans = cfg.all_of_type(vocab.vlan_type());
    if (vlans.empty()) return false;
    auto* s = cfg.find(vocab.vlan_type(), vlans[0]->name);
    s->replace("note", "upd-" + std::to_string(uid));
    return true;
  }
  if (type == "router") {
    for (const auto& rt : {vocab.bgp_type(), vocab.ospf_type()}) {
      auto procs = cfg.all_of_type(rt);
      if (procs.empty()) continue;
      auto* s = cfg.find(rt, procs[0]->name);
      s->set("network", "192.168." + std::to_string(uid % 250) + ".0/24");
      return true;
    }
    return false;
  }
  if (type == "pool") {
    auto pools = cfg.all_of_type("pool");
    if (pools.empty()) return false;
    const auto pick = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(pools.size()) - 1));
    auto* s = cfg.find("pool", pools[pick]->name);
    if (rng_.bernoulli(0.6) || s->options.size() <= 1) {
      s->set("member", "10.200.9." + std::to_string(uid % 250) + ":80");
    } else {
      s->options.pop_back();
    }
    return true;
  }
  if (type == "user") {
    auto users = cfg.all_of_type(vocab.user_type());
    if (rng_.bernoulli(0.5) || users.size() <= 1) {
      Stanza user;
      user.type = vocab.user_type();
      user.name = "ops-gen-" + std::to_string(uid);
      user.set("role", "operator");
      cfg.add(std::move(user));
    } else {
      cfg.remove(vocab.user_type(), users.back()->name);
    }
    return true;
  }
  if (type == "sflow" || type == "snmp" || type == "logging" || type == "qos") {
    std::string native = type;
    if (type == "snmp") native = vocab.snmp_type();
    if (type == "qos") native = vocab.qos_type();
    if (type == "logging")
      native = vocab.dialect == Dialect::kIosLike ? "logging" : "system-syslog";
    auto matches = cfg.all_of_type(native);
    if (matches.empty()) {
      Stanza s;
      s.type = native;
      s.name = "global";
      s.set("setting", "v" + std::to_string(uid));
      cfg.add(std::move(s));
      return true;
    }
    auto* s = cfg.find(native, matches[0]->name);
    s->replace("setting", "v" + std::to_string(uid));
    return true;
  }
  return false;
}

MonthlyOps ChangeProcess::simulate_month(int m, SnapshotStore& store) {
  MonthlyOps ops;
  const auto& design = net_->design;
  ops.l2_protocols = 1 + (design.use_mstp ? 1 : 0) + (design.use_lag ? 1 : 0) +
                     (design.use_udld ? 1 : 0) + (design.use_dhcp_relay ? 1 : 0);
  const Timestamp m_start = month_start(m);

  // Month-level drift: the event rate, event sizes, and type mix all
  // wobble around the network's temperament.
  const double month_rate = design.change_events_per_month * rng_.lognormal(0, kMonthlyJitter);
  const double month_size_mean =
      std::max(1.0, design.event_size_mean * rng_.lognormal(0, kMonthlyJitter));
  const int n_events = rng_.poisson(month_rate);
  if (n_events == 0) return ops;

  // Draw the month's events up front, then replay in time order so the
  // snapshot archive stays chronologically consistent.
  std::vector<PendingChange> pending;
  std::vector<double> type_weights;
  std::vector<std::string> type_names;
  for (const auto& [type, w] : design.change_type_mix) {
    type_names.push_back(type);
    type_weights.push_back(w * rng_.lognormal(0, kMonthlyJitter));
  }

  struct EventMeta {
    std::set<std::string> types;
    std::set<std::string> devices;
    bool touches_mbox = false;
  };
  std::vector<EventMeta> events;

  std::map<std::string, Role> role_of;
  for (const auto& d : design.devices) role_of[d.device_id] = d.role;

  for (int e = 0; e < n_events; ++e) {
    const Timestamp t0 =
        m_start + static_cast<Timestamp>(rng_.uniform() * (kMinutesPerMonth - 60));
    const std::string type = type_names[rng_.weighted_index(type_weights)];
    auto candidates = candidates_for(type);
    if (candidates.empty()) continue;
    // Event sizes are heavy-tailed: most events touch one or two
    // devices, but an occasional event sweeps a large slice of the
    // network (fleet-wide ACL pushes, VLAN rollouts). The heavy tail
    // decouples monthly change volume from event count, which is what
    // real archives show (and what lets matched designs separate the
    // two practices).
    int size = 1 + rng_.poisson(month_size_mean - 1.0);
    if (rng_.bernoulli(0.08)) size *= static_cast<int>(rng_.uniform_int(3, 10));
    size = std::min<int>(size, static_cast<int>(candidates.size()));
    // Devices are not hit uniformly: every network has a "hot set" that
    // absorbs most changes (Figure 12(b): in most networks fewer than
    // half the devices change in a month, yet change volume is high).
    std::vector<std::size_t> chosen;
    {
      std::set<std::size_t> picked;
      int attempts = 0;
      while (static_cast<int>(picked.size()) < size &&
             attempts < 20 * size + 50) {
        ++attempts;
        const auto idx = static_cast<std::size_t>(
            rng_.zipf(static_cast<int>(candidates.size()), 1.4) - 1);
        picked.insert(idx);
      }
      chosen.assign(picked.begin(), picked.end());
    }
    const bool automated = rng_.bernoulli(std::min(
        0.95, design.automation_propensity * (type == "pool" || type == "sflow" || type == "qos"
                                                  ? 1.8
                                                  : 1.0)));
    const int event_index = static_cast<int>(events.size());
    events.emplace_back();

    // Occasionally add a secondary change type to the same event.
    std::vector<std::string> event_types{type};
    if (rng_.bernoulli(0.25)) event_types.push_back(type_names[rng_.weighted_index(type_weights)]);

    Timestamp t = t0;
    for (std::size_t ci = 0; ci < chosen.size(); ++ci) {
      // Most intra-event gaps are short (median well under the 5-minute
      // grouping window); ~5% of steps straggle 6-20 minutes.
      if (ci > 0) {
        t += rng_.bernoulli(0.05) ? rng_.uniform_int(6, 20)
                                  : static_cast<Timestamp>(rng_.uniform_int(0, 2));
      }
      for (const auto& et : event_types)
        pending.push_back(PendingChange{t, candidates[chosen[ci]], et, automated, event_index});
    }
  }

  std::sort(pending.begin(), pending.end(), [](const PendingChange& a, const PendingChange& b) {
    return a.time != b.time ? a.time < b.time : a.device_id < b.device_id;
  });

  for (const auto& pc : pending) {
    if (!apply_change(pc.device_id, pc.type)) continue;
    const std::string login =
        pc.automated
            ? kAutomationLogins[rng_.uniform_int(0, 2)]
            : kHumanLogins[rng_.uniform_int(0, 5)];
    snapshot(pc.device_id, pc.time, login, store);

    ++ops.changes;
    if (pc.automated) ++ops.automated_changes;
    ops.devices_changed.insert(pc.device_id);
    ops.change_types.insert(pc.type);
    auto& ev = events[static_cast<std::size_t>(pc.event_index)];
    ev.types.insert(pc.type);
    ev.devices.insert(pc.device_id);
    if (is_middlebox(role_of[pc.device_id])) ev.touches_mbox = true;
  }

  for (const auto& ev : events) {
    if (ev.devices.empty()) continue;  // event produced no applicable change
    ++ops.events;
    ops.devices_per_event_sum += static_cast<double>(ev.devices.size());
    if (ev.types.count("interface")) ++ops.events_with_interface;
    if (ev.types.count("acl")) ++ops.events_with_acl;
    if (ev.types.count("router")) ++ops.events_with_router;
    if (ev.types.count("vlan")) ++ops.events_with_vlan;
    if (ev.types.count("pool")) ++ops.events_with_pool;
    if (ev.touches_mbox) ++ops.events_with_mbox;
  }
  return ops;
}

}  // namespace mpa
