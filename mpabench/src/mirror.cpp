#include "mirror.hpp"

#include <algorithm>
#include <cstring>
#include <map>

#include "config/dialect.hpp"
#include "harness.hpp"
#include "metrics/design_metrics.hpp"
#include "metrics/lint_metrics.hpp"
#include "spans.hpp"
#include "util/hash.hpp"

namespace mpabench {
using namespace mpa;

namespace {

struct DeviceTimeline {
  std::vector<Timestamp> times;
  std::vector<DeviceConfig> configs;
  std::vector<LintSource> sources;

  int state_before(Timestamp t) const {
    const auto it = std::lower_bound(times.begin(), times.end(), t);
    return static_cast<int>(it - times.begin()) - 1;
  }
};

}  // namespace

MirrorCounts& mirror_counts() {
  static MirrorCounts counts;
  return counts;
}

const std::vector<std::string>& mirror_leaf_spans() {
  static const std::vector<std::string> names = {
      "config.parse",   "config.scan",    "config.diff",     "metrics.change_stream",
      "metrics.state",  "metrics.design", "config.lint",     "metrics.lint_apply",
      "metrics.events", "metrics.ops",    "telemetry.tickets"};
  return names;
}

std::vector<Case> mirror_network_cases(const NetworkRecord& net, const Inventory& inventory,
                                       const SnapshotStore& snapshots, const TicketLog& tickets,
                                       const InferenceOptions& opts, int first_month) {
  MirrorCounts& counts = mirror_counts();
  const auto devices = inventory.devices_in(net.network_id);
  const Timestamp window_start = month_start(first_month);

  std::map<std::string, Role> device_roles;
  for (const auto* d : devices) device_roles[d->device_id] = d->role;

  std::map<std::string, DeviceTimeline> timelines;
  std::vector<ChangeRecord> changes;
  for (const auto* d : devices) {
    const auto& snaps = snapshots.for_device(d->device_id);
    if (snaps.empty()) continue;
    const Dialect dialect = dialect_of(d->vendor);
    std::size_t begin = 0;
    if (first_month > 0) {
      const auto before = static_cast<std::size_t>(
          std::partition_point(snaps.begin(), snaps.end(),
                               [&](const ConfigSnapshot& s) { return s.time < window_start; }) -
          snaps.begin());
      begin = before > 0 ? before - 1 : 0;
    }
    DeviceTimeline tl;
    tl.times.reserve(snaps.size() - begin);
    tl.configs.reserve(snaps.size() - begin);
    for (std::size_t i = begin; i < snaps.size(); ++i) {
      tl.times.push_back(snaps[i].time);
      {
        Span s("config.parse");
        tl.configs.push_back(parse(snaps[i].text, dialect, d->device_id));
      }
      Span s("config.scan");
      tl.sources.push_back(LintSource::scan(snaps[i].text, dialect));
    }
    for (std::size_t i = 1; i < tl.configs.size(); ++i) {
      std::vector<StanzaChange> stanza_changes;
      {
        Span s("config.diff");
        stanza_changes = diff(tl.configs[i - 1], tl.configs[i]);
      }
      if (stanza_changes.empty()) continue;
      Span s("metrics.change_stream");
      ChangeRecord cr;
      cr.device_id = d->device_id;
      cr.network_id = net.network_id;
      cr.time = snaps[begin + i].time;
      cr.login = snaps[begin + i].login;
      cr.automated = opts.automation(snaps[begin + i].login);
      cr.stanza_changes = std::move(stanza_changes);
      changes.push_back(std::move(cr));
    }
    timelines.emplace(d->device_id, std::move(tl));
  }
  {
    Span s("metrics.change_stream");
    std::stable_sort(changes.begin(), changes.end(),
                     [](const ChangeRecord& a, const ChangeRecord& b) {
                       return a.time != b.time ? a.time < b.time : a.device_id < b.device_id;
                     });
  }
  counts.changes += changes.size();

  std::vector<Case> rows;
  rows.reserve(static_cast<std::size_t>(opts.num_months - first_month));
  for (int m = first_month; m < opts.num_months; ++m) {
    const Timestamp m_start = month_start(m);
    const Timestamp m_end = month_start(m + 1);
    Case row;
    row.network_id = net.network_id;
    row.month = m;

    std::vector<DeviceConfig> state;
    std::vector<LintInput> lint_inputs;
    {
      Span s("metrics.state");
      state.reserve(timelines.size());
      lint_inputs.reserve(timelines.size());
      for (const auto& [dev_id, tl] : timelines) {
        const int idx = tl.state_before(m_end);
        if (idx < 0) continue;
        state.push_back(tl.configs[static_cast<std::size_t>(idx)]);
        lint_inputs.push_back(LintInput{&tl.configs[static_cast<std::size_t>(idx)],
                                        &tl.sources[static_cast<std::size_t>(idx)]});
      }
    }
    {
      Span s("metrics.design");
      compute_design_metrics(net, devices, state, row);
    }
    std::vector<Diagnostic> diags;
    {
      Span s("config.lint");
      diags = run_lint(lint_inputs, opts.lint);
    }
    {
      Span s("metrics.lint_apply");
      apply_lint_metrics(LintSummary::of(diags, lint_inputs.size()), row);
    }
    counts.lint_findings += diags.size();

    std::vector<const ChangeRecord*> month_changes;
    std::vector<ChangeEvent> events;
    {
      Span s("metrics.events");
      for (const auto& c : changes)
        if (c.time >= m_start && c.time < m_end) month_changes.push_back(&c);
      events = group_events(month_changes, opts.event_window);
    }
    counts.events += events.size();
    {
      Span s("metrics.ops");
      compute_operational_metrics(month_changes, events, devices.size(), device_roles, row);
    }
    {
      Span s("telemetry.tickets");
      row.tickets = tickets.count_health_tickets(net.network_id, m);
    }
    rows.push_back(std::move(row));
    ++counts.network_months;
  }
  return rows;
}

bool same_bits(const std::vector<Case>& a, const std::vector<Case>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].network_id != b[i].network_id || a[i].month != b[i].month ||
        std::memcmp(a[i].practice.data(), b[i].practice.data(), sizeof a[i].practice) != 0 ||
        std::memcmp(&a[i].tickets, &b[i].tickets, sizeof a[i].tickets) != 0)
      return false;
  return true;
}

std::string bits_digest(const std::vector<Case>& rows) {
  Fnv h;
  for (const Case& c : rows) {
    h.str(c.network_id);
    h.u64(static_cast<std::uint64_t>(c.month));
    h.bytes(c.practice.data(), sizeof c.practice);
    h.bytes(&c.tickets, sizeof c.tickets);
  }
  return hex64(h.value());
}

}  // namespace mpabench
