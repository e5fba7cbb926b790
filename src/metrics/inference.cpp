#include "metrics/inference.hpp"

#include <algorithm>
#include <array>
#include <map>

#include "config/dialect.hpp"
#include "metrics/design_metrics.hpp"
#include "metrics/lint_metrics.hpp"
#include "obs/metrics.hpp"
#include "util/parallel.hpp"

namespace mpa {
namespace {

/// Parsed snapshot timeline of one device: each distinct stanza block
/// parsed, and its facts derived, once and owned by the interner, and
/// per snapshot its time and the handles of its stanzas' facts. Only a
/// snapshot that some month of the window ends on is read with its
/// source, so only those carry one, and only those keep their handles
/// (and the interner their blocks) once the timeline is diffed.
struct DeviceTimeline {
  explicit DeviceTimeline(Dialect d) : interner(d) {}

  StanzaInterner interner;
  std::vector<Timestamp> times;
  std::vector<std::vector<const StanzaFacts*>> stanzas;
  /// Per month of the window, the last snapshot before its end, or -1.
  std::vector<int> month_end;
  std::vector<LintSource> sources;  ///< Spans + pragmas; empty where no month ends.

  /// Index of the last snapshot strictly before `t`, or -1.
  int state_before(Timestamp t) const {
    const auto it = std::lower_bound(times.begin(), times.end(), t);
    return static_cast<int>(it - times.begin()) - 1;
  }
};

/// Wall time of one network's inference per layer, summed in locals and
/// added to the layer counters once. With obs off it reads no clock.
class LayerClock {
 public:
  enum Layer : std::uint8_t { kIntern, kDiff, kState, kDesign, kLint, kOps };

  LayerClock() : on_(obs::enabled()), last_(on_ ? obs::now_ns() : 0) {}
  bool on() const { return on_; }
  /// Charges the time since the previous lap (or construction) to `layer`.
  void lap(Layer layer) {
    if (!on_) return;
    const std::uint64_t now = obs::now_ns();
    ns_[layer] += now - last_;
    last_ = now;
  }
  void publish(obs::Registry& registry) const {
    for (std::size_t l = 0; l < ns_.size(); ++l)
      registry.counter(kInferLayerCounters[l]).add(ns_[l]);
  }

 private:
  bool on_;
  std::uint64_t last_;
  std::array<std::uint64_t, kInferLayerCounters.size()> ns_{};
};

/// Rows of one network for months [first_month, opts.num_months), in
/// month order. Pure function of its inputs: safe to fan out per
/// network, and the concatenation in inventory order is byte-identical
/// to the serial loop.
///
/// With first_month > 0 only the per-device snapshot *suffix* from the
/// last snapshot strictly before the window is parsed and diffed — the
/// carry-in snapshot supplies every earlier config state a month-end
/// lookup inside the window can resolve to, and every change record
/// the window's months select survives (change i pairs snapshots
/// (i-1, i), and snapshot i is inside the suffix exactly when its time
/// is >= month_start(first_month)). This is what makes append_month
/// O(delta) instead of O(history).
std::vector<Case> infer_network_cases(const NetworkRecord& net, const Inventory& inventory,
                                      const SnapshotStore& snapshots, const TicketLog& tickets,
                                      const InferenceOptions& opts, int first_month) {
  LayerClock clock;
  const auto devices = inventory.devices_in(net.network_id);
  const Timestamp window_start = month_start(first_month);

  std::map<std::string, Role> device_roles;
  for (const auto* d : devices) device_roles[d->device_id] = d->role;

  // Parse each device's snapshot archive once (only the suffix that
  // can influence the requested months), each distinct stanza block of
  // it once; derive both the monthly config states and the change
  // stream from it.
  std::map<std::string, DeviceTimeline> timelines;
  std::vector<ChangeRecord> changes;
  std::size_t blocks = 0, reused = 0;
  for (const auto* d : devices) {
    const auto& snaps = snapshots.for_device(d->device_id);
    if (snaps.empty()) continue;
    const Dialect dialect = dialect_of(d->vendor);
    std::size_t begin = 0;
    if (first_month > 0) {
      // Last snapshot strictly before the window (carry-in state);
      // parse from there. Snapshots are time-ordered per device.
      const auto before = static_cast<std::size_t>(
          std::partition_point(snaps.begin(), snaps.end(),
                               [&](const ConfigSnapshot& s) { return s.time < window_start; }) -
          snaps.begin());
      begin = before > 0 ? before - 1 : 0;
    }
    DeviceTimeline& tl = timelines.try_emplace(d->device_id, dialect).first->second;
    for (std::size_t i = begin; i < snaps.size(); ++i) tl.times.push_back(snaps[i].time);
    std::vector<bool> ends_month(tl.times.size(), false);
    for (int m = first_month; m < opts.num_months; ++m) {
      const int i = tl.state_before(month_start(m + 1));
      tl.month_end.push_back(i);
      if (i >= 0) ends_month[static_cast<std::size_t>(i)] = true;
    }
    tl.stanzas.reserve(tl.times.size());
    tl.sources.resize(tl.times.size());
    for (std::size_t i = 0; i < tl.times.size(); ++i) {
      const std::string_view text = snaps[begin + i].text;
      tl.stanzas.push_back(ends_month[i] ? tl.interner.read(text, tl.sources[i])
                                         : tl.interner.read(text));
    }
    blocks += tl.interner.blocks();
    reused += tl.interner.reused();
    clock.lap(LayerClock::kIntern);
    append_changes(*d, std::span(snaps).subspan(begin), tl.stanzas, opts.automation, changes);
    clock.lap(LayerClock::kDiff);
    // Only the month-end snapshots are read from here on: free the
    // blocks no other snapshot needs any more.
    std::vector<const StanzaFacts*> keep;
    for (std::size_t i = 0; i < tl.stanzas.size(); ++i) {
      if (ends_month[i])
        keep.insert(keep.end(), tl.stanzas[i].begin(), tl.stanzas[i].end());
      else
        tl.stanzas[i] = std::vector<const StanzaFacts*>();
    }
    tl.interner.retain(std::move(keep));
    clock.lap(LayerClock::kIntern);
  }
  // stable_sort, not sort: records tied on (time, device_id) keep their
  // generation order, so sorting a per-device suffix of the change
  // stream and sorting the full stream agree on every month window —
  // the property the tail path's bit-exactness contract rests on.
  std::stable_sort(changes.begin(), changes.end(),
                   [](const ChangeRecord& a, const ChangeRecord& b) {
                     return a.time != b.time ? a.time < b.time : a.device_id < b.device_id;
                   });
  clock.lap(LayerClock::kDiff);

  // The configuration state at month end: one view per device over its
  // timeline's stanza facts and source, and the network index over the
  // views, read by both the design metrics and the hygiene lint. A view,
  // with the names it indexed, lasts while its device's month-end
  // snapshot does; the index is built anew each month. A device that has
  // a month-end snapshot has one in every later month, so a change in
  // how many do is a device joining, and then every view is rebuilt in
  // device order. The inventory-only design terms hold for every month.
  Case inventory_terms;
  compute_inventory_metrics(net, devices, inventory_terms);
  clock.lap(LayerClock::kDesign);
  std::vector<DeviceView> state;
  std::vector<int> shown(timelines.size(), -1);  ///< Per timeline, the snapshot viewed.
  std::vector<Case> rows;
  rows.reserve(static_cast<std::size_t>(opts.num_months - first_month));
  for (int m = first_month; m < opts.num_months; ++m) {
    const Timestamp m_start = month_start(m);
    const Timestamp m_end = month_start(m + 1);
    const auto w = static_cast<std::size_t>(m - first_month);

    Case row = inventory_terms;
    row.network_id = net.network_id;
    row.month = m;

    std::size_t present = 0;
    for (const auto& entry : timelines) present += entry.second.month_end[w] >= 0 ? 1 : 0;
    if (present != state.size()) state.clear();
    std::size_t t = 0, k = 0;
    for (const auto& [dev_id, tl] : timelines) {
      const int i = tl.month_end[w];
      if (i >= 0) {
        const auto at = static_cast<std::size_t>(i);
        if (k == state.size())
          state.emplace_back(dev_id, tl.stanzas[at], &tl.sources[at]);
        else if (i != shown[t])
          state[k] = DeviceView(dev_id, tl.stanzas[at], &tl.sources[at]);
        ++k;
      }
      shown[t++] = i;
    }
    const NetworkView network(state);
    clock.lap(LayerClock::kState);
    compute_config_metrics(network, row);
    clock.lap(LayerClock::kDesign);
    apply_lint_metrics(count_lint(network, opts.lint), row);
    clock.lap(LayerClock::kLint);

    // Operational metrics from this month's changes.
    std::vector<const ChangeRecord*> month_changes;
    for (const auto& c : changes)
      if (c.time >= m_start && c.time < m_end) month_changes.push_back(&c);
    const auto events = group_events(month_changes, opts.event_window);
    compute_operational_metrics(month_changes, events, devices.size(), device_roles, row);

    row.tickets = tickets.count_health_tickets(net.network_id, m);
    rows.push_back(std::move(row));
    clock.lap(LayerClock::kOps);
  }
  if (clock.on()) {
    auto& registry = obs::Registry::global();
    registry.counter("mpa_infer_stanza_blocks_total").add(blocks);
    registry.counter("mpa_infer_stanza_blocks_reused_total").add(reused);
    clock.publish(registry);
  }
  return rows;
}

}  // namespace

CaseTable infer_case_table(const Inventory& inventory, const SnapshotStore& snapshots,
                           const TicketLog& tickets, const InferenceOptions& opts) {
  return infer_case_table_tail(inventory, snapshots, tickets, opts, 0);
}

CaseTable infer_case_table_tail(const Inventory& inventory, const SnapshotStore& snapshots,
                                const TicketLog& tickets, const InferenceOptions& opts,
                                int first_month) {
  const auto& networks = inventory.networks();
  std::vector<std::vector<Case>> per_network(networks.size());
  parallel_for(opts.pool, networks.size(), [&](std::size_t n) {
    per_network[n] =
        infer_network_cases(networks[n], inventory, snapshots, tickets, opts, first_month);
  });

  CaseTable table;
  for (auto& rows : per_network)
    for (auto& row : rows) table.add(std::move(row));
  return table;
}

}  // namespace mpa
