#include "simulation/osp_generator.hpp"

#include <set>

#include "config/types.hpp"
#include "simulation/change_process.hpp"
#include "simulation/config_gen.hpp"

namespace mpa {
namespace {

int live_vlan_count(const GeneratedNetwork& net) {
  std::set<std::string> vlans;
  for (const auto& [dev_id, cfg] : net.configs)
    for (const auto& s : cfg.stanzas())
      if (normalize_type(s.type) == "vlan") vlans.insert(s.name);
  return static_cast<int>(vlans.size());
}

/// Generates network `n` into `out`, its records and its ground truth:
/// the one per-network sequence both generators run, with the same
/// forks of `master`, the same draws and the shared `ticket_counter`.
void generate_network(int n, const OspOptions& opts, Rng& master, int& ticket_counter,
                      OspDataset& out) {
  Rng net_rng = master.fork();
  NetworkDesign design = sample_network_design(n, net_rng, opts.design);
  bool treated = false;
  if (opts.treated_fraction > 0) {
    treated = net_rng.bernoulli(opts.treated_fraction);
    if (treated) design.change_events_per_month *= opts.treatment_rate_multiplier;
  }
  out.experiment_treated.push_back(treated);

  out.inventory.add_network(design.net);
  for (const auto& dev : design.devices) out.inventory.add_device(dev);

  GeneratedNetwork gen = generate_configs(std::move(design), net_rng);
  ChangeProcess process(&gen, net_rng.fork());
  process.emit_initial_snapshots(out.snapshots);

  std::vector<MonthlyOps> months;
  months.reserve(static_cast<std::size_t>(opts.num_months));
  Rng health_rng = net_rng.fork();
  for (int m = 0; m < opts.num_months; ++m) {
    MonthlyOps ops = process.simulate_month(m, out.snapshots);
    HealthModel::generate_tickets(gen.design, ops, live_vlan_count(gen), m, health_rng, out.tickets,
                                  ticket_counter);
    months.push_back(std::move(ops));
  }
  out.true_ops.push_back(std::move(months));
  out.designs.push_back(std::move(gen.design));
}

}  // namespace

OspDataset generate_osp(const OspOptions& opts) {
  Rng master(opts.seed);
  OspDataset data;
  data.num_months = opts.num_months;
  int ticket_counter = 0;
  for (int n = 0; n < opts.num_networks; ++n)
    generate_network(n, opts, master, ticket_counter, data);
  return data;
}

OspStreamTotals generate_osp_stream(const OspOptions& opts, OspSink& sink) {
  Rng master(opts.seed);
  int ticket_counter = 0;
  OspStreamTotals totals;
  // Each network is generated into a dataset of its own, forwarded and
  // dropped, so memory is bounded by the largest single network
  // regardless of num_networks.
  for (int n = 0; n < opts.num_networks; ++n) {
    OspDataset net;
    generate_network(n, opts, master, ticket_counter, net);
    for (const auto& rec : net.inventory.networks()) sink.on_network(rec);
    for (const auto& dev : net.inventory.devices()) sink.on_device(dev);
    // A SnapshotStore orders each device's snapshots by time under a
    // map keyed by device id, so forwarding device by device gives a
    // receiver what generate_osp's shared store holds for them.
    for (const auto& device_id : net.snapshots.devices())
      for (const auto& snap : net.snapshots.for_device(device_id)) sink.on_snapshot(snap);
    for (const auto& t : net.tickets.all()) sink.on_ticket(t);
    totals.networks += net.inventory.num_networks();
    totals.devices += net.inventory.num_devices();
    totals.snapshots += net.snapshots.total_snapshots();
    totals.tickets += net.tickets.all().size();
  }
  return totals;
}

}  // namespace mpa
