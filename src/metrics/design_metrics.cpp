#include "metrics/design_metrics.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <set>

#include "config/refs.hpp"
#include "config/routing.hpp"
#include "config/types.hpp"
#include "stats/info.hpp"

namespace mpa {
namespace {

// Entropy over (key, role) cells, normalized by log2(N).
template <typename KeyFn>
double normalized_pair_entropy(const std::vector<const DeviceRecord*>& devices, KeyFn key_of) {
  const std::size_t n = devices.size();
  if (n <= 1) return 0;
  std::map<std::pair<std::string, Role>, double> cells;
  for (const auto* d : devices) cells[{key_of(*d), d->role}] += 1.0;
  std::vector<double> counts;
  counts.reserve(cells.size());
  for (const auto& [cell, c] : cells) counts.push_back(c);
  const double h = entropy_of_counts(counts);
  return h / std::log2(static_cast<double>(n));
}

}  // namespace

double hardware_entropy(const std::vector<const DeviceRecord*>& devices) {
  return normalized_pair_entropy(devices, [](const DeviceRecord& d) { return d.model; });
}

double firmware_entropy(const std::vector<const DeviceRecord*>& devices) {
  return normalized_pair_entropy(devices, [](const DeviceRecord& d) { return d.firmware; });
}

ProtocolUsage count_protocols(const std::vector<DeviceView>& network) {
  // The distinct constructs seen; there are only seven with a layer.
  std::array<std::string_view, 8> seen;
  std::size_t n = 0;
  ProtocolUsage usage;
  for (const auto& dev : network) {
    for (std::size_t i = 0; i < dev.size(); ++i) {
      const std::string_view construct = dev.facts(i).construct;
      const PlaneLayer layer = layer_of(construct);
      if (layer == PlaneLayer::kNeither ||
          std::find(seen.begin(), seen.begin() + n, construct) != seen.begin() + n)
        continue;
      seen[n++] = construct;
      ++(layer == PlaneLayer::kL2 ? usage.l2 : usage.l3);
    }
  }
  return usage;
}

int count_vlans(const NetworkView& network) {
  const auto& vlans = network.vlans();
  int distinct = 0;
  for (std::size_t i = 0; i < vlans.size(); ++i)
    if (i == 0 || vlans[i].name != vlans[i - 1].name) ++distinct;
  return distinct;
}

void compute_inventory_metrics(const NetworkRecord& net,
                               const std::vector<const DeviceRecord*>& devices, Case& out) {
  out[Practice::kNumWorkloads] = static_cast<double>(net.workloads.size());
  out[Practice::kNumDevices] = static_cast<double>(devices.size());

  std::set<Vendor> vendors;
  std::set<std::string> models, firmwares;
  std::set<Role> roles;
  for (const auto* d : devices) {
    vendors.insert(d->vendor);
    models.insert(d->model);
    firmwares.insert(d->firmware);
    roles.insert(d->role);
  }
  out[Practice::kNumVendors] = static_cast<double>(vendors.size());
  out[Practice::kNumModels] = static_cast<double>(models.size());
  out[Practice::kNumRoles] = static_cast<double>(roles.size());
  out[Practice::kNumFirmwareVersions] = static_cast<double>(firmwares.size());
  out[Practice::kHardwareEntropy] = hardware_entropy(devices);
  out[Practice::kFirmwareEntropy] = firmware_entropy(devices);
}

void compute_config_metrics(const NetworkView& network, Case& out) {
  const ProtocolUsage protos = count_protocols(network.devices());
  out[Practice::kNumL2Protocols] = protos.l2;
  out[Practice::kNumL3Protocols] = protos.l3;
  out[Practice::kNumProtocols] = protos.total();
  out[Practice::kNumVlans] = count_vlans(network);

  const auto instances = extract_routing_instances(network);
  const InstanceStats bgp = instance_stats(instances, "bgp");
  const InstanceStats ospf = instance_stats(instances, "ospf");
  out[Practice::kNumBgpInstances] = bgp.count;
  out[Practice::kNumOspfInstances] = ospf.count;
  out[Practice::kAvgBgpInstanceSize] = bgp.mean_size;
  out[Practice::kAvgOspfInstanceSize] = ospf.mean_size;

  const NetworkComplexity cx = referential_complexity(network);
  out[Practice::kIntraDeviceComplexity] = cx.mean_intra;
  out[Practice::kInterDeviceComplexity] = cx.mean_inter;
}

void compute_design_metrics(const NetworkRecord& net,
                            const std::vector<const DeviceRecord*>& devices,
                            const std::vector<DeviceView>& network, Case& out) {
  compute_inventory_metrics(net, devices, out);
  compute_config_metrics(NetworkView(network), out);
}

void compute_design_metrics(const NetworkRecord& net,
                            const std::vector<const DeviceRecord*>& devices,
                            const std::vector<DeviceConfig>& configs, Case& out) {
  compute_design_metrics(net, devices, views_of(configs), out);
}

}  // namespace mpa
