// Design-practice inference (Table 1, D1-D6).
//
// Inputs are the inventory records for one network plus a DeviceView
// of each device's parsed configuration state (at some point in time,
// typically the end of an analysis month).
#pragma once

#include <vector>

#include "config/device_view.hpp"
#include "metrics/case_table.hpp"
#include "model/inventory.hpp"

namespace mpa {

/// Normalized hardware-heterogeneity entropy (D3):
///   -sum_ij p_ij log2 p_ij / log2 N
/// where p_ij is the fraction of devices of model i playing role j and
/// N the number of devices. 0 for empty or single-device networks.
double hardware_entropy(const std::vector<const DeviceRecord*>& devices);

/// Firmware-heterogeneity entropy: same construction over
/// (firmware version, role) pairs.
double firmware_entropy(const std::vector<const DeviceRecord*>& devices);

/// Protocol constructs in use across a network's configs (D4/D5).
struct ProtocolUsage {
  int l2 = 0;    ///< Distinct L2 constructs (vlan, stp, lag, udld, dhcp-relay).
  int l3 = 0;    ///< Distinct L3 constructs (bgp, ospf).
  int total() const { return l2 + l3; }
};

ProtocolUsage count_protocols(const std::vector<DeviceView>& network);

/// Number of distinct VLANs configured network-wide (D4 instance count).
int count_vlans(const NetworkView& network);

/// Fill the design-practice fields that depend on the inventory alone
/// (D1-D3: workloads, device, vendor, model, role and firmware counts,
/// and both entropies), which hold for every month of a network.
void compute_inventory_metrics(const NetworkRecord& net,
                               const std::vector<const DeviceRecord*>& devices, Case& out);

/// Fill the design-practice fields read from the configs (D4-D6:
/// protocols, VLANs, routing instances, referential complexity).
void compute_config_metrics(const NetworkView& network, Case& out);

/// Fill the design-practice fields of `out` from inventory + configs:
/// compute_inventory_metrics() and compute_config_metrics() over the
/// views' index. Operational fields and tickets are left untouched.
void compute_design_metrics(const NetworkRecord& net,
                            const std::vector<const DeviceRecord*>& devices,
                            const std::vector<DeviceView>& network, Case& out);

/// compute_design_metrics() over a view of each config.
void compute_design_metrics(const NetworkRecord& net,
                            const std::vector<const DeviceRecord*>& devices,
                            const std::vector<DeviceConfig>& configs, Case& out);

}  // namespace mpa
