// Routing-instance extraction (Table 1, D5), after Benson et al.
//
// "We extract routing instances from device configurations, where each
// instance is a collection of routing processes of the same type (e.g.,
// OSPF processes) on different devices that are in the transitive
// closure of the 'adjacent-to' relationship."
//
// Adjacency rules per protocol, between processes on different devices:
//  * BGP  — process A is adjacent to process B if A names one of B's
//           device interface addresses in a `neighbor` statement (or
//           vice versa);
//  * OSPF — adjacent if their `network` statements cover a common
//           subnet;
//  * MSTP — spanning-tree processes sharing a non-empty region name.
#pragma once

#include <string>
#include <vector>

#include "config/device_view.hpp"

namespace mpa {

/// One routing instance: the transitive closure of adjacent processes.
struct RoutingInstance {
  std::string protocol;
  std::vector<std::string> member_devices;  ///< One entry per process.

  std::size_t size() const { return member_devices.size(); }
};

/// Group the processes of router and spanning-tree stanzas into
/// instances, in the order of each instance's first process (device,
/// then stanza order), members in process order.
std::vector<RoutingInstance> extract_routing_instances(const NetworkView& network);

/// Count and mean size of a protocol's instances (D5 metrics).
struct InstanceStats {
  int count = 0;
  double mean_size = 0;
};

InstanceStats instance_stats(const std::vector<RoutingInstance>& instances,
                             std::string_view protocol);

}  // namespace mpa
