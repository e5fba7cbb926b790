// Configuration reference extraction (Table 1, D6).
//
// Following Benson et al.'s referential-complexity metrics, we count:
//
//  * intra-device references — options in one stanza that name another
//    stanza on the same device (an interface attaching an ACL, an
//    interface's VLAN membership, a virtual server naming a pool, a
//    routing process covering an interface's subnet, ...);
//  * inter-device references — options on one device that name entities
//    defined on other devices of the same network (BGP neighbor
//    addresses, VLANs spanning devices, OSPF networks shared with peers).
//
// "These metrics capture the configuration complexity imposed in
// aggregate by all aspects of a network's design."
#pragma once

#include "config/device_view.hpp"

namespace mpa {

/// Count the intra-device references inside one device.
int count_intra_refs(const DeviceView& dev);

/// Count references from device `device` of `network` (its position in
/// devices()) to entities configured on the network's other devices.
int count_inter_refs(const NetworkView& network, std::size_t device);

/// Mean intra/inter reference counts over a network's devices —
/// the D6 metrics ("we enumerate the *average* number of inter- and
/// intra-device configuration references in a network").
struct NetworkComplexity {
  double mean_intra = 0;
  double mean_inter = 0;
};

NetworkComplexity referential_complexity(const NetworkView& network);

}  // namespace mpa
