// Config forensics: using the configuration substrate directly, the way
// an operator would point MPA at a RANCID archive.
//
// Demonstrates: parsing vendor-flavoured configs, vendor-agnostic change
// typing across dialects, reference extraction, and routing-instance
// discovery — all on hand-written config text.
#include <iostream>

#include "config/dialect.hpp"
#include "config/diff.hpp"
#include "config/refs.hpp"
#include "config/routing.hpp"
#include "config/types.hpp"

int main() {
  using namespace mpa;

  // Two snapshots of an IOS-like edge router, as archived text.
  const std::string before_text =
      "interface Eth0\n"
      "  ip address 10.0.1.1/24\n"
      "  ip access-group edge-in\n"
      "!\n"
      "ip access-list edge-in\n"
      "  permit tcp any any eq 443\n"
      "!\n"
      "router bgp 65001\n"
      "  neighbor 10.0.1.2 remote-as 65001\n"
      "  network 10.0.1.0/24\n"
      "!\n";
  const std::string after_text =
      "interface Eth0\n"
      "  ip address 10.0.1.1/24\n"
      "  ip access-group edge-in\n"
      "!\n"
      "ip access-list edge-in\n"
      "  permit tcp any any eq 443\n"
      "  permit tcp any any eq 80\n"
      "!\n"
      "router bgp 65001\n"
      "  neighbor 10.0.1.2 remote-as 65001\n"
      "  network 10.0.1.0/24\n"
      "  network 10.0.9.0/24\n"
      "!\n";

  const DeviceConfig before = parse(before_text, Dialect::kIosLike, "edge-rt0");
  const DeviceConfig after = parse(after_text, Dialect::kIosLike, "edge-rt0");

  std::cout << "-- stanza-level diff (vendor-agnostic change types) --\n";
  for (const auto& change : diff(before, after)) {
    std::cout << "  " << to_string(change.kind) << " " << change.native_type << " '"
              << change.name << "' -> type '" << change.agnostic_type << "' ("
              << change.options_touched << " option lines)\n";
  }

  // A JunOS-like peer: the same ACL concept spelled differently.
  const std::string junos_text =
      "interfaces xe-0/0/0 {\n"
      "    ip-address 10.0.1.2/24;\n"
      "    filter edge-in;\n"
      "}\n"
      "firewall-filter edge-in {\n"
      "    permit tcp any any eq 443;\n"
      "}\n"
      "protocols-bgp 65001 {\n"
      "    neighbor 10.0.1.1 remote-as 65001;\n"
      "    network 10.0.1.0/24;\n"
      "}\n";
  const DeviceConfig peer = parse(junos_text, Dialect::kJunosLike, "edge-rt1");

  std::cout << "\n-- vendor-agnostic typing --\n"
            << "  IOS 'ip access-list'     -> " << normalize_type("ip access-list") << "\n"
            << "  JunOS 'firewall-filter'  -> " << normalize_type("firewall-filter") << "\n";

  // One view per device, and the network's index over them: what every
  // config analysis reads.
  const std::vector<DeviceConfig> network{after, peer};
  const std::vector<DeviceView> views = views_of(network);
  const NetworkView index(views);
  std::cout << "\n-- referential complexity --\n";
  for (std::size_t d = 0; d < views.size(); ++d) {
    std::cout << "  " << views[d].device_id() << ": " << count_intra_refs(views[d])
              << " intra-device, " << count_inter_refs(index, d) << " inter-device references\n";
  }

  std::cout << "\n-- routing instances --\n";
  for (const auto& inst : extract_routing_instances(index)) {
    std::cout << "  " << inst.protocol << " instance with " << inst.size() << " member(s):";
    for (const auto& m : inst.member_devices) std::cout << ' ' << m;
    std::cout << "\n";
  }
  return 0;
}
