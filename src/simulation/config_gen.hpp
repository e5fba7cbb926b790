// Initial configuration synthesis for a sampled network design.
//
// Builds a consistent set of per-device configurations: link subnets
// between devices, VLANs spanning switches, ACLs attached to
// interfaces, BGP/OSPF processes wired so the extraction layer
// recovers exactly the designed instances, middlebox pools, and the
// management-plane plumbing (users, snmp, ntp, syslog, sflow, qos).
//
// Everything is emitted in the *device's own dialect* — the analytics
// pipeline has to cope with vendor-specific stanza types and keys, as
// it would on real archives.
#pragma once

#include <map>
#include <string>

#include "config/dialect.hpp"
#include "config/stanza.hpp"
#include "simulation/network_design.hpp"
#include "util/rng.hpp"

namespace mpa {

/// Dialect-sensitive stanza-type / option-key vocabulary, so the
/// generator and the change process speak each vendor's language.
struct DialectVocab {
  Dialect dialect = Dialect::kIosLike;

  std::string interface_type() const;
  std::string vlan_type() const;
  std::string acl_type() const;
  std::string bgp_type() const;
  std::string ospf_type() const;
  std::string mstp_type() const;
  std::string lag_type() const;
  std::string user_type() const;
  std::string snmp_type() const;
  std::string qos_type() const;

  std::string ip_address_key() const;   ///< "ip address" vs "ip-address"
  std::string acl_attach_key() const;   ///< "ip access-group" vs "filter"
  std::string iface_name(int k) const;  ///< "Eth3" vs "xe-0/0/3"
};

DialectVocab vocab_for(Vendor v);

/// A generated network: the design plus the live per-device configs the
/// change process will mutate over time.
struct GeneratedNetwork {
  NetworkDesign design;
  std::map<std::string, DeviceConfig> configs;  ///< device id -> config.
  std::map<std::string, Vendor> vendor_of;      ///< device id -> vendor.

  DeviceConfig& config(const std::string& device_id);
};

/// Build initial configs for every device of `design`.
GeneratedNetwork generate_configs(NetworkDesign design, Rng& rng);

}  // namespace mpa
