// Vendor-agnostic stanza-type normalization (§2.2).
//
// "Type names differ between vendors: e.g., an ACL is defined in Cisco
// IOS using an ip access-list stanza, while a firewall filter stanza is
// used in Juniper JunOS. We address this by manually identifying stanza
// types on different vendors that serve the same purpose, and we
// convert these to a vendor-agnostic type identifier."
#pragma once

#include <cstdint>
#include <string_view>

namespace mpa {

/// Map a vendor-native stanza type to the vendor-agnostic identifier
/// ("interface", "vlan", "acl", "router", "pool", "user", ...). Unknown
/// types map to themselves, so new constructs degrade gracefully.
/// Known ids are static literals; for an unknown type the result
/// aliases `native_type` and is valid only while that string lives.
std::string_view normalize_type(std::string_view native_type);

/// Data/control-plane construct classification used for the D4/D5
/// protocol-count metrics. L2 constructs: vlan, spanning-tree,
/// link-aggregation, udld, dhcp-relay. L3 constructs: bgp, ospf.
enum class PlaneLayer : std::uint8_t { kL2, kL3, kNeither };

/// Which plane layer a *protocol construct* belongs to, keyed by the
/// construct identifier returned by constructs_of(). "bgp"/"ospf" are
/// L3; "vlan"/"spanning-tree"/"link-aggregation"/"udld"/"dhcp-relay"
/// are L2; everything else (including no construct) is kNeither.
PlaneLayer layer_of(std::string_view construct);

/// The protocol construct a stanza of the given native type
/// instantiates (e.g. "router bgp" -> "bgp", "vlan" -> "vlan"), or an
/// empty view when it instantiates none. A stanza instantiates at most
/// one. Constructs are the unit of Figure 11(b)'s protocol counts. Like
/// normalize_type(), the result may alias `native_type`.
std::string_view constructs_of(std::string_view native_type);

}  // namespace mpa
