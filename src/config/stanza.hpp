// The stanza-structured configuration model (§2.2).
//
// "Configuration information is arranged as stanzas, each containing a
// set of options and values pertaining to a particular construct — e.g.
// a specific interface, VLAN, routing instance, or ACL. A stanza is
// identified by a type and a name."
//
// DeviceConfig is the in-memory form; the dialect layer (dialect.hpp)
// renders it to / parses it from vendor-flavoured text.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "config/addr.hpp"
#include "util/error.hpp"

namespace mpa {

/// One key/value option line inside a stanza. `value` may be empty for
/// flag-style options (e.g. "shutdown").
struct Option {
  std::string key;
  std::string value;

  friend bool operator==(const Option&, const Option&) = default;
};

/// A configuration stanza: a typed, named block of options.
/// `type` is the vendor-native type string (e.g. "ip access-list" on an
/// IOS-like device, "firewall-filter" on a JunOS-like one); types.hpp
/// maps it to the vendor-agnostic identifier, and facts_of() resolves
/// that once per stanza.
struct Stanza {
  std::string type;
  std::string name;
  std::vector<Option> options;

  /// Append an option.
  void set(std::string key, std::string value);
  /// Replace the first option with `key` (appends if absent).
  void replace(std::string_view key, std::string value);

  friend bool operator==(const Stanza&, const Stanza&) = default;
};

/// A full device configuration: an ordered list of stanzas.
class DeviceConfig {
 public:
  DeviceConfig() = default;
  explicit DeviceConfig(std::string device_id) : device_id_(std::move(device_id)) {}

  const std::string& device_id() const { return device_id_; }
  void set_device_id(std::string id) { device_id_ = std::move(id); }

  const std::vector<Stanza>& stanzas() const { return stanzas_; }
  std::vector<Stanza>& stanzas() { return stanzas_; }

  /// Find the stanza with this native type and name, or nullptr.
  const Stanza* find(std::string_view type, std::string_view name) const;
  Stanza* find(std::string_view type, std::string_view name);

  /// All stanzas with this native type.
  std::vector<const Stanza*> all_of_type(std::string_view type) const;

  /// Append a stanza; (type, name) must not already exist.
  void add(Stanza s);
  /// Remove a stanza; returns false if it was not present.
  bool remove(std::string_view type, std::string_view name);

  friend bool operator==(const DeviceConfig&, const DeviceConfig&) = default;

 private:
  std::string device_id_;
  std::vector<Stanza> stanzas_;
};

/// One option of a stanza, viewed in place.
struct OptionView {
  std::string_view key;
  std::string_view value;

  friend auto operator<=>(const OptionView&, const OptionView&) = default;
};

/// A VLAN id that an option references.
struct VlanRef {
  std::string_view id;
  /// Set by "switchport access vlan", the one form reference counting
  /// reads; "spanning-tree vlan" and "vlan-members" leave it unset.
  bool access = false;

  friend bool operator==(const VlanRef&, const VlanRef&) = default;
};

/// A "neighbor <address> [remote-as <asn>]" option.
struct BgpNeighbor {
  std::string_view address;         ///< The first token.
  std::optional<std::uint32_t> ip;  ///< `address` parsed; nullopt when malformed.
  std::string_view remote_as;       ///< <asn> when the second token is "remote-as".

  friend bool operator==(const BgpNeighbor&, const BgpNeighbor&) = default;
};

/// A "network <prefix> [area <id>]" option.
struct NetworkStatement {
  std::string_view prefix;           ///< The first token.
  std::optional<Ipv4Prefix> parsed;  ///< `prefix` parsed; nullopt when malformed.
  std::string_view area;             ///< <id> when the second token is "area".

  friend bool operator==(const NetworkStatement&, const NetworkStatement&) = default;
};

/// What the config analyses read of one stanza, derived once by
/// facts_of(): lint rules, refs, routing, the design metrics and diff
/// read these fields instead of resolving the type or re-parsing the
/// options on every visit. The views point into the stanza, which must
/// outlive the facts unchanged. List fields keep option order; a value
/// option without a first token (all blanks) is left out of the lists
/// that read tokens (acls, neighbors, networks).
struct StanzaFacts {
  const Stanza* stanza = nullptr;
  std::string_view type;       ///< The agnostic type (types.hpp: normalize_type).
  std::string_view construct;  ///< The protocol construct (constructs_of); empty if none.
  std::size_t key_hash = 0;    ///< Hash of the (native type, name) key diff joins on.
  std::vector<OptionView> options;  ///< Every option, sorted by (key, value).

  std::vector<Ipv4Prefix> addrs;  ///< "ip address" / "ip-address" values that parse.
  std::vector<std::string_view> acls;  ///< First token of "ip access-group" / "filter".
  std::vector<VlanRef> vlans;  ///< "switchport access vlan", "spanning-tree vlan", "vlan-members".
  std::vector<std::string_view> interfaces;  ///< "interface" values (VLAN members).
  std::vector<std::string_view> members;     ///< "member" values (LAG members).
  std::vector<std::string_view> pools;       ///< "pool" values.
  std::vector<BgpNeighbor> neighbors;        ///< "neighbor" values.
  std::vector<NetworkStatement> networks;    ///< "network" values.
  std::vector<OptionView> terms;             ///< "permit" / "deny" options (ACL terms).
  /// Positions in `terms` of a term equal to an earlier one, both before
  /// `reachable`.
  std::vector<std::size_t> shadowed;
  /// Terms from this position on follow a catch-all term ("any",
  /// "any any", "ip any any"); terms.size() when none is one.
  std::size_t reachable = 0;
  std::optional<std::string_view> mtu;     ///< The first "mtu" value.
  std::optional<std::string_view> region;  ///< The first "region" value.
  /// An address, ACL or VLAN-membership option puts an interface in use;
  /// "shutdown" / "disable" shuts it.
  bool in_use = false;
  bool shut = false;

  friend bool operator==(const StanzaFacts&, const StanzaFacts&) = default;
};

/// The facts of `s`, which must outlive them unchanged.
StanzaFacts facts_of(const Stanza& s);

/// The facts of `config`'s stanzas, in order; `config` must outlive
/// them unchanged.
std::vector<StanzaFacts> facts_of(const DeviceConfig& config);

}  // namespace mpa
