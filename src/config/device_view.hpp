// The indexes of config facts (§2.2) that every config analysis reads:
// lint (lint.hpp), refs, routing and the design metrics. DeviceView
// holds one device's: each stanza's facts (stanza.hpp: StanzaFacts) by
// position, the names its stanzas define and reference per agnostic
// type, and interface addresses. NetworkView holds a network's
// cross-device facts, gathered once from its device views.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ranges>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "config/addr.hpp"
#include "config/stanza.hpp"

namespace mpa {

class LintSource;

/// One device's stanzas with their facts and the indexes derived from
/// them, read by position. The view points at the stanzas, the device
/// id and `source`, which must outlive it.
class DeviceView {
 public:
  /// A view of facts built already, in order: a device timeline's
  /// (StanzaInterner::read), viewed as they are. `facts` must outlive
  /// the view. `source`, if any, must hold one span and pragma set per
  /// stanza (PreconditionError otherwise).
  DeviceView(const std::string& device_id, std::span<const StanzaFacts* const> facts,
             const LintSource* source = nullptr);
  /// A view of `config`'s stanzas that builds each one's facts.
  explicit DeviceView(const DeviceConfig& config, const LintSource* source = nullptr);

  /// Number of stanzas; positions run from 0 to size() - 1.
  std::size_t size() const { return facts_.size(); }
  /// The facts of the stanza at `position` (PreconditionError past the
  /// last).
  const StanzaFacts& facts(std::size_t position) const {
    require(position < facts_.size(), [&] {
      return "DeviceView: no stanza at position " + std::to_string(position) + " of " +
             device_id();
    });
    return *facts_[position];
  }
  /// The stanza at `position`.
  const Stanza& stanza(std::size_t position) const { return *facts(position).stanza; }
  /// Spans + pragmas of the stanzas' text; null when there is no text.
  const LintSource* source() const { return source_; }
  const std::string& device_id() const { return *device_id_; }

  /// The distinct names of stanzas of agnostic type `agnostic`, sorted.
  auto names_of(std::string_view agnostic) const {
    const auto [lo, hi] = std::equal_range(names_.begin(), names_.end(), TypedName{agnostic, {}},
                                           [](const TypedName& a, const TypedName& b) {
                                             return a.type < b.type;
                                           });
    return std::ranges::subrange(lo, hi) | std::views::transform(&TypedName::name);
  }
  bool defines(std::string_view agnostic, std::string_view name) const {
    return std::binary_search(names_.begin(), names_.end(), TypedName{agnostic, name});
  }
  /// Whether a stanza of this device names `name` as a stanza of agnostic
  /// type `agnostic`: an interface its ACLs ("acl") and VLAN ids
  /// ("vlan"), a VLAN its member interfaces and a link aggregation its
  /// members ("interface"), a virtual server its pools ("pool"). The same
  /// options on any other stanza type reference nothing.
  bool referenced(std::string_view agnostic, std::string_view name) const {
    return std::binary_search(referenced_.begin(), referenced_.end(), TypedName{agnostic, name});
  }

  struct IfaceAddr {
    std::size_t stanza = 0;  ///< Position of the owning interface stanza.
    Ipv4Prefix prefix;
  };
  /// Every interface address ("ip address" / "ip-address"), in stanza
  /// and option order, duplicates kept.
  const std::vector<IfaceAddr>& iface_addrs() const { return iface_addrs_; }

 private:
  struct TypedName {
    std::string_view type;
    std::string_view name;
    friend auto operator<=>(const TypedName&, const TypedName&) = default;
  };
  /// Facts this view built, shared by its copies.
  struct Owned {
    std::vector<StanzaFacts> facts;
    std::vector<const StanzaFacts*> handles;
  };

  /// Builds the names and addresses from facts_.
  void index();

  const std::string* device_id_;
  std::shared_ptr<const Owned> owned_;
  std::span<const StanzaFacts* const> facts_;
  const LintSource* source_;
  std::vector<TypedName> names_;       ///< Sorted, distinct.
  std::vector<TypedName> referenced_;  ///< Sorted, distinct.
  std::vector<IfaceAddr> iface_addrs_;
};

/// One view per config, in order, without source info.
std::vector<DeviceView> views_of(const std::vector<DeviceConfig>& configs);

/// One network's cross-device facts: which devices carry an interface
/// address or subnet, which define a VLAN, and which routing processes
/// run where. Each list is gathered from the views in device order and
/// then position order and sorted by its key with ties kept in that
/// order, so the first entry for a key is the one a walk over the
/// devices meets first. A device is its position in devices(). The
/// index borrows the views, which must outlive it.
class NetworkView {
 public:
  explicit NetworkView(const std::vector<DeviceView>& devices);
  explicit NetworkView(std::vector<DeviceView>&&) = delete;

  const std::vector<DeviceView>& devices() const { return *devices_; }

  /// An interface address and where it is configured.
  struct Addr {
    std::uint32_t addr = 0;
    std::size_t device = 0;
    std::size_t index = 0;  ///< Position in that device's iface_addrs().
    friend auto operator<=>(const Addr&, const Addr&) = default;
  };
  /// Every interface that carries `ip`; its first is the address's owner.
  std::span<const Addr> carriers_of(std::uint32_t ip) const;
  /// The first interface that carries `ip`, or null when none does.
  const Addr* owner_of(std::uint32_t ip) const;

  /// The subnet of an interface address (`prefix.subnet()`).
  struct Subnet {
    Ipv4Prefix prefix;
    std::size_t device = 0;
    std::size_t stanza = 0;  ///< Position of the interface stanza.
    friend auto operator<=>(const Subnet&, const Subnet&) = default;
  };
  /// Every interface subnet, one entry per address, sorted by subnet.
  const std::vector<Subnet>& subnets() const { return subnets_; }
  /// Every interface whose address lies in `subnet`, a canonical prefix.
  std::span<const Subnet> carriers_of(const Ipv4Prefix& subnet) const;

  /// A VLAN name and a device that defines it.
  struct VlanDef {
    std::string_view name;
    std::size_t device = 0;
    friend auto operator<=>(const VlanDef&, const VlanDef&) = default;
  };
  /// Every (VLAN, defining device) pair, sorted by name.
  const std::vector<VlanDef>& vlans() const { return vlans_; }
  /// The devices that define VLAN `name`.
  std::span<const VlanDef> definers_of(std::string_view name) const;

  /// A routing process: a stanza whose construct is bgp or ospf, or a
  /// spanning-tree stanza, which runs mstp.
  struct Process {
    std::size_t device = 0;
    std::size_t stanza = 0;
    std::string_view protocol;  ///< "bgp", "ospf" or "mstp".
    std::string_view region;    ///< mstp: the first "region" value, else the stanza name.
  };
  /// Every process, in device and then stanza order.
  const std::vector<Process>& processes() const { return processes_; }
  /// The processes of `device`, in stanza order.
  std::span<const Process> processes_of(std::size_t device) const;
  /// The first BGP process of `device`, or null when it runs none.
  const Process* bgp_process_of(std::size_t device) const;

 private:
  const std::vector<DeviceView>* devices_;
  std::vector<Addr> addrs_;
  std::vector<Subnet> subnets_;
  std::vector<VlanDef> vlans_;
  std::vector<Process> processes_;
};

}  // namespace mpa
