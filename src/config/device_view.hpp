// The per-device index of config facts (§2.2): each stanza's facts
// (stanza.hpp: StanzaFacts) by position, stanza names per agnostic type,
// and interface addresses, read by every config analysis: lint
// (lint.hpp), refs, routing and the design metrics.
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

  struct IfaceAddr {
    std::size_t stanza = 0;  ///< Position of the owning interface stanza.
    Ipv4Prefix prefix;
  };
  /// Every interface address ("ip address" / "ip-address"), in stanza
  /// and option order, duplicates kept.
  const std::vector<IfaceAddr>& iface_addrs() const { return iface_addrs_; }
  /// True if `ip` is one of the device's interface addresses.
  bool owns(std::uint32_t ip) const;

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
  std::vector<TypedName> names_;  ///< Sorted, distinct.
  std::vector<IfaceAddr> iface_addrs_;
};

/// One view per config, in order, without source info.
std::vector<DeviceView> views_of(const std::vector<DeviceConfig>& configs);

}  // namespace mpa
