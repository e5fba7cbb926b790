// The per-device index of config facts (§2.2): each stanza's agnostic
// type and protocol construct, stanza names per agnostic type, and
// interface addresses, derived once per device and read by every config
// analysis: lint (lint.hpp), refs, routing and the design metrics.
#pragma once

#include <cstdint>
#include <map>
#include <ranges>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "config/addr.hpp"
#include "config/stanza.hpp"

namespace mpa {

class LintSource;

/// One device's parsed stanzas with the indexes derived from them. The
/// view points at the stanzas, the device id and `source`, which must
/// outlive it.
class DeviceView {
 public:
  /// A view of `stanzas`, in order, none listed twice; `source`, if
  /// any, must hold one span and pragma set per stanza
  /// (PreconditionError otherwise). A device timeline's handles
  /// (StanzaInterner) are viewed as they are.
  DeviceView(const std::string& device_id, std::vector<const Stanza*> stanzas,
             const LintSource* source = nullptr);
  /// A view of `config`'s stanzas.
  explicit DeviceView(const DeviceConfig& config, const LintSource* source = nullptr);

  /// The stanzas, in order, each as a `const Stanza&`.
  auto stanzas() const {
    return std::views::transform(stanzas_, [](const Stanza* s) -> const Stanza& { return *s; });
  }
  /// Spans + pragmas of the stanzas' text; null when there is no text.
  const LintSource* source() const { return source_; }
  const std::string& device_id() const { return *device_id_; }

  /// Position of `s` in stanzas(); `s` must be one of them.
  std::size_t index_of(const Stanza& s) const;
  /// The stanza's agnostic type (types.hpp), resolved once.
  std::string_view type_of(const Stanza& s) const { return typed_[index_of(s)].type; }
  /// Its protocol construct, resolved once; empty if it has none.
  std::string_view construct_of(const Stanza& s) const { return typed_[index_of(s)].construct; }

  /// Names of stanzas whose agnostic type matches (memoized per type).
  const std::set<std::string>& names_of(std::string_view agnostic) const;
  bool defines(std::string_view agnostic, std::string_view name) const;

  struct IfaceAddr {
    const Stanza* stanza = nullptr;  ///< The owning interface stanza.
    Ipv4Prefix prefix;
  };
  /// Every interface address ("ip address" / "ip-address"), in stanza
  /// and option order, duplicates kept.
  const std::vector<IfaceAddr>& iface_addrs() const { return iface_addrs_; }
  /// True if `ip` is one of the device's interface addresses.
  bool owns(std::uint32_t ip) const;

 private:
  struct Typed {
    std::string_view type;
    std::string_view construct;
  };

  const std::string* device_id_;
  std::vector<const Stanza*> stanzas_;
  HandleIndex positions_;  ///< Where each of stanzas_ sits.
  const LintSource* source_;
  std::vector<Typed> typed_;  ///< Parallel to stanzas_.
  std::vector<IfaceAddr> iface_addrs_;
  mutable std::map<std::string, std::set<std::string>, std::less<>> names_;
};

/// One view per config, in order, without source info.
std::vector<DeviceView> views_of(const std::vector<DeviceConfig>& configs);

}  // namespace mpa
