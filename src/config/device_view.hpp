// The per-device index of config facts (§2.2): each stanza's agnostic
// type and protocol construct, stanza names per agnostic type, and
// interface addresses, derived once per device and read by every config
// analysis: lint (lint.hpp), refs, routing and the design metrics.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "config/addr.hpp"
#include "config/stanza.hpp"

namespace mpa {

class LintSource;

/// One device's parsed config with the indexes derived from it. The
/// view points into `config` (and `source`), which must outlive it.
class DeviceView {
 public:
  /// `source`, if any, must hold one span and pragma set per stanza of
  /// `config` (PreconditionError otherwise).
  explicit DeviceView(const DeviceConfig& config, const LintSource* source = nullptr);

  const DeviceConfig& config() const { return *config_; }
  /// Spans + pragmas of the config's text; null when there is no text.
  const LintSource* source() const { return source_; }
  const std::string& device_id() const { return config_->device_id(); }

  /// Position of `s` in config().stanzas(); `s` must be one of them.
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

  const DeviceConfig* config_;
  const LintSource* source_;
  std::vector<Typed> typed_;  ///< Parallel to config_->stanzas().
  std::vector<IfaceAddr> iface_addrs_;
  mutable std::map<std::string, std::set<std::string>, std::less<>> names_;
};

/// One view per config, in order, without source info.
std::vector<DeviceView> views_of(const std::vector<DeviceConfig>& configs);

}  // namespace mpa
