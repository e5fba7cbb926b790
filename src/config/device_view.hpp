// The per-device index of config facts (§2.2): stanza names per
// vendor-agnostic type and interface addresses, derived once per
// device and read by the lint rules (lint.hpp), reference counting
// (refs.hpp) and routing-instance extraction (routing.hpp).
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
  explicit DeviceView(const DeviceConfig& config, const LintSource* source = nullptr);

  const DeviceConfig& config() const { return *config_; }
  /// Spans + pragmas of the config's text; null when there is no text.
  const LintSource* source() const { return source_; }
  const std::string& device_id() const { return config_->device_id(); }

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
  const DeviceConfig* config_;
  const LintSource* source_;
  std::vector<IfaceAddr> iface_addrs_;
  mutable std::map<std::string, std::set<std::string>, std::less<>> names_;
};

/// One view per config, in order, without source info.
std::vector<DeviceView> views_of(const std::vector<DeviceConfig>& configs);

}  // namespace mpa
