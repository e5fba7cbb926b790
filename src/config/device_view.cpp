#include "config/device_view.hpp"

#include "config/types.hpp"

namespace mpa {

DeviceView::DeviceView(const DeviceConfig& config, const LintSource* source)
    : config_(&config), source_(source) {
  for (const auto& s : config.stanzas()) {
    if (normalize_type(s.type) != "interface") continue;
    for (const auto& o : s.options) {
      if (o.key != "ip address" && o.key != "ip-address") continue;
      if (const auto p = parse_prefix(o.value)) iface_addrs_.push_back(IfaceAddr{&s, *p});
    }
  }
}

const std::set<std::string>& DeviceView::names_of(std::string_view agnostic) const {
  const auto it = names_.find(agnostic);
  if (it != names_.end()) return it->second;
  std::set<std::string> names;
  for (const auto& s : config_->stanzas())
    if (normalize_type(s.type) == agnostic) names.insert(s.name);
  return names_.emplace(std::string(agnostic), std::move(names)).first->second;
}

bool DeviceView::defines(std::string_view agnostic, std::string_view name) const {
  const auto& names = names_of(agnostic);
  return names.find(std::string(name)) != names.end();
}

bool DeviceView::owns(std::uint32_t ip) const {
  for (const auto& a : iface_addrs_)
    if (a.prefix.addr == ip) return true;
  return false;
}

std::vector<DeviceView> views_of(const std::vector<DeviceConfig>& configs) {
  std::vector<DeviceView> views;
  views.reserve(configs.size());
  for (const auto& c : configs) views.emplace_back(c);
  return views;
}

}  // namespace mpa
