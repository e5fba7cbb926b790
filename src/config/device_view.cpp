#include "config/device_view.hpp"

#include <functional>

#include "config/lint.hpp"
#include "config/types.hpp"
#include "util/error.hpp"

namespace mpa {

DeviceView::DeviceView(const DeviceConfig& config, const LintSource* source)
    : config_(&config), source_(source) {
  require(source == nullptr || source->size() == config.stanzas().size(),
          "DeviceView: source describes a different number of stanzas than the config");
  typed_.reserve(config.stanzas().size());
  for (const auto& s : config.stanzas()) {
    const Typed& t = typed_.emplace_back(Typed{normalize_type(s.type), constructs_of(s.type)});
    if (t.type != "interface") continue;
    for (const auto& o : s.options) {
      if (o.key != "ip address" && o.key != "ip-address") continue;
      if (const auto p = parse_prefix(o.value)) iface_addrs_.push_back(IfaceAddr{&s, *p});
    }
  }
}

std::size_t DeviceView::index_of(const Stanza& s) const {
  const auto& all = config_->stanzas();
  const std::less<const Stanza*> before;
  if (before(&s, all.data()) || !before(&s, all.data() + all.size()))
    throw PreconditionError("DeviceView: stanza is not from " + device_id() + "'s config");
  return static_cast<std::size_t>(&s - all.data());
}

const std::set<std::string>& DeviceView::names_of(std::string_view agnostic) const {
  const auto it = names_.find(agnostic);
  if (it != names_.end()) return it->second;
  std::set<std::string> names;
  for (const auto& s : config_->stanzas())
    if (type_of(s) == agnostic) names.insert(s.name);
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
