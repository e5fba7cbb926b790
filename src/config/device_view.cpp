#include "config/device_view.hpp"

#include "config/lint.hpp"
#include "config/types.hpp"
#include "util/error.hpp"

namespace mpa {

DeviceView::DeviceView(const std::string& device_id, std::vector<const Stanza*> stanzas,
                       const LintSource* source)
    : device_id_(&device_id),
      stanzas_(std::move(stanzas)),
      positions_(stanzas_),
      source_(source) {
  require(source == nullptr || source->size() == stanzas_.size(),
          "DeviceView: source describes a different number of stanzas than the config");
  typed_.reserve(stanzas_.size());
  for (const Stanza* s : stanzas_) {
    const Typed& t = typed_.emplace_back(Typed{normalize_type(s->type), constructs_of(s->type)});
    if (t.type != "interface") continue;
    for (const auto& o : s->options) {
      if (o.key != "ip address" && o.key != "ip-address") continue;
      if (const auto p = parse_prefix(o.value)) iface_addrs_.push_back(IfaceAddr{s, *p});
    }
  }
}

DeviceView::DeviceView(const DeviceConfig& config, const LintSource* source)
    : DeviceView(config.device_id(), handles_of(config), source) {}

std::size_t DeviceView::index_of(const Stanza& s) const {
  const std::size_t i = positions_.find(&s);
  if (i == HandleIndex::npos)
    throw PreconditionError("DeviceView: stanza is not from " + device_id() + "'s config");
  return i;
}

const std::set<std::string>& DeviceView::names_of(std::string_view agnostic) const {
  const auto it = names_.find(agnostic);
  if (it != names_.end()) return it->second;
  std::set<std::string> names;
  for (std::size_t i = 0; i < stanzas_.size(); ++i)
    if (typed_[i].type == agnostic) names.insert(stanzas_[i]->name);
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
