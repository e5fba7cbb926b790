#include "config/device_view.hpp"

#include "config/dialect.hpp"
#include "util/error.hpp"

namespace mpa {

DeviceView::DeviceView(const std::string& device_id, std::span<const StanzaFacts* const> facts,
                       const LintSource* source)
    : device_id_(&device_id), facts_(facts), source_(source) {
  index();
}

DeviceView::DeviceView(const DeviceConfig& config, const LintSource* source)
    : device_id_(&config.device_id()), source_(source) {
  auto owned = std::make_shared<Owned>();
  owned->facts = facts_of(config);
  owned->handles.reserve(owned->facts.size());
  for (const StanzaFacts& f : owned->facts) owned->handles.push_back(&f);
  facts_ = owned->handles;
  owned_ = std::move(owned);
  index();
}

void DeviceView::index() {
  require(source_ == nullptr || source_->size() == facts_.size(),
          "DeviceView: source describes a different number of stanzas than the config");
  names_.reserve(facts_.size());
  for (std::size_t i = 0; i < facts_.size(); ++i) {
    const StanzaFacts& f = *facts_[i];
    names_.push_back(TypedName{f.type, f.stanza->name});
    if (f.type != "interface") continue;
    for (const Ipv4Prefix& p : f.addrs) iface_addrs_.push_back(IfaceAddr{i, p});
  }
  std::sort(names_.begin(), names_.end());
  names_.erase(std::unique(names_.begin(), names_.end()), names_.end());
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
