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

namespace {

template <typename T>
void sort_distinct(std::vector<T>& items) {
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
}

}  // namespace

void DeviceView::index() {
  require(source_ == nullptr || source_->size() == facts_.size(),
          "DeviceView: source describes a different number of stanzas than the config");
  const auto refer = [this](std::string_view type, auto&& names) {
    for (const std::string_view name : names) referenced_.push_back(TypedName{type, name});
  };
  names_.reserve(facts_.size());
  for (std::size_t i = 0; i < facts_.size(); ++i) {
    const StanzaFacts& f = *facts_[i];
    names_.push_back(TypedName{f.type, f.stanza->name});
    if (f.type == "interface") {
      for (const Ipv4Prefix& p : f.addrs) iface_addrs_.push_back(IfaceAddr{i, p});
      refer("acl", f.acls);
      refer("vlan", f.vlans | std::views::transform(&VlanRef::id));
    } else if (f.type == "vlan") {
      refer("interface", f.interfaces);
    } else if (f.type == "link-aggregation") {
      refer("interface", f.members);
    } else if (f.type == "virtual-server") {
      refer("pool", f.pools);
    }
  }
  sort_distinct(names_);
  sort_distinct(referenced_);
}

std::vector<DeviceView> views_of(const std::vector<DeviceConfig>& configs) {
  std::vector<DeviceView> views;
  views.reserve(configs.size());
  for (const auto& c : configs) views.emplace_back(c);
  return views;
}

NetworkView::NetworkView(const std::vector<DeviceView>& devices) : devices_(&devices) {
  for (std::size_t d = 0; d < devices.size(); ++d) {
    const DeviceView& dev = devices[d];
    for (std::size_t k = 0; k < dev.iface_addrs().size(); ++k) {
      const DeviceView::IfaceAddr& a = dev.iface_addrs()[k];
      addrs_.push_back(Addr{a.prefix.addr, d, k});
      subnets_.push_back(Subnet{a.prefix.subnet(), d, a.stanza});
    }
    for (const std::string_view name : dev.names_of("vlan")) vlans_.push_back(VlanDef{name, d});
    for (std::size_t i = 0; i < dev.size(); ++i) {
      const StanzaFacts& f = dev.facts(i);
      if (f.construct == "bgp" || f.construct == "ospf")
        processes_.push_back(Process{d, i, f.construct, {}});
      else if (f.type == "spanning-tree")
        processes_.push_back(Process{d, i, "mstp", f.region.value_or(f.stanza->name)});
    }
  }
  // Each entry ends in its device and position, so sorting whole
  // entries keeps the ties of a key in gathering order.
  std::sort(addrs_.begin(), addrs_.end());
  std::sort(subnets_.begin(), subnets_.end());
  std::sort(vlans_.begin(), vlans_.end());
}

std::span<const NetworkView::Addr> NetworkView::carriers_of(std::uint32_t ip) const {
  const auto run = std::ranges::equal_range(addrs_, ip, {}, &Addr::addr);
  return {run.begin(), run.end()};
}

const NetworkView::Addr* NetworkView::owner_of(std::uint32_t ip) const {
  const auto carriers = carriers_of(ip);
  return carriers.empty() ? nullptr : &carriers.front();
}

std::span<const NetworkView::Subnet> NetworkView::carriers_of(const Ipv4Prefix& subnet) const {
  const auto run = std::ranges::equal_range(subnets_, subnet, {}, &Subnet::prefix);
  return {run.begin(), run.end()};
}

std::span<const NetworkView::VlanDef> NetworkView::definers_of(std::string_view name) const {
  const auto run = std::ranges::equal_range(vlans_, name, {}, &VlanDef::name);
  return {run.begin(), run.end()};
}

std::span<const NetworkView::Process> NetworkView::processes_of(std::size_t device) const {
  const auto run = std::ranges::equal_range(processes_, device, {}, &Process::device);
  return {run.begin(), run.end()};
}

const NetworkView::Process* NetworkView::bgp_process_of(std::size_t device) const {
  for (const Process& p : processes_of(device))
    if (p.protocol == "bgp") return &p;
  return nullptr;
}

}  // namespace mpa
