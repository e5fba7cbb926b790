#include "model/inventory.hpp"

#include <algorithm>

namespace mpa {

std::string_view to_string(Role r) {
  switch (r) {
    case Role::kRouter: return "router";
    case Role::kSwitch: return "switch";
    case Role::kFirewall: return "firewall";
    case Role::kLoadBalancer: return "load-balancer";
    case Role::kAdc: return "adc";
  }
  return "unknown";
}

bool is_middlebox(Role r) {
  return r == Role::kFirewall || r == Role::kLoadBalancer || r == Role::kAdc;
}

std::string_view to_string(Vendor v) {
  switch (v) {
    case Vendor::kCirrus: return "cirrus";
    case Vendor::kJunegrass: return "junegrass";
    case Vendor::kAristos: return "aristos";
    case Vendor::kEffen: return "effen";
    case Vendor::kPaloverde: return "paloverde";
    case Vendor::kBrocatel: return "brocatel";
  }
  return "unknown";
}

void Inventory::add_network(NetworkRecord net) {
  require(find_network(net.network_id) == nullptr,
          [&] { return "Inventory::add_network: duplicate network id " + net.network_id; });
  network_index_.emplace(net.network_id, networks_.size());
  networks_.push_back(std::move(net));
  network_devices_.emplace_back();
}

void Inventory::add_device(DeviceRecord dev) {
  auto* net = const_cast<NetworkRecord*>(find_network(dev.network_id));
  require(net != nullptr,
          [&] { return "Inventory::add_device: unknown network " + dev.network_id; });
  require(find_device(dev.device_id) == nullptr,
          [&] { return "Inventory::add_device: duplicate device id " + dev.device_id; });
  if (std::find(net->device_ids.begin(), net->device_ids.end(), dev.device_id) ==
      net->device_ids.end()) {
    net->device_ids.push_back(dev.device_id);
  }
  network_devices_[static_cast<std::size_t>(net - networks_.data())].push_back(devices_.size());
  device_index_.emplace(dev.device_id, devices_.size());
  devices_.push_back(std::move(dev));
}

void Inventory::reserve(std::size_t networks, std::size_t devices) {
  networks_.reserve(networks);
  devices_.reserve(devices);
}

std::vector<const DeviceRecord*> Inventory::devices_in(const std::string& network_id) const {
  std::vector<const DeviceRecord*> out;
  const auto it = network_index_.find(network_id);
  if (it == network_index_.end()) return out;
  const auto& positions = network_devices_[it->second];
  out.reserve(positions.size());
  for (const std::size_t i : positions) out.push_back(&devices_[i]);
  return out;
}

const NetworkRecord* Inventory::find_network(const std::string& network_id) const {
  const auto it = network_index_.find(network_id);
  return it == network_index_.end() ? nullptr : &networks_[it->second];
}

const DeviceRecord* Inventory::find_device(const std::string& device_id) const {
  const auto it = device_index_.find(device_id);
  return it == device_index_.end() ? nullptr : &devices_[it->second];
}

}  // namespace mpa
