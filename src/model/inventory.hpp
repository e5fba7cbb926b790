// Inventory records: the first of the paper's three data sources (§2.1).
//
// Organizations track the networks they manage, and the vendor, model,
// role and firmware of every device. These records are the input for
// the "purpose / physical composition" design metrics (Table 1, D1-D3).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace mpa {

/// Device role in the network, as recorded in inventory (§2.1).
enum class Role : std::uint8_t {
  kRouter,
  kSwitch,
  kFirewall,
  kLoadBalancer,
  kAdc,  // application delivery controller (TCP/SSL offload, etc.)
};

inline constexpr int kNumRoles = 5;

/// Stable display name ("router", "switch", ...).
std::string_view to_string(Role r);

/// True if the role is a middlebox (firewall, ADC, or load balancer),
/// per the paper's definition in Appendix A.1.
bool is_middlebox(Role r);

/// Config-language dialect a vendor's devices speak.
enum class Vendor : std::uint8_t {
  kCirrus,    // IOS-like dialect   (stands in for Cisco)
  kJunegrass, // JunOS-like dialect (stands in for Juniper)
  kAristos,   // IOS-like dialect   (stands in for Arista)
  kEffen,     // IOS-like dialect   (stands in for F5-style LB gear)
  kPaloverde, // IOS-like dialect   (stands in for a firewall vendor)
  kBrocatel,  // JunOS-like dialect
};

inline constexpr int kNumVendors = 6;

std::string_view to_string(Vendor v);

/// The kind of workload a network serves (§2: "A workload is a service
/// or a group of users").
enum class WorkloadKind : std::uint8_t { kWebService, kFileSystem, kApplication, kUserGroup };

struct Workload {
  std::string name;
  WorkloadKind kind = WorkloadKind::kWebService;
};

/// One inventory line: a physical device and where it lives.
struct DeviceRecord {
  std::string device_id;   ///< Globally unique device name, e.g. "net12-sw-03".
  std::string network_id;  ///< Owning network.
  Vendor vendor = Vendor::kCirrus;
  std::string model;       ///< Hardware model, e.g. "CX-4500".
  Role role = Role::kSwitch;
  std::string firmware;    ///< Firmware version string, e.g. "12.2(33)".
};

/// One managed network: a set of devices serving zero or more workloads
/// (interconnect networks host none).
struct NetworkRecord {
  std::string network_id;
  std::vector<Workload> workloads;
  std::vector<std::string> device_ids;
};

/// The organization-wide inventory: all networks and devices.
class Inventory {
 public:
  /// Register a network. Throws PreconditionError on duplicate id.
  void add_network(NetworkRecord net);
  /// Register a device; its network must already exist.
  void add_device(DeviceRecord dev);

  /// Pre-size the backing vectors when the final counts are known
  /// (dataset loaders); purely a performance hint.
  void reserve(std::size_t networks, std::size_t devices);

  const std::vector<NetworkRecord>& networks() const { return networks_; }
  const std::vector<DeviceRecord>& devices() const { return devices_; }

  /// Devices belonging to one network, in the order they were added.
  std::vector<const DeviceRecord*> devices_in(const std::string& network_id) const;

  const NetworkRecord* find_network(const std::string& network_id) const;
  const DeviceRecord* find_device(const std::string& device_id) const;

  std::size_t num_networks() const { return networks_.size(); }
  std::size_t num_devices() const { return devices_.size(); }

 private:
  std::vector<NetworkRecord> networks_;
  std::vector<DeviceRecord> devices_;
  // Name -> index into the vectors above. Ordered maps keep iteration
  // deterministic (srclint forbids iterating unordered containers) and
  // make find_network/find_device O(log n) instead of a linear scan —
  // dataset loads call them once per record, which was O(n^2) at the
  // 100k-network scale the columnar generator targets.
  std::map<std::string, std::size_t> network_index_;
  std::map<std::string, std::size_t> device_index_;
  /// Per network (parallel to networks_), its devices' positions in
  /// devices_, in insertion order.
  std::vector<std::vector<std::size_t>> network_devices_;
};

}  // namespace mpa
