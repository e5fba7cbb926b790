// Device-configuration snapshots: the second data source (§2.1).
//
// "NMSes such as RANCID and HPNA subscribe to syslog feeds from network
// devices and snapshot a device's configuration whenever the device
// generates a syslog alert that its configuration has changed. Each
// snapshot includes the configuration text, as well as metadata about
// the change, e.g., when it occurred and the login information of the
// entity (i.e., user or script) that made the change."
//
// Snapshots hold rendered *text*, not parsed configs — the metrics
// layer must parse them through the dialect layer, exactly as the
// paper's pipeline runs Batfish over archived RANCID output. The text
// is a SharedText: a loaded snapshot points into the buffer its loader
// read or mapped, and copying a snapshot shares its bytes.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "telemetry/time.hpp"
#include "util/shared_text.hpp"

namespace mpa {

/// One archived configuration snapshot.
struct ConfigSnapshot {
  std::string device_id;
  Timestamp time = 0;   ///< When the triggering change occurred.
  std::string login;    ///< Account that made the change (user or script).
  SharedText text;      ///< Full rendered configuration.
};

/// Append-only archive of snapshots, ordered per device by time.
class SnapshotStore {
 public:
  /// Archive a snapshot. Snapshots for a device must arrive in
  /// non-decreasing time order (as a syslog-fed NMS would see them).
  void add(ConfigSnapshot snap);

  /// All snapshots of a device, time-ordered. Empty if unknown device.
  const std::vector<ConfigSnapshot>& for_device(const std::string& device_id) const;

  /// Device ids with at least one snapshot.
  std::vector<std::string> devices() const;

  std::size_t total_snapshots() const { return total_; }

  /// Total bytes of archived configuration text.
  std::size_t total_bytes() const { return bytes_; }

 private:
  std::map<std::string, std::vector<ConfigSnapshot>> by_device_;
  std::size_t total_ = 0;
  std::size_t bytes_ = 0;
};

}  // namespace mpa
