#include "telemetry/snapshots.hpp"

#include "util/error.hpp"

namespace mpa {

void SnapshotStore::add(ConfigSnapshot snap) {
  auto& vec = by_device_[snap.device_id];
  require(vec.empty() || vec.back().time <= snap.time,
          [&] { return "SnapshotStore::add: out-of-order snapshot for " + snap.device_id; });
  bytes_ += snap.text.size();
  ++total_;
  vec.push_back(std::move(snap));
}

const std::vector<ConfigSnapshot>& SnapshotStore::for_device(const std::string& device_id) const {
  static const std::vector<ConfigSnapshot> kEmpty;
  const auto it = by_device_.find(device_id);
  return it == by_device_.end() ? kEmpty : it->second;
}

std::vector<std::string> SnapshotStore::devices() const {
  std::vector<std::string> out;
  out.reserve(by_device_.size());
  for (const auto& [id, snaps] : by_device_) out.push_back(id);
  return out;
}

}  // namespace mpa
