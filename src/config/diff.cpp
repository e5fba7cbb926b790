#include "config/diff.hpp"

#include <algorithm>
#include <map>

#include "config/types.hpp"

namespace mpa {
namespace {

// Count how many option lines differ between two stanzas, treating
// options as multisets of (key, value) pairs. A modified value counts
// once (not as one removal plus one addition).
int options_delta(const Stanza& a, const Stanza& b) {
  std::map<std::pair<std::string, std::string>, int> counts;
  for (const auto& o : a.options) counts[{o.key, o.value}]++;
  for (const auto& o : b.options) counts[{o.key, o.value}]--;
  int only_a = 0, only_b = 0;
  for (const auto& [kv, n] : counts) {
    if (n > 0) only_a += n;
    if (n < 0) only_b -= n;
  }
  return std::max(only_a, only_b);
}

}  // namespace

std::string_view to_string(ChangeKind k) {
  switch (k) {
    case ChangeKind::kAdded: return "added";
    case ChangeKind::kRemoved: return "removed";
    case ChangeKind::kUpdated: return "updated";
  }
  return "unknown";
}

std::vector<StanzaChange> diff(const DeviceConfig& before, const DeviceConfig& after) {
  const auto change = [](const Stanza& s, ChangeKind kind, int options_touched) {
    return StanzaChange{s.type, std::string(normalize_type(s.type)), s.name, kind,
                        options_touched};
  };
  std::vector<StanzaChange> out;
  // Removed or updated stanzas.
  for (const auto& s : before.stanzas()) {
    const Stanza* other = after.find(s.type, s.name);
    if (other == nullptr) {
      out.push_back(change(s, ChangeKind::kRemoved, static_cast<int>(s.options.size())));
    } else if (!(s == *other)) {
      out.push_back(change(s, ChangeKind::kUpdated, options_delta(s, *other)));
    }
  }
  // Added stanzas.
  for (const auto& s : after.stanzas()) {
    if (before.find(s.type, s.name) == nullptr)
      out.push_back(change(s, ChangeKind::kAdded, static_cast<int>(s.options.size())));
  }
  return out;
}

bool is_change(const DeviceConfig& before, const DeviceConfig& after) {
  return !diff(before, after).empty();
}

}  // namespace mpa
