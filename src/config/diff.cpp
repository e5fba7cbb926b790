#include "config/diff.hpp"

#include <algorithm>
#include <functional>
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

bool same_key(const Stanza& a, const Stanza& b) { return a.name == b.name && a.type == b.type; }

/// The stanzas of a diff's `after` list, found by handle and by key:
/// for each (type, name), the first stanza in list order with it.
class AfterIndex {
 public:
  static constexpr std::size_t npos = HandleIndex::npos;

  explicit AfterIndex(std::span<const Stanza* const> after)
      : after_(after), handles_(after), hashes_(after.size()), first_(after.size()) {
    // Open addressing over the first position of each key, at most
    // half full.
    std::size_t capacity = 16;
    while (capacity < 2 * after.size()) capacity *= 2;
    slots_.assign(capacity, npos);
    for (std::size_t p = 0; p < after.size(); ++p) {
      hashes_[p] = key_hash(*after[p]);
      std::size_t& slot = slots_[slot_of(*after[p], hashes_[p])];
      if (slot == npos) slot = p;
      first_[p] = slot;
    }
  }

  /// Position of handle `s`, or npos.
  std::size_t position(const Stanza* s) const { return handles_.find(s); }
  /// Position of the first stanza with `s`'s type and name, or npos.
  std::size_t first_with_key(const Stanza& s) const { return slots_[slot_of(s, key_hash(s))]; }
  /// first_with_key(*after[p]), found once.
  std::size_t first_at(std::size_t p) const { return first_[p]; }

 private:
  static std::size_t key_hash(const Stanza& s) {
    const std::hash<std::string_view> h;
    return h(s.name) * 31 + h(s.type);
  }
  /// The slot holding `s`'s key, or the empty slot where it would go.
  std::size_t slot_of(const Stanza& s, std::size_t hash) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      const std::size_t q = slots_[i];
      if (q == npos || (hashes_[q] == hash && same_key(*after_[q], s))) return i;
    }
  }

  std::span<const Stanza* const> after_;
  HandleIndex handles_;
  std::vector<std::size_t> hashes_;  ///< Key hash per position.
  std::vector<std::size_t> first_;   ///< First position with the same key.
  std::vector<std::size_t> slots_;
};

}  // namespace

std::string_view to_string(ChangeKind k) {
  switch (k) {
    case ChangeKind::kAdded: return "added";
    case ChangeKind::kRemoved: return "removed";
    case ChangeKind::kUpdated: return "updated";
  }
  return "unknown";
}

std::vector<StanzaChange> diff(std::span<const Stanza* const> before,
                               std::span<const Stanza* const> after) {
  const auto change = [](const Stanza& s, ChangeKind kind, int options_touched) {
    return StanzaChange{s.type, std::string(normalize_type(s.type)), s.name, kind,
                        options_touched};
  };
  const AfterIndex index(after);
  // Per first-of-its-key position of `after`: does `before` have the key?
  std::vector<bool> key_in_before(after.size(), false);
  std::vector<StanzaChange> out;
  // Removed or updated stanzas.
  for (const Stanza* s : before) {
    const std::size_t at = index.position(s);
    const std::size_t first =
        at != AfterIndex::npos ? index.first_at(at) : index.first_with_key(*s);
    if (first == AfterIndex::npos) {
      out.push_back(change(*s, ChangeKind::kRemoved, static_cast<int>(s->options.size())));
      continue;
    }
    key_in_before[first] = true;
    const Stanza& other = *after[first];
    if (&other != s && !(*s == other))
      out.push_back(change(*s, ChangeKind::kUpdated, options_delta(*s, other)));
  }
  // Added stanzas.
  for (std::size_t p = 0; p < after.size(); ++p) {
    const Stanza& s = *after[p];
    if (!key_in_before[index.first_at(p)])
      out.push_back(change(s, ChangeKind::kAdded, static_cast<int>(s.options.size())));
  }
  return out;
}

std::vector<StanzaChange> diff(const DeviceConfig& before, const DeviceConfig& after) {
  return diff(handles_of(before), handles_of(after));
}

}  // namespace mpa
