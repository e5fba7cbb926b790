#include "config/diff.hpp"

#include <algorithm>

#include "config/types.hpp"

namespace mpa {
namespace {

// The diff core reads a stanza through either kind of handle: its facts,
// which cache the key hash and the sorted options, or the stanza alone,
// whose hash is worked out once per diff and whose facts only an
// updated stanza needs.
const Stanza& stanza_of(const StanzaFacts* f) { return *f->stanza; }
const Stanza& stanza_of(const Stanza* s) { return *s; }
std::size_t key_hash(const StanzaFacts* f) { return f->key_hash; }
std::size_t key_hash(const Stanza* s) { return key_hash_of(*s); }
std::string_view agnostic_type(const StanzaFacts* f) { return f->type; }
std::string_view agnostic_type(const Stanza* s) { return normalize_type(s->type); }

// Count how many option lines differ between two stanzas, treating
// options as multisets of (key, value) pairs: one merge of the two
// sorted option lists. A modified value counts once (not as one
// removal plus one addition).
int options_delta(const StanzaFacts* a, const StanzaFacts* b) {
  int only_a = 0, only_b = 0;
  auto x = a->options.begin(), y = b->options.begin();
  while (x != a->options.end() && y != b->options.end()) {
    if (*x < *y) {
      ++only_a, ++x;
    } else if (*y < *x) {
      ++only_b, ++y;
    } else {
      ++x, ++y;
    }
  }
  only_a += static_cast<int>(a->options.end() - x);
  only_b += static_cast<int>(b->options.end() - y);
  return std::max(only_a, only_b);
}
int options_delta(const Stanza* a, const Stanza* b) {
  const StanzaFacts fa = facts_of(*a), fb = facts_of(*b);
  return options_delta(&fa, &fb);
}

/// The first stanza of a diff's `after` list with each (type, name) key,
/// found by key hash.
template <typename Handle>
class AfterIndex {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  explicit AfterIndex(std::span<const Handle> after)
      : after_(after), hashes_(after.size()), first_(after.size()) {
    // Open addressing over the first position of each key, at most
    // half full.
    std::size_t capacity = 16;
    while (capacity < 2 * after.size()) capacity *= 2;
    slots_.assign(capacity, npos);
    for (std::size_t p = 0; p < after.size(); ++p) {
      hashes_[p] = key_hash(after[p]);
      std::size_t& slot = slots_[slot_of(after[p], hashes_[p])];
      if (slot == npos) slot = p;
      first_[p] = slot;
    }
  }

  /// Position of the first stanza with `h`'s type and name, or npos.
  std::size_t first_with_key(Handle h) const { return slots_[slot_of(h, key_hash(h))]; }
  /// first_with_key(after[p]), found once.
  std::size_t first_at(std::size_t p) const { return first_[p]; }

 private:
  /// The slot holding `h`'s key, or the empty slot where it would go. A
  /// handle in both lists matches itself without a string compare.
  std::size_t slot_of(Handle h, std::size_t hash) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      const std::size_t q = slots_[i];
      if (q == npos || after_[q] == h) return i;
      if (hashes_[q] != hash) continue;
      const Stanza& s = stanza_of(h);
      const Stanza& t = stanza_of(after_[q]);
      if (t.name == s.name && t.type == s.type) return i;
    }
  }

  std::span<const Handle> after_;
  std::vector<std::size_t> hashes_;  ///< Key hash per position.
  std::vector<std::size_t> first_;   ///< First position with the same key.
  std::vector<std::size_t> slots_;
};

template <typename Handle>
std::vector<StanzaChange> diff_of(std::span<const Handle> before, std::span<const Handle> after) {
  const auto change = [](Handle h, ChangeKind kind, int options_touched) {
    const Stanza& s = stanza_of(h);
    return StanzaChange{s.type, std::string(agnostic_type(h)), s.name, kind, options_touched};
  };
  const AfterIndex<Handle> index(after);
  // Per first-of-its-key position of `after`: does `before` have the key?
  std::vector<bool> key_in_before(after.size(), false);
  std::vector<StanzaChange> out;
  // Removed or updated stanzas.
  for (const Handle h : before) {
    const std::size_t first = index.first_with_key(h);
    if (first == AfterIndex<Handle>::npos) {
      out.push_back(change(h, ChangeKind::kRemoved, static_cast<int>(stanza_of(h).options.size())));
      continue;
    }
    key_in_before[first] = true;
    const Handle other = after[first];
    if (other != h && !(stanza_of(h) == stanza_of(other)))
      out.push_back(change(h, ChangeKind::kUpdated, options_delta(h, other)));
  }
  // Added stanzas.
  for (std::size_t p = 0; p < after.size(); ++p) {
    if (!key_in_before[index.first_at(p)])
      out.push_back(change(after[p], ChangeKind::kAdded,
                           static_cast<int>(stanza_of(after[p]).options.size())));
  }
  return out;
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

std::vector<StanzaChange> diff(std::span<const StanzaFacts* const> before,
                               std::span<const StanzaFacts* const> after) {
  return diff_of(before, after);
}

std::vector<StanzaChange> diff(std::span<const Stanza* const> before,
                               std::span<const Stanza* const> after) {
  return diff_of(before, after);
}

std::vector<StanzaChange> diff(const DeviceConfig& before, const DeviceConfig& after) {
  return diff(handles_of(before), handles_of(after));
}

}  // namespace mpa
