#include "config/diff.hpp"

#include <algorithm>

namespace mpa {
namespace {

// Count how many option lines differ between two stanzas, treating
// options as multisets of (key, value) pairs: one merge of the two
// sorted option lists. A modified value counts once (not as one
// removal plus one addition).
int options_delta(const StanzaFacts& a, const StanzaFacts& b) {
  int only_a = 0, only_b = 0;
  auto x = a.options.begin(), y = b.options.begin();
  while (x != a.options.end() && y != b.options.end()) {
    if (*x < *y) {
      ++only_a, ++x;
    } else if (*y < *x) {
      ++only_b, ++y;
    } else {
      ++x, ++y;
    }
  }
  only_a += static_cast<int>(a.options.end() - x);
  only_b += static_cast<int>(b.options.end() - y);
  return std::max(only_a, only_b);
}

/// The first stanza of a diff's `after` list with each (type, name) key,
/// found by the key hash the facts cache.
class AfterIndex {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  explicit AfterIndex(std::span<const StanzaFacts* const> after)
      : after_(after), first_(after.size()) {
    // Open addressing over the first position of each key, at most
    // half full.
    std::size_t capacity = 16;
    while (capacity < 2 * after.size()) capacity *= 2;
    slots_.assign(capacity, npos);
    for (std::size_t p = 0; p < after.size(); ++p) {
      std::size_t& slot = slots_[slot_of(after[p])];
      if (slot == npos) slot = p;
      first_[p] = slot;
    }
  }

  /// Position of the first stanza with `f`'s type and name, or npos.
  std::size_t first_with_key(const StanzaFacts* f) const { return slots_[slot_of(f)]; }
  /// first_with_key(after[p]), found once.
  std::size_t first_at(std::size_t p) const { return first_[p]; }

 private:
  /// The slot holding `f`'s key, or the empty slot where it would go. A
  /// handle in both lists matches itself without a string compare.
  std::size_t slot_of(const StanzaFacts* f) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = f->key_hash & mask;; i = (i + 1) & mask) {
      const std::size_t q = slots_[i];
      if (q == npos || after_[q] == f) return i;
      const StanzaFacts& g = *after_[q];
      if (g.key_hash == f->key_hash && g.stanza->name == f->stanza->name &&
          g.stanza->type == f->stanza->type)
        return i;
    }
  }

  std::span<const StanzaFacts* const> after_;
  std::vector<std::size_t> first_;  ///< First position with the same key.
  std::vector<std::size_t> slots_;
};

/// Handles to each of `facts`, in order.
std::vector<const StanzaFacts*> handles(const std::vector<StanzaFacts>& facts) {
  std::vector<const StanzaFacts*> out;
  out.reserve(facts.size());
  for (const StanzaFacts& f : facts) out.push_back(&f);
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
  const auto change = [](const StanzaFacts& f, ChangeKind kind, int options_touched) {
    return StanzaChange{f.stanza->type, std::string(f.type), f.stanza->name, kind,
                        options_touched};
  };
  const AfterIndex index(after);
  // Per first-of-its-key position of `after`: does `before` have the key?
  std::vector<bool> key_in_before(after.size(), false);
  std::vector<StanzaChange> out;
  // Removed or updated stanzas.
  for (const StanzaFacts* f : before) {
    const std::size_t first = index.first_with_key(f);
    if (first == AfterIndex::npos) {
      out.push_back(change(*f, ChangeKind::kRemoved, static_cast<int>(f->stanza->options.size())));
      continue;
    }
    key_in_before[first] = true;
    const StanzaFacts* other = after[first];
    if (other != f && !(*f->stanza == *other->stanza))
      out.push_back(change(*f, ChangeKind::kUpdated, options_delta(*f, *other)));
  }
  // Added stanzas.
  for (std::size_t p = 0; p < after.size(); ++p) {
    if (!key_in_before[index.first_at(p)])
      out.push_back(change(*after[p], ChangeKind::kAdded,
                           static_cast<int>(after[p]->stanza->options.size())));
  }
  return out;
}

std::vector<StanzaChange> diff(const DeviceConfig& before, const DeviceConfig& after) {
  const std::vector<StanzaFacts> a = facts_of(before), b = facts_of(after);
  return diff(handles(a), handles(b));
}

}  // namespace mpa
