// Stanza-level configuration diffing (§2.2, operational practices).
//
// "We infer operational practices by comparing two successive
// configuration snapshots from the same device. If at least one stanza
// differs, we count this as a configuration change. ... When part (or
// all) of a stanza is added, removed, or updated, we say a change of
// type T occurred, where T is the stanza type."
#pragma once

#include <span>
#include <string>
#include <vector>

#include "config/stanza.hpp"

namespace mpa {

enum class ChangeKind : std::uint8_t { kAdded, kRemoved, kUpdated };

std::string_view to_string(ChangeKind k);

/// One stanza-level difference between two snapshots of a device.
struct StanzaChange {
  std::string native_type;    ///< Vendor-native stanza type.
  std::string agnostic_type;  ///< Vendor-agnostic type of native_type (types.hpp).
  std::string name;           ///< Stanza name.
  ChangeKind kind = ChangeKind::kUpdated;
  /// Number of option lines added+removed+modified (0 for pure
  /// adds/removes of empty stanzas; >=1 otherwise).
  int options_touched = 0;
};

/// Compute the stanza-level diff between `before` and `after`, given as
/// the facts of their stanzas (stanza.hpp). Each stanza of `before` is
/// matched to the first stanza of `after` with its (native type, name),
/// found by the cached key hash: none makes it removed, an unequal one
/// updated. Then each stanza of `after` whose (type, name) `before`
/// lacks is added. A handle in both lists is the same stanza, so it
/// matches itself without a string compare and needs no deep compare
/// unless an earlier stanza of `after` repeats its key. Option-level
/// comparison treats options as a multiset of (key, value) pairs and
/// merges the two sorted option lists.
std::vector<StanzaChange> diff(std::span<const StanzaFacts* const> before,
                               std::span<const StanzaFacts* const> after);

/// diff() over two configs: builds every stanza's facts, then runs the
/// same core.
std::vector<StanzaChange> diff(const DeviceConfig& before, const DeviceConfig& after);

}  // namespace mpa
