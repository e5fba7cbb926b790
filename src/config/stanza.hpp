// The stanza-structured configuration model (§2.2).
//
// "Configuration information is arranged as stanzas, each containing a
// set of options and values pertaining to a particular construct — e.g.
// a specific interface, VLAN, routing instance, or ACL. A stanza is
// identified by a type and a name."
//
// DeviceConfig is the in-memory form; the dialect layer (dialect.hpp)
// renders it to / parses it from vendor-flavoured text.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace mpa {

/// One key/value option line inside a stanza. `value` may be empty for
/// flag-style options (e.g. "shutdown").
struct Option {
  std::string key;
  std::string value;

  friend bool operator==(const Option&, const Option&) = default;
};

/// A configuration stanza: a typed, named block of options.
/// `type` is the vendor-native type string (e.g. "ip access-list" on an
/// IOS-like device, "firewall-filter" on a JunOS-like one); types.hpp
/// maps it to the vendor-agnostic identifier, and DeviceView resolves
/// that once per stanza.
struct Stanza {
  std::string type;
  std::string name;
  std::vector<Option> options;

  /// First value for `key`, if present.
  std::optional<std::string> get(std::string_view key) const;
  /// All values for `key` (options may repeat, e.g. "neighbor").
  std::vector<std::string> get_all(std::string_view key) const;
  /// Append an option.
  void set(std::string key, std::string value);
  /// Replace the first option with `key` (appends if absent).
  void replace(std::string_view key, std::string value);

  friend bool operator==(const Stanza&, const Stanza&) = default;
};

/// A full device configuration: an ordered list of stanzas.
class DeviceConfig {
 public:
  DeviceConfig() = default;
  explicit DeviceConfig(std::string device_id) : device_id_(std::move(device_id)) {}

  const std::string& device_id() const { return device_id_; }
  void set_device_id(std::string id) { device_id_ = std::move(id); }

  const std::vector<Stanza>& stanzas() const { return stanzas_; }
  std::vector<Stanza>& stanzas() { return stanzas_; }

  /// Find the stanza with this native type and name, or nullptr.
  const Stanza* find(std::string_view type, std::string_view name) const;
  Stanza* find(std::string_view type, std::string_view name);

  /// All stanzas with this native type.
  std::vector<const Stanza*> all_of_type(std::string_view type) const;

  /// Append a stanza; (type, name) must not already exist.
  void add(Stanza s);
  /// Remove a stanza; returns false if it was not present.
  bool remove(std::string_view type, std::string_view name);

  friend bool operator==(const DeviceConfig&, const DeviceConfig&) = default;

 private:
  std::string device_id_;
  std::vector<Stanza> stanzas_;
};

/// The stanzas of `config`, in order, as handles: the form the diff
/// core and DeviceView take, which a device timeline hands them without
/// building a DeviceConfig (dialect.hpp: StanzaInterner).
std::vector<const Stanza*> handles_of(const DeviceConfig& config);

/// Positions in a list of stanza handles, found by handle in O(1)
/// expected: open addressing over a table at most half full.
class HandleIndex {
 public:
  /// `stanzas` must hold no null and no repeated handle
  /// (PreconditionError).
  explicit HandleIndex(std::span<const Stanza* const> stanzas);

  /// Position of `s` in the list, or npos.
  std::size_t find(const Stanza* s) const {
    for (std::size_t i = slot_of(s);; i = (i + 1) & mask_) {
      if (slots_[i].handle == nullptr) return npos;
      if (slots_[i].handle == s) return slots_[i].position;
    }
  }
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

 private:
  struct Slot {
    const Stanza* handle = nullptr;
    std::size_t position = 0;
  };
  /// Fibonacci hashing of the address onto the table.
  std::size_t slot_of(const Stanza* s) const {
    return static_cast<std::size_t>(
        (reinterpret_cast<std::uintptr_t>(s) * std::uint64_t{0x9E3779B97F4A7C15}) >> shift_);
  }

  std::vector<Slot> slots_;  ///< Power-of-two size.
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
};

}  // namespace mpa
