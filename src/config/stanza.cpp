#include "config/stanza.hpp"

namespace mpa {

std::optional<std::string> Stanza::get(std::string_view key) const {
  for (const auto& o : options)
    if (o.key == key) return o.value;
  return std::nullopt;
}

std::vector<std::string> Stanza::get_all(std::string_view key) const {
  std::vector<std::string> out;
  for (const auto& o : options)
    if (o.key == key) out.push_back(o.value);
  return out;
}

void Stanza::set(std::string key, std::string value) {
  options.push_back(Option{std::move(key), std::move(value)});
}

void Stanza::replace(std::string_view key, std::string value) {
  for (auto& o : options) {
    if (o.key == key) {
      o.value = std::move(value);
      return;
    }
  }
  set(std::string(key), std::move(value));
}

const Stanza* DeviceConfig::find(std::string_view type, std::string_view name) const {
  for (const auto& s : stanzas_)
    if (s.type == type && s.name == name) return &s;
  return nullptr;
}

Stanza* DeviceConfig::find(std::string_view type, std::string_view name) {
  return const_cast<Stanza*>(static_cast<const DeviceConfig*>(this)->find(type, name));
}

std::vector<const Stanza*> DeviceConfig::all_of_type(std::string_view type) const {
  std::vector<const Stanza*> out;
  for (const auto& s : stanzas_)
    if (s.type == type) out.push_back(&s);
  return out;
}

void DeviceConfig::add(Stanza s) {
  require(find(s.type, s.name) == nullptr,
          [&] { return "DeviceConfig::add: duplicate stanza " + s.type + " " + s.name; });
  stanzas_.push_back(std::move(s));
}

bool DeviceConfig::remove(std::string_view type, std::string_view name) {
  for (auto it = stanzas_.begin(); it != stanzas_.end(); ++it) {
    if (it->type == type && it->name == name) {
      stanzas_.erase(it);
      return true;
    }
  }
  return false;
}

std::vector<const Stanza*> handles_of(const DeviceConfig& config) {
  std::vector<const Stanza*> out;
  out.reserve(config.stanzas().size());
  for (const auto& s : config.stanzas()) out.push_back(&s);
  return out;
}

HandleIndex::HandleIndex(std::span<const Stanza* const> stanzas) {
  unsigned bits = 4;
  while ((std::size_t{1} << bits) < 2 * stanzas.size()) ++bits;
  slots_.resize(std::size_t{1} << bits);
  mask_ = slots_.size() - 1;
  shift_ = 64 - bits;
  for (std::size_t p = 0; p < stanzas.size(); ++p) {
    const Stanza* s = stanzas[p];
    require(s != nullptr, "HandleIndex: null stanza handle");
    std::size_t i = slot_of(s);
    for (; slots_[i].handle != nullptr; i = (i + 1) & mask_)
      require(slots_[i].handle != s, "HandleIndex: a stanza handle is listed twice");
    slots_[i] = Slot{s, p};
  }
}

}  // namespace mpa
