#include "config/stanza.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <functional>
#include <numeric>
#include <tuple>

#include "config/types.hpp"

namespace mpa {
namespace {

/// The first three whitespace-separated tokens of `value`, as
/// split_ws_views() splits it; empty past the last token.
std::array<std::string_view, 3> leading_tokens(std::string_view value) {
  const auto space = [](char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; };
  std::array<std::string_view, 3> out;
  std::size_t i = 0;
  for (auto& token : out) {
    while (i < value.size() && space(value[i])) ++i;
    const std::size_t start = i;
    while (i < value.size() && !space(value[i])) ++i;
    token = value.substr(start, i - start);
  }
  return out;
}

bool is_catch_all(std::string_view term) {
  return term == "any" || term == "ip any any" || term == "any any";
}

/// Fills `f.reachable` and `f.shadowed` from `f.terms`.
void classify_terms(StanzaFacts& f) {
  const auto catch_all = std::find_if(f.terms.begin(), f.terms.end(),
                                      [](const OptionView& t) { return is_catch_all(t.value); });
  f.reachable = catch_all == f.terms.end() ? f.terms.size()
                                           : static_cast<std::size_t>(catch_all - f.terms.begin()) + 1;
  if (f.reachable < 2) return;
  // Equal terms sort together, each run in term order: all but the
  // first of a run repeat an earlier term.
  std::vector<std::size_t> order(f.reachable);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return std::tie(f.terms[a], a) < std::tie(f.terms[b], b);
  });
  for (std::size_t k = 1; k < order.size(); ++k)
    if (f.terms[order[k]] == f.terms[order[k - 1]]) f.shadowed.push_back(order[k]);
  std::sort(f.shadowed.begin(), f.shadowed.end());
}

}  // namespace

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

StanzaFacts facts_of(const Stanza& s) {
  StanzaFacts f;
  f.stanza = &s;
  f.type = normalize_type(s.type);
  f.construct = constructs_of(s.type);
  const std::hash<std::string_view> hash;
  f.key_hash = hash(s.name) * 31 + hash(s.type);
  f.options.reserve(s.options.size());
  for (const Option& o : s.options) {
    const std::string_view key = o.key;
    const std::string_view value = o.value;
    f.options.push_back(OptionView{key, value});
    if (key == "ip address" || key == "ip-address") {
      if (const auto p = parse_prefix(value)) f.addrs.push_back(*p);
      f.in_use = true;
    } else if (key == "ip access-group" || key == "filter") {
      if (const std::string_view acl = leading_tokens(value)[0]; !acl.empty()) f.acls.push_back(acl);
      f.in_use = true;
    } else if (key == "switchport access vlan" || key == "vlan-members") {
      f.vlans.push_back(VlanRef{value, key == "switchport access vlan"});
      f.in_use = true;
    } else if (key == "spanning-tree vlan") {
      f.vlans.push_back(VlanRef{value, false});
    } else if (key == "interface") {
      f.interfaces.push_back(value);
    } else if (key == "member") {
      f.members.push_back(value);
    } else if (key == "pool") {
      f.pools.push_back(value);
    } else if (key == "neighbor") {
      const auto t = leading_tokens(value);
      if (!t[0].empty())
        f.neighbors.push_back(
            BgpNeighbor{t[0], parse_ipv4(t[0]), t[1] == "remote-as" ? t[2] : std::string_view{}});
    } else if (key == "network") {
      const auto t = leading_tokens(value);
      if (!t[0].empty())
        f.networks.push_back(
            NetworkStatement{t[0], parse_prefix(t[0]), t[1] == "area" ? t[2] : std::string_view{}});
    } else if (key == "permit" || key == "deny") {
      f.terms.push_back(OptionView{key, value});
    } else if (key == "mtu") {
      if (!f.mtu) f.mtu = value;
    } else if (key == "region") {
      if (!f.region) f.region = value;
    } else if (key == "shutdown" || key == "disable") {
      f.shut = true;
    }
  }
  std::sort(f.options.begin(), f.options.end());
  classify_terms(f);
  return f;
}

std::vector<StanzaFacts> facts_of(const DeviceConfig& config) {
  std::vector<StanzaFacts> out;
  out.reserve(config.stanzas().size());
  for (const Stanza& s : config.stanzas()) out.push_back(facts_of(s));
  return out;
}

}  // namespace mpa
