// Minimal IPv4 address / prefix handling for reference and adjacency
// extraction. Header-only; only the operations the analyzers need.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/number.hpp"

namespace mpa {

/// An IPv4 prefix (address + mask length). Value type, totally ordered
/// so it can key maps.
struct Ipv4Prefix {
  std::uint32_t addr = 0;  ///< Host-order address bits.
  int len = 32;            ///< Mask length, 0-32.

  /// The network (masked) address of this prefix.
  std::uint32_t network() const {
    return len == 0 ? 0 : addr & (~std::uint32_t{0} << (32 - len));
  }
  /// True if `ip` falls inside this prefix.
  bool contains(std::uint32_t ip) const {
    return len == 0 || (ip & (~std::uint32_t{0} << (32 - len))) == network();
  }
  /// The enclosing subnet as a canonical prefix (network address + len).
  Ipv4Prefix subnet() const { return Ipv4Prefix{network(), len}; }

  friend auto operator<=>(const Ipv4Prefix&, const Ipv4Prefix&) = default;
};

/// Parse "a.b.c.d" into host-order bits; nullopt on malformed input.
/// Each octet is 1-3 digits within 255, under the number rule.
inline std::optional<std::uint32_t> parse_ipv4(std::string_view s) {
  std::uint32_t out = 0;
  for (int octet = 0; octet < 4; ++octet) {
    const std::size_t dot = octet < 3 ? s.find('.') : s.size();
    if (dot == std::string_view::npos || dot > 3) return std::nullopt;
    const std::optional<std::uint8_t> v = parse_whole<std::uint8_t>(s.substr(0, dot));
    if (!v) return std::nullopt;
    out = (out << 8) | *v;
    s.remove_prefix(octet < 3 ? dot + 1 : dot);
  }
  return out;
}

/// Parse "a.b.c.d/len"; nullopt on malformed input. The length is 1-2
/// digits within 32.
inline std::optional<Ipv4Prefix> parse_prefix(std::string_view s) {
  const std::size_t slash = s.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  const auto ip = parse_ipv4(s.substr(0, slash));
  const std::string_view ls = s.substr(slash + 1);
  const auto len = ls.size() <= 2 ? parse_whole<std::uint8_t>(ls) : std::nullopt;
  if (!ip || !len || *len > 32) return std::nullopt;
  return Ipv4Prefix{*ip, *len};
}

/// Format host-order bits as dotted quad.
inline std::string format_ipv4(std::uint32_t ip) {
  return std::to_string((ip >> 24) & 0xff) + '.' + std::to_string((ip >> 16) & 0xff) + '.' +
         std::to_string((ip >> 8) & 0xff) + '.' + std::to_string(ip & 0xff);
}

/// Format a prefix as "a.b.c.d/len".
inline std::string format_prefix(const Ipv4Prefix& p) {
  return format_ipv4(p.addr) + '/' + std::to_string(p.len);
}

}  // namespace mpa
