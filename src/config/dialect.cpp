#include "config/dialect.hpp"

#include <algorithm>
#include <array>
#include <span>
#include <sstream>
#include <utility>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace mpa {
namespace {

// Multi-word constructs must be listed longest-first so the parser
// greedily matches "ip access-list" before a hypothetical "ip".
constexpr std::array<std::string_view, 6> kIosMultiwordTypes = {
    "ip access-list", "ip dhcp-relay", "router bgp", "router ospf", "qos policy",
    "port-channel",  // single token but hyphenated; harmless to list
};

constexpr std::array<std::string_view, 5> kIosMultiwordKeys = {
    "switchport access vlan", "switchport mode", "ip access-group", "ip address",
    "spanning-tree vlan",
};

/// Split a line into its leading word and the trimmed rest (empty when
/// there is none): a stanza's type and name, or an option's key and
/// value. The leading word is the first of `multiword` the line starts
/// with as whole words, else everything up to the first space.
void split_lead(std::string_view line, std::string& lead, std::string& rest,
                std::span<const std::string_view> multiword = {}) {
  std::size_t end = line.find(' ');
  for (std::string_view w : multiword) {
    if (starts_with(line, w) && (line.size() == w.size() || line[w.size()] == ' ')) {
      end = w.size();
      break;
    }
  }
  end = std::min(end, line.size());
  lead.assign(line.substr(0, end));
  rest.assign(trim(line.substr(end)));
}

std::string render_ios(const DeviceConfig& c) {
  std::ostringstream os;
  os << "! device " << c.device_id() << "\n";
  for (const auto& s : c.stanzas()) {
    os << s.type;
    if (!s.name.empty()) os << ' ' << s.name;
    os << '\n';
    for (const auto& o : s.options) {
      os << "  " << o.key;
      if (!o.value.empty()) os << ' ' << o.value;
      os << '\n';
    }
    os << "!\n";
  }
  return os.str();
}

/// Records stanza spans and comments into a SourceMap, when a caller
/// asked for one, as a parser walks the text.
struct SourceRecorder {
  SourceMap* map;
  std::vector<std::string> pending;  ///< Comments since the last header.

  void comment(std::string_view text) {
    const std::string_view body = trim(text);
    if (map == nullptr || body.empty()) return;
    map->all_comments.emplace_back(body);
    pending.emplace_back(body);
  }
  void open(int line) {
    if (map != nullptr) map->stanzas.push_back({line, line, std::exchange(pending, {})});
  }
  /// The open stanza, always the last recorded, extends to `line`.
  void extend(int line) {
    if (map != nullptr) map->stanzas.back().last_line = line;
  }
};

DeviceConfig parse_ios(std::string_view text, std::string device_id, SourceMap* source) {
  DeviceConfig c(std::move(device_id));
  SourceRecorder rec{source, {}};
  bool in_stanza = false;
  int line_no = 0;
  for (const std::string_view raw : split_views(text, '\n')) {
    ++line_no;
    const std::string_view line = trim(raw);
    if (line.empty()) continue;
    if (line[0] == '!') {  // comment or terminator
      if (in_stanza) rec.extend(line_no);
      in_stanza = false;
      rec.comment(line.substr(1));
      continue;
    }
    if (indent_of(raw) == 0) {
      // A header without a "!" before it ends the open stanza on the
      // line above, even when that line is blank.
      if (in_stanza) rec.extend(line_no - 1);
      Stanza& s = c.stanzas().emplace_back();
      split_lead(line, s.type, s.name, kIosMultiwordTypes);
      rec.open(line_no);
      in_stanza = true;
    } else {
      if (!in_stanza)
        throw DataError("IOS parse: option line outside a stanza: " + std::string(line));
      Option& o = c.stanzas().back().options.emplace_back();
      split_lead(line, o.key, o.value, kIosMultiwordKeys);
      rec.extend(line_no);
    }
  }
  if (in_stanza) rec.extend(line_no);
  return c;
}

std::string render_junos(const DeviceConfig& c) {
  std::ostringstream os;
  os << "/* device " << c.device_id() << " */\n";
  for (const auto& s : c.stanzas()) {
    os << s.type;
    if (!s.name.empty()) os << ' ' << s.name;
    os << " {\n";
    for (const auto& o : s.options) {
      os << "    " << o.key;
      if (!o.value.empty()) os << ' ' << o.value;
      os << ";\n";
    }
    os << "}\n";
  }
  return os.str();
}

DeviceConfig parse_junos(std::string_view text, std::string device_id, SourceMap* source) {
  DeviceConfig c(std::move(device_id));
  SourceRecorder rec{source, {}};
  bool in_stanza = false;
  int line_no = 0;
  for (const std::string_view raw : split_views(text, '\n')) {
    ++line_no;
    const std::string_view line = trim(raw);
    if (line.empty()) continue;
    if (starts_with(line, "/*")) {
      std::string_view body = line.substr(2);
      if (body.ends_with("*/")) body.remove_suffix(2);
      rec.comment(body);
      continue;
    }
    if (line == "}") {
      if (!in_stanza) throw DataError("JunOS parse: unbalanced '}'");
      rec.extend(line_no);
      in_stanza = false;
      continue;
    }
    if (line.back() == '{') {
      if (in_stanza) throw DataError("JunOS parse: nested block in " + c.stanzas().back().type);
      Stanza& s = c.stanzas().emplace_back();
      split_lead(trim(line.substr(0, line.size() - 1)), s.type, s.name);
      rec.open(line_no);
      in_stanza = true;
      continue;
    }
    if (!in_stanza) throw DataError("JunOS parse: statement outside block: " + std::string(line));
    if (line.back() != ';') throw DataError("JunOS parse: missing ';' on: " + std::string(line));
    Option& o = c.stanzas().back().options.emplace_back();
    split_lead(trim(line.substr(0, line.size() - 1)), o.key, o.value);
    rec.extend(line_no);
  }
  if (in_stanza) throw DataError("JunOS parse: unterminated block " + c.stanzas().back().type);
  return c;
}

}  // namespace

Dialect dialect_of(Vendor v) {
  switch (v) {
    case Vendor::kJunegrass:
    case Vendor::kBrocatel:
      return Dialect::kJunosLike;
    case Vendor::kCirrus:
    case Vendor::kAristos:
    case Vendor::kEffen:
    case Vendor::kPaloverde:
      return Dialect::kIosLike;
  }
  return Dialect::kIosLike;
}

std::string render(const DeviceConfig& config, Dialect d) {
  return d == Dialect::kIosLike ? render_ios(config) : render_junos(config);
}

DeviceConfig parse(std::string_view text, Dialect d, std::string device_id) {
  return d == Dialect::kIosLike ? parse_ios(text, std::move(device_id), nullptr)
                                : parse_junos(text, std::move(device_id), nullptr);
}

DeviceConfig parse(std::string_view text, Dialect d, std::string device_id, SourceMap& source) {
  source = SourceMap{};
  return d == Dialect::kIosLike ? parse_ios(text, std::move(device_id), &source)
                                : parse_junos(text, std::move(device_id), &source);
}

}  // namespace mpa
