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

/// One stanza block as a walker reads it: its header and option lines,
/// trimmed and stripped of the dialect's punctuation.
struct BlockLines {
  std::string_view header;
  std::vector<std::string_view> options;
};

/// The stanza a block describes.
Stanza build_stanza(const BlockLines& b, Dialect d) {
  using Words = std::span<const std::string_view>;
  const bool ios = d == Dialect::kIosLike;
  Stanza s;
  split_lead(b.header, s.type, s.name, ios ? Words(kIosMultiwordTypes) : Words());
  s.options.resize(b.options.size());
  for (std::size_t i = 0; i < b.options.size(); ++i)
    split_lead(b.options[i], s.options[i].key, s.options[i].value,
               ios ? Words(kIosMultiwordKeys) : Words());
  return s;
}

/// The block a walker has open. The next header, or the end of the
/// text, closes it and hands it on with its bytes: from the start of
/// its header line up to the start of the next header line.
struct OpenBlock {
  BlockLines lines;
  const char* begin = nullptr;  ///< Header line start; null before any header.

  template <typename OnBlock>
  void close(const char* end, OnBlock& on_block) const {
    if (begin != nullptr)
      on_block(lines, std::string_view(begin, static_cast<std::size_t>(end - begin)));
  }
  template <typename OnBlock>
  void reopen(std::string_view raw_line, std::string_view header, OnBlock& on_block) {
    close(raw_line.data(), on_block);
    begin = raw_line.data();
    lines.header = header;
    lines.options.clear();
  }
  /// Native type of the open block, for error messages.
  std::string type() const { return std::string(lines.header.substr(0, lines.header.find(' '))); }
};

// The two line walkers. Each records spans and comments into `source`
// (when not null), throws DataError on malformed text, and hands every
// stanza block to `on_block(lines, bytes)` as it closes. A header line
// resets the walker's state in both dialects, so the stanza of a block
// depends on the block's bytes alone.

template <typename OnBlock>
void parse_ios(std::string_view text, SourceMap* source, OnBlock&& on_block) {
  SourceRecorder rec{source, {}};
  OpenBlock block;
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
      block.reopen(raw, line, on_block);
      rec.open(line_no);
      in_stanza = true;
    } else {
      if (!in_stanza)
        throw DataError("IOS parse: option line outside a stanza: " + std::string(line));
      block.lines.options.push_back(line);
      rec.extend(line_no);
    }
  }
  if (in_stanza) rec.extend(line_no);
  block.close(text.data() + text.size(), on_block);
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

template <typename OnBlock>
void parse_junos(std::string_view text, SourceMap* source, OnBlock&& on_block) {
  SourceRecorder rec{source, {}};
  OpenBlock block;
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
      if (in_stanza) throw DataError("JunOS parse: nested block in " + block.type());
      block.reopen(raw, trim(line.substr(0, line.size() - 1)), on_block);
      rec.open(line_no);
      in_stanza = true;
      continue;
    }
    if (!in_stanza) throw DataError("JunOS parse: statement outside block: " + std::string(line));
    if (line.back() != ';') throw DataError("JunOS parse: missing ';' on: " + std::string(line));
    block.lines.options.push_back(trim(line.substr(0, line.size() - 1)));
    rec.extend(line_no);
  }
  if (in_stanza) throw DataError("JunOS parse: unterminated block " + block.type());
  block.close(text.data() + text.size(), on_block);
}

template <typename OnBlock>
void walk(std::string_view text, Dialect d, SourceMap* source, OnBlock&& on_block) {
  if (d == Dialect::kIosLike)
    parse_ios(text, source, on_block);
  else
    parse_junos(text, source, on_block);
}

DeviceConfig parse_config(std::string_view text, Dialect d, std::string device_id,
                          SourceMap* source) {
  DeviceConfig c(std::move(device_id));
  walk(text, d, source, [&](const BlockLines& lines, std::string_view /*bytes*/) {
    c.stanzas().push_back(build_stanza(lines, d));
  });
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
  return parse_config(text, d, std::move(device_id), nullptr);
}

DeviceConfig parse(std::string_view text, Dialect d, std::string device_id, SourceMap& source) {
  source = SourceMap{};
  return parse_config(text, d, std::move(device_id), &source);
}

std::vector<const Stanza*> StanzaInterner::parse(std::string_view text, SourceMap& source) {
  source = SourceMap{};
  std::vector<const Block*> current;
  current.reserve(previous_.size());
  std::vector<bool> taken(previous_.size(), false);
  std::size_t next = 0;  // The previous block after the last one reused.
  std::size_t reused = 0;
  walk(text, dialect_, &source, [&](const BlockLines& lines, std::string_view bytes) {
    // Blocks mostly keep their order, so try the one after the last
    // reuse before scanning the rest. No block is reused twice within a
    // snapshot: each copy of a repeated block keeps its own stanza.
    const auto match = [&](std::size_t j) { return !taken[j] && previous_[j]->bytes == bytes; };
    std::size_t j = next;
    if (j >= previous_.size() || !match(j))
      for (j = 0; j < previous_.size() && !match(j);) ++j;
    if (j < previous_.size()) {
      taken[j] = true;
      next = j + 1;
      ++reused;
      current.push_back(previous_[j]);
    } else {
      blocks_.push_back(Block{build_stanza(lines, dialect_), std::string(bytes)});
      current.push_back(&blocks_.back());
    }
  });
  blocks_seen_ += current.size();
  blocks_reused_ += reused;
  std::vector<const Stanza*> stanzas;
  stanzas.reserve(current.size());
  for (const Block* b : current) stanzas.push_back(&b->stanza);
  previous_ = std::move(current);
  return stanzas;
}

}  // namespace mpa
