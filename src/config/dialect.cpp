#include "config/dialect.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <iterator>
#include <span>
#include <sstream>
#include <utility>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace mpa {

/// Records stanza spans and pragma ids into a LintSource, when a caller
/// asked for one, as a walker reads the text.
class LintSource::Recorder {
 public:
  /// Starts `source` (when not null) afresh.
  explicit Recorder(LintSource* source) : source_(source) {
    if (source_ != nullptr) *source_ = LintSource{};
  }
  bool on() const { return source_ != nullptr; }

  /// A comment, stripped of the dialect's comment markers: a pragma's
  /// ids go to the next stanza or to the whole device.
  void comment(std::string_view body) {
    if (source_ == nullptr) return;
    const std::vector<std::string_view> tokens = split_ws_views(body);
    if (tokens.empty()) return;
    const auto take = [&](std::vector<std::string>& ids) {
      ids.insert(ids.end(), tokens.begin() + 1, tokens.end());
    };
    if (tokens[0] == "lint-disable")
      take(pending_);
    else if (tokens[0] == "lint-disable-file")
      take(source_->device_disabled_);
  }
  void open(int line) {
    if (source_ != nullptr)
      source_->stanzas_.push_back({{line, line}, std::exchange(pending_, {})});
  }
  /// The open stanza, always the last recorded, extends to `line`.
  void extend(int line) {
    if (source_ != nullptr) source_->stanzas_.back().span.last_line = line;
  }
  /// Called once the whole text is read: the stanza list keeps its
  /// exact size, since a month-end source lives as long as its
  /// network's timelines.
  void finish() {
    if (source_ != nullptr) source_->stanzas_.shrink_to_fit();
  }

 private:
  LintSource* source_;
  std::vector<std::string> pending_;  ///< lint-disable ids since the last header.
};

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
    if (line.starts_with(w) && (line.size() == w.size() || line[w.size()] == ' ')) {
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
  const char* begin = nullptr;  ///< Header line start; null when no block is open.

  template <typename Sink>
  void close(const char* end, Sink& sink) {
    if (begin != nullptr)
      sink.block(lines, std::string_view(begin, static_cast<std::size_t>(end - begin)));
    begin = nullptr;
  }
  void open(std::string_view raw_line, std::string_view header) {
    begin = raw_line.data();
    lines.header = header;
    lines.options.clear();
  }
  /// Native type of the last block opened, for error messages.
  std::string type() const { return std::string(lines.header.substr(0, lines.header.find(' '))); }
};

/// The line starting at `pos`, without its '\n'; moves `pos` past the
/// newline. A walker reads lines while pos <= text.size(), so a text
/// ending in '\n' ends with one empty line, as split_views() gives.
std::string_view next_line(std::string_view text, std::size_t& pos) {
  const std::size_t eol = std::min(text.find('\n', pos), text.size());
  const std::string_view line = text.substr(pos, eol - pos);
  pos = eol + 1;
  return line;
}

/// Whether parse_ios() opens a stanza at this line.
bool ios_header(std::string_view raw) {
  const std::string_view line = trim(raw);
  return !line.empty() && line[0] != '!' && indent_of(raw) == 0;
}

/// Whether parse_junos() opens a block at this line (it throws instead
/// while a block is open).
bool junos_header(std::string_view raw) {
  const std::string_view line = trim(raw);
  return !line.empty() && !line.starts_with("/*") && line != "}" && line.back() == '{';
}

/// Called at a header line that starts at `header`, once the block
/// before it is closed, when no source is recorded. If the block
/// `sink` knows next starts here, ends in a newline, and is followed
/// by a header line or the end of the text, hands that block on, moves
/// `pos` past it and returns true. Walking those bytes would give the
/// same block: the header reset the walker's state, the lines after it
/// are the ones that parsed under that state before (the newline keeps
/// the last one from being a prefix of a longer line), and the header
/// or end that follows closes the block where they end. The walker's
/// line count falls behind, which only a source would read.
template <typename Sink, typename IsHeader>
bool skip_known(std::string_view text, const char* header, std::size_t& pos, Sink& sink,
                IsHeader is_header) {
  const std::string_view known = sink.known();
  const auto at = static_cast<std::size_t>(header - text.data());
  if (known.empty() || known.back() != '\n' || text.substr(at, known.size()) != known)
    return false;
  std::size_t end = at + known.size();
  if (end < text.size()) {
    std::size_t after = end;
    if (!is_header(next_line(text, after))) return false;
  }
  sink.reuse();
  pos = end;
  return true;
}

// The two line walkers. Each records spans and pragmas into `source`
// (when not null), throws DataError on malformed text, and hands every
// stanza block to `sink.block(lines, bytes)` as it closes. A header
// line resets the walker's state in both dialects, so the stanza of a
// block depends on the block's bytes alone. With no source to record,
// a block the sink already knows is skipped whole (skip_known).

template <typename Sink>
void parse_ios(std::string_view text, LintSource* source, Sink& sink) {
  LintSource::Recorder rec(source);
  OpenBlock block;
  bool in_stanza = false;
  int line_no = 0;
  for (std::size_t pos = 0; pos <= text.size();) {
    const std::string_view raw = next_line(text, pos);
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
      block.close(raw.data(), sink);
      if (!rec.on() && skip_known(text, raw.data(), pos, sink, ios_header)) {
        in_stanza = false;
        continue;
      }
      block.open(raw, line);
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
  rec.finish();
  block.close(text.data() + text.size(), sink);
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

template <typename Sink>
void parse_junos(std::string_view text, LintSource* source, Sink& sink) {
  LintSource::Recorder rec(source);
  OpenBlock block;
  bool in_stanza = false;
  int line_no = 0;
  for (std::size_t pos = 0; pos <= text.size();) {
    const std::string_view raw = next_line(text, pos);
    ++line_no;
    const std::string_view line = trim(raw);
    if (line.empty()) continue;
    if (line.starts_with("/*")) {
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
      block.close(raw.data(), sink);
      if (!rec.on() && skip_known(text, raw.data(), pos, sink, junos_header)) continue;
      block.open(raw, trim(line.substr(0, line.size() - 1)));
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
  rec.finish();
  block.close(text.data() + text.size(), sink);
}

template <typename Sink>
void walk(std::string_view text, Dialect d, LintSource* source, Sink& sink) {
  if (d == Dialect::kIosLike)
    parse_ios(text, source, sink);
  else
    parse_junos(text, source, sink);
}

DeviceConfig parse_config(std::string_view text, Dialect d, std::string device_id,
                          LintSource* source) {
  // Builds every block; it knows none to skip.
  struct Sink {
    DeviceConfig& config;
    Dialect dialect;
    void block(const BlockLines& lines, std::string_view /*bytes*/) {
      config.stanzas().push_back(build_stanza(lines, dialect));
    }
    static std::string_view known() { return {}; }
    static void reuse() {}
  };
  DeviceConfig c(std::move(device_id));
  Sink sink{c, d};
  walk(text, d, source, sink);
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

DeviceConfig parse(std::string_view text, Dialect d, std::string device_id, LintSource& source) {
  return parse_config(text, d, std::move(device_id), &source);
}

LintSource LintSource::scan(std::string_view text, Dialect d) {
  LintSource source;
  parse(text, d, "", source);
  return source;
}

SourceSpan LintSource::span_of(std::size_t stanza) const {
  return stanza < stanzas_.size() ? stanzas_[stanza].span : SourceSpan{};
}

bool LintSource::suppresses(std::string_view rule_id, std::size_t stanza) const {
  const auto names = [&](const std::vector<std::string>& ids) {
    return std::ranges::any_of(
        ids, [&](const std::string& id) { return id == rule_id || id == "all"; });
  };
  return names(device_disabled_) || (stanza < stanzas_.size() && names(stanzas_[stanza].disabled));
}

std::vector<const StanzaFacts*> StanzaInterner::read(std::string_view text, LintSource& source) {
  return intern(text, &source);
}

std::vector<const StanzaFacts*> StanzaInterner::read(std::string_view text) {
  return intern(text, nullptr);
}

void StanzaInterner::retain(std::vector<const StanzaFacts*> keep) {
  std::sort(keep.begin(), keep.end(), std::less<>());
  std::vector<const Block*> last = previous_;
  std::sort(last.begin(), last.end(), std::less<>());
  std::erase_if(blocks_, [&](const std::unique_ptr<Block>& b) {
    return !std::binary_search(last.begin(), last.end(), b.get(), std::less<>()) &&
           !std::binary_search(keep.begin(), keep.end(), &b->facts, std::less<>());
  });
  // Only the last snapshot's blocks are matched against the next one.
  for (const auto& b : blocks_)
    if (!std::binary_search(last.begin(), last.end(), b.get(), std::less<>()))
      b->bytes = std::string();
}

std::vector<const StanzaFacts*> StanzaInterner::intern(std::string_view text, LintSource* source) {
  // Blocks mostly keep their order, so the one after the last reuse is
  // tried first (and is the one a walker may skip to), then the rest.
  // No block is reused twice within a snapshot: each copy of a
  // repeated block keeps its own stanza.
  struct Sink {
    StanzaInterner& self;
    std::size_t next = 0;  ///< The previous block after the last one reused.
    std::size_t reused = 0;

    void take(std::size_t j) {
      self.taken_[j] = true;
      next = j + 1;
      ++reused;
      self.current_.push_back(self.previous_[j]);
    }
    void block(const BlockLines& lines, std::string_view bytes) {
      const auto& prev = self.previous_;
      const auto match = [&](std::size_t j) { return !self.taken_[j] && prev[j]->bytes == bytes; };
      std::size_t j = next;
      if (j >= prev.size() || !match(j))
        for (j = 0; j < prev.size() && !match(j);) ++j;
      if (j < prev.size()) return take(j);
      Block& b = *self.blocks_.emplace_back(std::make_unique<Block>(
          Block{build_stanza(lines, self.dialect_), {}, std::string(bytes)}));
      b.facts = facts_of(b.stanza);
      self.current_.push_back(&b);
    }
    std::string_view known() const {
      if (next >= self.previous_.size() || self.taken_[next]) return {};
      return self.previous_[next]->bytes;
    }
    void reuse() { take(next); }
  };
  current_.clear();
  taken_.assign(previous_.size(), false);
  Sink sink{*this};
  walk(text, dialect_, source, sink);
  blocks_seen_ += current_.size();
  blocks_reused_ += sink.reused;
  std::vector<const StanzaFacts*> facts;
  facts.reserve(current_.size());
  for (const Block* b : current_) facts.push_back(&b->facts);
  std::swap(previous_, current_);
  return facts;
}

}  // namespace mpa
