// Vendor config dialects: rendering a DeviceConfig to vendor-flavoured
// text and parsing it back.
//
// The paper's pipeline extends Batfish to parse "the configuration
// languages of various device vendors (e.g., Cisco IOS)". We model two
// dialect families that cover the same inference problems:
//
//  * IOS-like   — flat stanzas, "!"-terminated, indented option lines,
//                 multi-word native types ("ip access-list", "router bgp")
//                 and a few multi-word option keys.
//  * JunOS-like — braced blocks, ";"-terminated options, hyphenated
//                 single-token types and keys.
//
// The two families deliberately typify the same logical change
// differently (e.g. VLAN membership lives under `interface` on IOS-like
// devices but under `vlans` on JunOS-like ones), reproducing the
// vendor-typification limitation discussed in §2.2.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "config/stanza.hpp"
#include "model/inventory.hpp"

namespace mpa {

enum class Dialect : std::uint8_t { kIosLike, kJunosLike };

/// Which dialect a vendor's devices speak.
Dialect dialect_of(Vendor v);

/// Render a config to dialect text. Round-trips through parse() for
/// configs whose option keys come from the dialect's known-key set
/// (everything the simulator generates does).
std::string render(const DeviceConfig& config, Dialect d);

/// 1-based line range in the rendered dialect text; {0, 0} when the
/// finding was produced without source text.
struct SourceSpan {
  int first_line = 0;
  int last_line = 0;
  bool resolved() const { return first_line > 0; }

  friend bool operator==(const SourceSpan&, const SourceSpan&) = default;
};

/// Per-device source info, filled by the line walker that parses the
/// text: each stanza's span and the ids its suppression pragmas name,
/// in stanza order (parallel to the stanzas() of the config parsed from
/// the same text), plus the device-wide ids. No comment text is kept.
/// The pragmas are comments, so they survive parse()/render() round
/// trips untouched:
///
///   IOS-like    ! lint-disable <rule-id> [<rule-id>...]     (next stanza)
///               ! lint-disable-file <rule-id> [...]         (whole device)
///   JunOS-like  /* lint-disable <rule-id> [...] */          (next block)
///               /* lint-disable-file <rule-id> [...] */     (whole device)
///
/// A stanza takes the lint-disable ids of every comment since the
/// previous header; the rule id "all" suppresses every rule.
class LintSource {
 public:
  /// Parse `text` and keep only its source info. Throws DataError on
  /// text that parse() rejects; prefer parse(..., LintSource&) when the
  /// config is wanted too, so the text is read once.
  static LintSource scan(std::string_view text, Dialect d);

  /// Number of stanzas described.
  std::size_t size() const { return stanzas_.size(); }

  /// Span of the stanza at this position of the parsed config; {} for a
  /// position past the last stanza.
  SourceSpan span_of(std::size_t stanza) const;

  /// True if `rule_id` is suppressed device-wide, or by a pragma on the
  /// stanza at this position. A position past the last stanza (npos by
  /// default) asks about device scope only.
  bool suppresses(std::string_view rule_id, std::size_t stanza = npos) const;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// How a walker fills a source as it reads the text (dialect.cpp).
  class Recorder;

  friend bool operator==(const LintSource&, const LintSource&) = default;

 private:
  struct Entry {
    /// From the header to the "!" or "}" terminator; else to the line
    /// before the next header (blank or not); else, for a stanza still
    /// open at the end of the text, to the last line, counting the
    /// empty line after a final newline.
    SourceSpan span;
    std::vector<std::string> disabled;  ///< lint-disable ids since the previous header.

    friend bool operator==(const Entry&, const Entry&) = default;
  };
  std::vector<Entry> stanzas_;  ///< Exactly one per stanza, no spare capacity.
  std::vector<std::string> device_disabled_;  ///< lint-disable-file ids.
};

/// Parse dialect text into a DeviceConfig. Unknown stanza types and
/// option keys are preserved verbatim (first token = key). Throws
/// DataError on structurally malformed text (e.g. unbalanced braces).
DeviceConfig parse(std::string_view text, Dialect d, std::string device_id);

/// parse() that also fills `source` (replacing its contents) with the
/// stanza spans and pragmas, in the same pass over the text.
DeviceConfig parse(std::string_view text, Dialect d, std::string device_id, LintSource& source);

/// Parses the successive snapshots of one device, each distinct stanza
/// block once. A block is the text from a stanza header line up to the
/// next header line (or the end). Consecutive snapshots share almost
/// every block (§2.2: a snapshot is archived on every change), and a
/// block byte-identical to one of the previous snapshot's reuses that
/// block's parsed, immutable Stanza and its facts (stanza.hpp:
/// facts_of), both built once per distinct block; the rest are parsed.
///
/// Reuse is sound because a header line resets the walker's state in
/// both dialects: the stanza a block yields depends on its bytes alone.
/// With a source asked for, every line is still walked by the walker
/// parse() uses, so the source and every DataError are exactly parse()'s.
/// Without one, the walker skips, unwalked, a block that starts at a
/// header line when its bytes are the previous snapshot's next unreused
/// block, end in a newline, and are followed by a header line or the
/// end of the text: those lines parsed before under the same state, and
/// line numbers, which the skip loses, feed only the source.
class StanzaInterner {
 public:
  explicit StanzaInterner(Dialect d) : dialect_(d) {}
  // Handles point into this interner's blocks; a copy would hand out
  // handles into the original's.
  StanzaInterner(const StanzaInterner&) = delete;
  StanzaInterner& operator=(const StanzaInterner&) = delete;

  /// The facts of the next snapshot's stanzas, in order, as handles that
  /// stay valid for the interner's lifetime unless retain() frees their
  /// block; no handle repeats within a snapshot. Fills `source` as parse() does, and throws DataError
  /// where it does; the next call then reuses blocks of the last
  /// snapshot that parsed, and the counts below leave the failed one out.
  std::vector<const StanzaFacts*> read(std::string_view text, LintSource& source);
  /// read() without a source, skipping known blocks (above).
  std::vector<const StanzaFacts*> read(std::string_view text);

  /// Frees every block that neither a handle in `keep` nor the last
  /// snapshot read holds, and the bytes of the kept blocks that the next
  /// read cannot match. The handles of every other snapshot read so far
  /// become invalid; reads go on as before.
  void retain(std::vector<const StanzaFacts*> keep);

  /// Stanza blocks in every snapshot parsed so far, and how many of
  /// them reused an earlier block's stanza.
  std::size_t blocks() const { return blocks_seen_; }
  std::size_t reused() const { return blocks_reused_; }

 private:
  struct Block {
    Stanza stanza;
    StanzaFacts facts;  ///< Of `stanza`, built once it sits in blocks_.
    std::string bytes;
  };

  std::vector<const StanzaFacts*> intern(std::string_view text, LintSource* source);

  Dialect dialect_;
  std::vector<std::unique_ptr<Block>> blocks_;  ///< Each distinct block once.
  std::vector<const Block*> previous_;  ///< The last snapshot's blocks, in order.
  // Working storage of one parse, kept for its capacity.
  std::vector<const Block*> current_;  ///< This snapshot's blocks so far.
  std::vector<bool> taken_;            ///< Which of previous_ this snapshot reused.
  std::size_t blocks_seen_ = 0;
  std::size_t blocks_reused_ = 0;
};

}  // namespace mpa
