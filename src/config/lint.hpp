// Config static analysis: a rule-engine lint over vendor-dialect
// configuration snapshots.
//
// The paper's motivation is that error-prone manual management
// introduces config inconsistencies that degrade network health. This
// module detects those inconsistencies with one fixed table of LintRule
// checks — referential integrity (dangling ACL/VLAN/pool/LAG
// references), addressing (duplicate addresses, overlapping subnets),
// filter hygiene (empty ACLs, shadowed and unreachable terms),
// protocol coherence (one-sided or AS-mismatched BGP sessions, OSPF
// area disagreement, MTU mismatch on inferred links, VLAN span gaps),
// and housekeeping (unreferenced definitions, unused interfaces left
// enabled).
//
// Diagnostics carry source spans resolved against the rendered dialect
// text (both IOS-like and JunOS-like flavours), and rules can be
// suppressed per stanza or per device with comment pragmas, which the
// dialect walkers read into each device's LintSource (dialect.hpp).
//
// Downstream, findings become per-(network, month) hygiene metrics in
// the case table (metrics/lint_metrics.hpp), a memoized session
// artifact (engine/session.hpp), and `mpa_cli lint` output in text,
// JSON, and SARIF form.
#pragma once

#include <array>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "config/device_view.hpp"
#include "config/dialect.hpp"
#include "config/stanza.hpp"
#include "util/shared_text.hpp"

namespace mpa {

// ---------------------------------------------------------------- taxonomy

enum class LintSeverity : std::uint8_t { kInfo, kWarning, kError };
inline constexpr int kNumLintSeverities = 3;

enum class LintCategory : std::uint8_t {
  kReferential,  ///< A reference that does not resolve.
  kAddressing,   ///< IP addressing inconsistencies.
  kFilter,       ///< ACL / firewall-filter structure problems.
  kProtocol,     ///< Cross-device protocol disagreements.
  kHygiene,      ///< Dead or sloppy configuration.
};
inline constexpr int kNumLintCategories = 5;

std::string_view to_string(LintSeverity s);
std::string_view to_string(LintCategory c);
std::optional<LintSeverity> parse_severity(std::string_view s);

// ------------------------------------------------------------- diagnostics

struct Diagnostic {
  std::string rule_id;
  LintSeverity severity{};
  LintCategory category{};
  std::string device_id;
  std::string object;   ///< "type name" of the anchoring stanza ("" = device).
  std::string message;  ///< Human-readable specifics.
  SourceSpan span;
  bool suppressed = false;  ///< Pragma-suppressed (kept only on request).
};

/// Counts over one network's diagnostics at one point in time: what the
/// hygiene metrics read (metrics/lint_metrics.hpp).
struct LintSummary {
  int total = 0;  ///< Unsuppressed findings.
  std::array<int, kNumLintCategories> by_category{};
  std::array<int, kNumLintSeverities> by_severity{};
  int suppressed = 0;  ///< Pragma-suppressed findings (when kept).
  int rules_hit = 0;   ///< Distinct rule ids among unsuppressed findings.
  double density = 0.0;  ///< total / num_devices (0 when no devices).

  static LintSummary of(const std::vector<Diagnostic>& diags, std::size_t num_devices);

  friend bool operator==(const LintSummary&, const LintSummary&) = default;
};

// ------------------------------------------------------------------ rules

struct RuleInfo {
  std::string_view id;       ///< Stable kebab-case identifier.
  std::string_view summary;  ///< One-line description (SARIF rule help).
  LintCategory category{};
  LintSeverity severity{};
};

class LintSink;

/// One check: its info and the one function that runs it. A
/// device-scope rule sees one device at a time, a network-scope rule the
/// whole network through its index of cross-device facts; exactly one of
/// the two functions is set.
struct LintRule {
  RuleInfo info;
  void (*check_device)(const DeviceView& dev, LintSink& sink) = nullptr;
  void (*check_network)(const NetworkView& net, LintSink& sink) = nullptr;
};

/// Every rule in this module, in run order, from one static table. Ids
/// are unique.
std::span<const LintRule> builtin_rules();

// ------------------------------------------------------------ analysis API

struct LintOptions {
  /// Keep pragma-suppressed findings, marked suppressed=true, instead
  /// of dropping them.
  bool keep_suppressed = false;
};

/// Run every built-in rule, at its own severity, over one network, one
/// view per device; pragmas are honored and spans resolved for views
/// with a source. Diagnostics come out grouped by rule (run order),
/// then device, then stanza order — deterministic for identical inputs.
std::vector<Diagnostic> run_lint(const NetworkView& network, const LintOptions& opts = {});

/// LintSummary::of(run_lint(network, opts), network.devices().size()),
/// counted as the rules report, with no diagnostic built.
LintSummary count_lint(const NetworkView& network, const LintOptions& opts = {});

/// One device of a network under analysis: the parsed config plus its
/// optional source info (spans + pragmas).
struct LintInput {
  const DeviceConfig* config = nullptr;
  const LintSource* source = nullptr;  ///< May be null (no text available).
};

/// run_lint() over a view of each input and their index.
std::vector<Diagnostic> run_lint(const std::vector<LintInput>& network,
                                 const LintOptions& opts = {});

/// Raw dialect text of one device, for span-resolving runs.
struct DeviceText {
  std::string device_id;
  SharedText text;
  Dialect dialect = Dialect::kIosLike;
};

/// Parse each device's text (one pass yields the config, spans and
/// pragmas), then run all checks with spans resolved and pragmas
/// honored. Throws DataError on malformed text.
std::vector<Diagnostic> lint_network_text(const std::vector<DeviceText>& network,
                                          const LintOptions& opts = {});

// ------------------------------------------------ rule execution contexts

/// Where rules deposit findings. Handles pragma suppression and span
/// resolution so rules only say what is wrong and where. It keeps each
/// finding as a Diagnostic, or only counts it.
class LintSink {
 public:
  LintSink(const LintOptions& opts, std::vector<Diagnostic>& out);
  /// Counts into `counts` what LintSummary::of would count over the
  /// diagnostics; density is left to the caller.
  LintSink(const LintOptions& opts, LintSummary& counts);

  /// Anchor a finding to the stanza at position `at` of `dev`
  /// (LintSource::npos = the whole device); the span and stanza pragmas
  /// are those at that position. `message` returns the text; it is
  /// called only when the finding is kept as a Diagnostic.
  template <typename Message>
  void report(const DeviceView& dev, std::size_t at, Message&& message) {
    const Placement placed = place(dev, at);
    if (keeps(placed)) add(dev, at, placed, std::string(message()));
  }

  /// The rule currently executing (set by the engine).
  void set_active(const LintRule* rule);

 private:
  struct Placement {
    SourceSpan span;
    bool suppressed = false;
  };
  Placement place(const DeviceView& dev, std::size_t at) const;
  /// Counts the finding when counting; true when it becomes a Diagnostic.
  bool keeps(const Placement& placed);
  void add(const DeviceView& dev, std::size_t at, const Placement& placed, std::string message);

  const LintOptions* opts_;
  std::vector<Diagnostic>* out_ = nullptr;
  LintSummary* counts_ = nullptr;
  const LintRule* active_ = nullptr;
  bool active_hit_ = false;  ///< The active rule has an unsuppressed finding.
};

}  // namespace mpa
