// Lint engine core: rule registry plumbing, source resolution, and the
// run driver. The rules themselves live in lint_rules.cpp.
#include "config/lint.hpp"

#include <algorithm>

#include "config/types.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace mpa {
namespace {

/// Rule ids named by a pragma comment ("lint-disable a b" -> {a, b}),
/// or nothing when the comment is not a pragma of the given kind.
std::vector<std::string> pragma_ids(std::string_view comment, std::string_view keyword) {
  const auto tokens = split_ws(comment);
  if (tokens.empty() || tokens[0] != keyword) return {};
  return {tokens.begin() + 1, tokens.end()};
}

bool disabled_in(const std::set<std::string, std::less<>>& set, std::string_view rule_id) {
  return set.count(rule_id) > 0 || set.count("all") > 0;
}

}  // namespace

// ---------------------------------------------------------------- taxonomy

std::string_view to_string(LintSeverity s) {
  switch (s) {
    case LintSeverity::kInfo: return "info";
    case LintSeverity::kWarning: return "warning";
    case LintSeverity::kError: return "error";
  }
  return "unknown";
}

std::string_view to_string(LintCategory c) {
  switch (c) {
    case LintCategory::kReferential: return "referential";
    case LintCategory::kAddressing: return "addressing";
    case LintCategory::kFilter: return "filter";
    case LintCategory::kProtocol: return "protocol";
    case LintCategory::kHygiene: return "hygiene";
  }
  return "unknown";
}

std::optional<LintSeverity> parse_severity(std::string_view s) {
  if (s == "info") return LintSeverity::kInfo;
  if (s == "warning") return LintSeverity::kWarning;
  if (s == "error") return LintSeverity::kError;
  return std::nullopt;
}

// ------------------------------------------------------- source resolution

LintSource::LintSource(const DeviceConfig& config, const SourceMap& map) {
  require(map.stanzas.size() == config.stanzas().size(),
          "LintSource: source map does not match the config");
  for (const auto& comment : map.all_comments)
    for (auto& id : pragma_ids(comment, "lint-disable-file"))
      device_disabled_.insert(std::move(id));
  for (std::size_t i = 0; i < map.stanzas.size(); ++i) {
    const Stanza& s = config.stanzas()[i];
    const SourceStanza& src = map.stanzas[i];
    Entry e;
    e.span = SourceSpan{src.first_line, src.last_line};
    for (const auto& comment : src.leading_comments)
      for (auto& id : pragma_ids(comment, "lint-disable")) e.disabled.insert(std::move(id));
    stanzas_.emplace(std::make_pair(s.type, s.name), std::move(e));
  }
}

LintSource LintSource::scan(std::string_view text, Dialect d) {
  SourceMap map;
  const DeviceConfig config = parse(text, d, "", map);
  return LintSource(config, map);
}

SourceSpan LintSource::span_of(std::string_view type, std::string_view name) const {
  const auto it = stanzas_.find(std::make_pair(std::string(type), std::string(name)));
  return it == stanzas_.end() ? SourceSpan{} : it->second.span;
}

bool LintSource::suppresses(std::string_view rule_id, std::string_view type,
                            std::string_view name) const {
  if (disabled_in(device_disabled_, rule_id)) return true;
  if (type.empty()) return false;
  const auto it = stanzas_.find(std::make_pair(std::string(type), std::string(name)));
  return it != stanzas_.end() && disabled_in(it->second.disabled, rule_id);
}

// ------------------------------------------------------------------ rules

void LintRule::check_device(const DeviceView& /*dev*/, LintSink& /*sink*/) const {}
void LintRule::check_network(const NetworkView& /*net*/, LintSink& /*sink*/) const {}

void RuleRegistry::add(std::unique_ptr<LintRule> rule) {
  require(rule != nullptr, "RuleRegistry::add: null rule");
  const std::string_view id = rule->info().id;
  require(!id.empty(), "RuleRegistry::add: rule with empty id");
  require(find(id) == nullptr, "RuleRegistry::add: duplicate rule id '" + std::string(id) + "'");
  rules_.push_back(std::move(rule));
}

const LintRule* RuleRegistry::find(std::string_view id) const {
  for (const auto& r : rules_)
    if (r->info().id == id) return r.get();
  return nullptr;
}

// ----------------------------------------------------------------- views

NetworkView::NetworkView(const std::vector<LintInput>& inputs) {
  devices_.reserve(inputs.size());
  for (const auto& in : inputs) {
    require(in.config != nullptr, "NetworkView: null config");
    devices_.emplace_back(*in.config, in.source);
  }
  for (std::size_t d = 0; d < devices_.size(); ++d) {
    for (const auto& a : devices_[d].iface_addrs()) addr_owner_.emplace(a.prefix.addr, d);
    for (const auto& s : devices_[d].config().stanzas()) {
      if (constructs_of(s.type) == std::vector<std::string>{"bgp"}) {
        bgp_procs_.push_back(BgpProc{d, &s});
        bgp_devices_.insert(d);
      }
    }
  }
}

std::size_t NetworkView::owner_of(std::uint32_t ip) const {
  const auto it = addr_owner_.find(ip);
  return it == addr_owner_.end() ? npos : it->second;
}

bool NetworkView::runs_bgp(std::size_t device) const { return bgp_devices_.count(device) > 0; }

// ------------------------------------------------------------------ sink

LintSink::LintSink(const LintOptions& opts, std::vector<Diagnostic>& out)
    : opts_(&opts), out_(&out) {}

void LintSink::set_active(const LintRule* rule) {
  active_ = rule;
  active_info_ = rule != nullptr ? rule->info() : RuleInfo{};
}

void LintSink::report(const DeviceView& dev, const Stanza* anchor, std::string message) {
  require(active_ != nullptr, "LintSink::report outside a rule");
  Diagnostic d;
  d.rule_id = std::string(active_info_.id);
  d.category = active_info_.category;
  d.severity = active_info_.severity;
  const auto sev = opts_->severity.find(d.rule_id);
  if (sev != opts_->severity.end()) d.severity = sev->second;
  d.device_id = dev.device_id();
  if (anchor != nullptr) {
    d.object = anchor->type + (anchor->name.empty() ? "" : " " + anchor->name);
  }
  d.message = std::move(message);
  if (dev.source() != nullptr) {
    if (anchor != nullptr) d.span = dev.source()->span_of(anchor->type, anchor->name);
    d.suppressed = dev.source()->suppresses(d.rule_id, anchor != nullptr ? anchor->type : "",
                                            anchor != nullptr ? anchor->name : "");
  }
  if (d.suppressed && !opts_->keep_suppressed) return;
  out_->push_back(std::move(d));
}

// ----------------------------------------------------------------- driver

namespace {

bool rule_enabled(const LintOptions& opts, std::string_view id) {
  const auto it = opts.enable.find(std::string(id));
  if (it != opts.enable.end()) return it->second;
  const auto all = opts.enable.find("all");
  if (all != opts.enable.end()) return all->second;
  return true;
}

}  // namespace

std::vector<Diagnostic> run_lint(const std::vector<LintInput>& network, const LintOptions& opts) {
  const RuleRegistry& registry = opts.registry != nullptr ? *opts.registry
                                                          : RuleRegistry::builtin();
  const NetworkView net(network);
  std::vector<Diagnostic> out;
  LintSink sink(opts, out);
  for (const auto& rule : registry.rules()) {
    if (!rule_enabled(opts, rule->info().id)) continue;
    sink.set_active(rule.get());
    for (const auto& dev : net.devices()) rule->check_device(dev, sink);
    rule->check_network(net, sink);
  }
  sink.set_active(nullptr);
  return out;
}

std::vector<Diagnostic> lint_device(const DeviceConfig& config, const LintOptions& opts) {
  return run_lint({LintInput{&config, nullptr}}, opts);
}

std::vector<Diagnostic> lint_network(const std::vector<DeviceConfig>& network,
                                     const LintOptions& opts) {
  std::vector<LintInput> inputs;
  inputs.reserve(network.size());
  for (const auto& c : network) inputs.push_back(LintInput{&c, nullptr});
  return run_lint(inputs, opts);
}

std::vector<Diagnostic> lint_network_text(const std::vector<DeviceText>& network,
                                          const LintOptions& opts) {
  std::vector<DeviceConfig> configs(network.size());
  std::vector<LintSource> sources(network.size());
  std::vector<LintInput> inputs;
  SourceMap map;
  for (std::size_t i = 0; i < network.size(); ++i) {
    configs[i] = parse(network[i].text, network[i].dialect, network[i].device_id, map);
    sources[i] = LintSource(configs[i], map);
    inputs.push_back(LintInput{&configs[i], &sources[i]});
  }
  return run_lint(inputs, opts);
}

}  // namespace mpa
