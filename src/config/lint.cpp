// Lint engine core: the sink and the run driver. The rules themselves
// live in lint_rules.cpp.
#include "config/lint.hpp"

#include <set>
#include <utility>

#include "util/error.hpp"

namespace mpa {

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

// ------------------------------------------------------------------ sink

LintSink::LintSink(const LintOptions& opts, std::vector<Diagnostic>& out)
    : opts_(&opts), out_(&out) {}

LintSink::LintSink(const LintOptions& opts, LintSummary& counts) : opts_(&opts), counts_(&counts) {}

void LintSink::set_active(const LintRule* rule) {
  active_ = rule;
  active_hit_ = false;
}

LintSink::Placement LintSink::place(const DeviceView& dev, std::size_t at) const {
  require(active_ != nullptr, "LintSink::report outside a rule");
  Placement placed;
  if (const LintSource* src = dev.source()) {
    placed.span = src->span_of(at);
    placed.suppressed = src->suppresses(active_->info.id, at);
  }
  return placed;
}

bool LintSink::keeps(const Placement& placed) {
  if (placed.suppressed && !opts_->keep_suppressed) return false;
  if (counts_ == nullptr) return true;
  if (placed.suppressed) {
    ++counts_->suppressed;
    return false;
  }
  ++counts_->total;
  ++counts_->by_category[static_cast<std::size_t>(active_->info.category)];
  ++counts_->by_severity[static_cast<std::size_t>(active_->info.severity)];
  if (!std::exchange(active_hit_, true)) ++counts_->rules_hit;
  return false;
}

void LintSink::add(const DeviceView& dev, std::size_t at, const Placement& placed,
                   std::string message) {
  Diagnostic& d = out_->emplace_back();
  d.rule_id = std::string(active_->info.id);
  d.category = active_->info.category;
  d.severity = active_->info.severity;
  d.device_id = dev.device_id();
  if (at != LintSource::npos) {
    const Stanza& anchor = dev.stanza(at);
    d.object = anchor.type + (anchor.name.empty() ? "" : " " + anchor.name);
  }
  d.message = std::move(message);
  d.span = placed.span;
  d.suppressed = placed.suppressed;
}

// ----------------------------------------------------------------- driver

namespace {

/// The one loop that runs the rules, for both sink modes: every rule in
/// run order, over each device or over the network.
void drive(const NetworkView& net, LintSink& sink) {
  for (const LintRule& rule : builtin_rules()) {
    sink.set_active(&rule);
    if (rule.check_device != nullptr)
      for (const DeviceView& dev : net.devices()) rule.check_device(dev, sink);
    if (rule.check_network != nullptr) rule.check_network(net, sink);
  }
  sink.set_active(nullptr);
}

double per_device(int findings, std::size_t num_devices) {
  return num_devices > 0 ? static_cast<double>(findings) / static_cast<double>(num_devices) : 0.0;
}

}  // namespace

std::vector<Diagnostic> run_lint(const NetworkView& network, const LintOptions& opts) {
  std::vector<Diagnostic> out;
  LintSink sink(opts, out);
  drive(network, sink);
  return out;
}

LintSummary count_lint(const NetworkView& network, const LintOptions& opts) {
  LintSummary s;
  LintSink sink(opts, s);
  drive(network, sink);
  s.density = per_device(s.total, network.devices().size());
  return s;
}

LintSummary LintSummary::of(const std::vector<Diagnostic>& diags, std::size_t num_devices) {
  LintSummary s;
  std::set<std::string_view> rules;
  for (const auto& d : diags) {
    if (d.suppressed) {
      ++s.suppressed;
      continue;
    }
    ++s.total;
    ++s.by_category[static_cast<std::size_t>(d.category)];
    ++s.by_severity[static_cast<std::size_t>(d.severity)];
    rules.insert(d.rule_id);
  }
  s.rules_hit = static_cast<int>(rules.size());
  s.density = per_device(s.total, num_devices);
  return s;
}

std::vector<Diagnostic> run_lint(const std::vector<LintInput>& network, const LintOptions& opts) {
  std::vector<DeviceView> views;
  views.reserve(network.size());
  for (const auto& in : network) {
    require(in.config != nullptr, "run_lint: null config");
    views.emplace_back(*in.config, in.source);
  }
  return run_lint(NetworkView(views), opts);
}

std::vector<Diagnostic> lint_network_text(const std::vector<DeviceText>& network,
                                          const LintOptions& opts) {
  std::vector<DeviceConfig> configs(network.size());
  std::vector<LintSource> sources(network.size());
  std::vector<DeviceView> views;
  views.reserve(network.size());
  for (std::size_t i = 0; i < network.size(); ++i) {
    configs[i] = parse(network[i].text, network[i].dialect, network[i].device_id, sources[i]);
    views.emplace_back(configs[i], &sources[i]);
  }
  return run_lint(NetworkView(views), opts);
}

}  // namespace mpa
