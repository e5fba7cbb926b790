#include "engine/lint_report.hpp"

#include <algorithm>
#include <array>
#include <climits>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "util/error.hpp"
#include "util/json.hpp"
#include "util/number.hpp"
#include "util/strings.hpp"

namespace mpa {
namespace {

std::optional<LintCategory> parse_category(std::string_view s) {
  for (int i = 0; i < kNumLintCategories; ++i) {
    const auto c = static_cast<LintCategory>(i);
    if (to_string(c) == s) return c;
  }
  return std::nullopt;
}

/// SARIF result level for a severity.
std::string_view sarif_level(LintSeverity s) {
  switch (s) {
    case LintSeverity::kInfo: return "note";
    case LintSeverity::kWarning: return "warning";
    case LintSeverity::kError: return "error";
  }
  return "none";
}

struct Counts {
  int total = 0;
  std::array<int, kNumLintSeverities> by_severity{};
  std::set<std::string_view> rules;

  void count(const Diagnostic& d) {
    if (d.suppressed) return;
    ++total;
    ++by_severity[static_cast<std::size_t>(d.severity)];
    rules.insert(d.rule_id);
  }
};

/// The header to_csv writes.
constexpr std::string_view kCsvHeader =
    "record,network_id,device_id,rule_id,severity,category,first_line,last_line,suppressed,"
    "object,message";

}  // namespace

std::size_t LintReport::total_findings() const {
  std::size_t n = 0;
  for (const auto& net : networks) n += net.diagnostics.size();
  return n;
}

LintReport LintReport::at_least(LintSeverity min) const {
  LintReport out;
  out.networks.reserve(networks.size());
  for (const auto& net : networks) {
    NetworkLint kept;
    kept.network_id = net.network_id;
    kept.num_devices = net.num_devices;
    for (const auto& d : net.diagnostics)
      if (d.severity >= min) kept.diagnostics.push_back(d);
    out.networks.push_back(std::move(kept));
  }
  return out;
}

std::string LintReport::to_csv() const {
  std::ostringstream os;
  os << kCsvHeader << '\n';
  for (const auto& net : networks) {
    os << "net," << csv_field(net.network_id) << "," << net.num_devices << "\n";
    for (const auto& d : net.diagnostics) {
      os << "diag," << csv_field(d.device_id) << "," << csv_field(d.rule_id) << ","
         << to_string(d.severity) << "," << to_string(d.category) << "," << d.span.first_line
         << "," << d.span.last_line << "," << (d.suppressed ? 1 : 0) << ","
         << csv_field(d.object) << "," << csv_field(d.message) << "\n";
    }
  }
  return os.str();
}

LintReport LintReport::from_csv(std::string_view csv) {
  LintReport out;
  CsvReader reader(csv);
  std::vector<std::string> cells;
  if (!reader.next(cells)) return out;
  const bool header_ok = std::ranges::equal(cells, split_views(kCsvHeader, ','));
  std::size_t row = 1;  // the header
  while (reader.next(cells)) {
    ++row;
    const auto fail = [&](const std::string& what) {
      return DataError("lint report: row " + std::to_string(row) + ": " + what);
    };
    // Digits only: read as unsigned, so a sign ("-0") is refused too.
    const auto int_cell = [&](std::size_t col, const char* column) {
      const auto v = parse_whole<unsigned>(cells[col]);
      if (!v || *v > INT_MAX)
        throw fail(std::string(column) + ": not an integer in [0, INT_MAX]: " + cells[col]);
      return static_cast<int>(*v);
    };
    if (!header_ok) throw DataError("lint report: header is not the one to_csv writes");
    if (cells[0] == "net") {
      if (cells.size() != 3) throw fail("bad network row");
      NetworkLint net;
      net.network_id = cells[1];
      net.num_devices = static_cast<std::size_t>(int_cell(2, "device count"));
      out.networks.push_back(std::move(net));
      continue;
    }
    if (cells[0] != "diag" || cells.size() != 10) throw fail("bad finding row");
    if (out.networks.empty()) throw fail("finding before any network");
    Diagnostic d;
    d.device_id = cells[1];
    d.rule_id = cells[2];
    const auto sev = parse_severity(cells[3]);
    if (!sev) throw fail("bad severity '" + cells[3] + "'");
    d.severity = *sev;
    const auto cat = parse_category(cells[4]);
    if (!cat) throw fail("bad category '" + cells[4] + "'");
    d.category = *cat;
    d.span.first_line = int_cell(5, "first_line");
    d.span.last_line = int_cell(6, "last_line");
    d.suppressed = int_cell(7, "suppressed") != 0;
    d.object = cells[8];
    d.message = cells[9];
    out.networks.back().diagnostics.push_back(std::move(d));
  }
  return out;
}

std::string LintReport::to_text() const {
  std::ostringstream os;
  Counts overall;
  for (const auto& net : networks) {
    Counts local;
    for (const auto& d : net.diagnostics) {
      local.count(d);
      overall.count(d);
    }
    if (net.diagnostics.empty()) continue;
    os << net.network_id << " (" << net.num_devices << " devices): " << local.total
       << " findings\n";
    for (const auto& d : net.diagnostics) {
      os << "  " << d.device_id;
      if (d.span.resolved()) {
        os << ":" << d.span.first_line;
        if (d.span.last_line > d.span.first_line) os << "-" << d.span.last_line;
      }
      os << " " << to_string(d.severity) << " " << d.rule_id;
      if (d.suppressed) os << " (suppressed)";
      os << ": " << d.message << "\n";
    }
  }
  os << "total: " << overall.total << " findings ("
     << overall.by_severity[static_cast<std::size_t>(LintSeverity::kError)] << " errors, "
     << overall.by_severity[static_cast<std::size_t>(LintSeverity::kWarning)] << " warnings, "
     << overall.by_severity[static_cast<std::size_t>(LintSeverity::kInfo)] << " info) across "
     << networks.size() << " networks; " << overall.rules.size() << " rules hit\n";
  return os.str();
}

std::string LintReport::to_json() const {
  std::ostringstream os;
  Counts overall;
  os << "{\n  \"networks\": [";
  bool first_net = true;
  for (const auto& net : networks) {
    os << (first_net ? "\n" : ",\n");
    first_net = false;
    os << "    {\"network\": \"" << json_escape(net.network_id) << "\", \"devices\": "
       << net.num_devices << ", \"findings\": [";
    bool first_diag = true;
    for (const auto& d : net.diagnostics) {
      overall.count(d);
      os << (first_diag ? "\n" : ",\n");
      first_diag = false;
      os << "      {\"rule\": \"" << json_escape(d.rule_id) << "\", \"severity\": \""
         << to_string(d.severity) << "\", \"category\": \"" << to_string(d.category)
         << "\", \"device\": \"" << json_escape(d.device_id) << "\", \"object\": \""
         << json_escape(d.object) << "\", \"line\": " << d.span.first_line
         << ", \"endLine\": " << d.span.last_line
         << ", \"suppressed\": " << (d.suppressed ? "true" : "false") << ", \"message\": \""
         << json_escape(d.message) << "\"}";
    }
    os << (first_diag ? "]}" : "\n    ]}");
  }
  os << (first_net ? "],\n" : "\n  ],\n");
  os << "  \"summary\": {\"total\": " << overall.total << ", \"errors\": "
     << overall.by_severity[static_cast<std::size_t>(LintSeverity::kError)] << ", \"warnings\": "
     << overall.by_severity[static_cast<std::size_t>(LintSeverity::kWarning)] << ", \"info\": "
     << overall.by_severity[static_cast<std::size_t>(LintSeverity::kInfo)]
     << ", \"rulesHit\": " << overall.rules.size() << "}\n}\n";
  return os.str();
}

std::string LintReport::to_sarif() const {
  // Rule index in the driver.rules array, for result.ruleIndex.
  std::map<std::string_view, std::size_t> rule_index;
  std::ostringstream os;
  os << "{\n"
     << "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
     << "  \"version\": \"2.1.0\",\n"
     << "  \"runs\": [\n"
     << "    {\n"
     << "      \"tool\": {\n"
     << "        \"driver\": {\n"
     << "          \"name\": \"mpa-lint\",\n"
     << "          \"informationUri\": \"https://example.invalid/mpa\",\n"
     << "          \"rules\": [";
  bool first = true;
  for (const LintRule& rule : builtin_rules()) {
    const RuleInfo& info = rule.info;
    rule_index.emplace(info.id, rule_index.size());
    os << (first ? "\n" : ",\n");
    first = false;
    os << "            {\"id\": \"" << json_escape(info.id) << "\", \"shortDescription\": "
       << "{\"text\": \"" << json_escape(info.summary) << "\"}, \"defaultConfiguration\": "
       << "{\"level\": \"" << sarif_level(info.severity) << "\"}, \"properties\": "
       << "{\"category\": \"" << to_string(info.category) << "\"}}";
  }
  os << "\n          ]\n"
     << "        }\n"
     << "      },\n"
     << "      \"results\": [";
  first = true;
  for (const auto& net : networks) {
    for (const auto& d : net.diagnostics) {
      os << (first ? "\n" : ",\n");
      first = false;
      os << "        {\"ruleId\": \"" << json_escape(d.rule_id) << "\"";
      const auto idx = rule_index.find(d.rule_id);
      if (idx != rule_index.end()) os << ", \"ruleIndex\": " << idx->second;
      os << ", \"level\": \"" << sarif_level(d.severity) << "\", \"message\": {\"text\": \""
         << json_escape(d.message) << "\"}, \"locations\": [{\"physicalLocation\": "
         << "{\"artifactLocation\": {\"uri\": \"" << json_escape(net.network_id) << "/"
         << json_escape(d.device_id) << ".cfg\"}";
      if (d.span.resolved()) {
        os << ", \"region\": {\"startLine\": " << d.span.first_line
           << ", \"endLine\": " << d.span.last_line << "}";
      }
      os << "}, \"logicalLocations\": [{\"name\": \"" << json_escape(d.object)
         << "\", \"kind\": \"object\"}]}]";
      if (d.suppressed)
        os << ", \"suppressions\": [{\"kind\": \"inSource\", \"justification\": "
           << "\"lint-disable pragma\"}]";
      os << "}";
    }
  }
  os << "\n      ]\n    }\n  ]\n}\n";
  return os.str();
}

}  // namespace mpa
