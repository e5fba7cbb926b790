#include "metrics/case_table.hpp"

#include <optional>
#include <set>
#include <sstream>

#include "telemetry/time.hpp"
#include "util/error.hpp"
#include "util/number.hpp"
#include "util/strings.hpp"

namespace mpa {
namespace {

/// The header to_csv writes: network, month, each practice name with
/// spaces and commas as '_', tickets.
std::vector<std::string> csv_header() {
  std::vector<std::string> out{"network", "month"};
  for (Practice p : all_practices()) {
    std::string name(practice_name(p));
    for (auto& ch : name)
      if (ch == ' ' || ch == ',') ch = '_';
    out.push_back(std::move(name));
  }
  out.emplace_back("tickets");
  return out;
}

}  // namespace

std::vector<double> CaseTable::column(Practice p) const {
  std::vector<double> out;
  out.reserve(cases_.size());
  for (const auto& c : cases_) out.push_back(c[p]);
  return out;
}

std::vector<double> CaseTable::tickets() const {
  std::vector<double> out;
  out.reserve(cases_.size());
  for (const auto& c : cases_) out.push_back(c.tickets);
  return out;
}

CaseTable CaseTable::filter_months(int first, int last) const {
  CaseTable out;
  for (const auto& c : cases_)
    if (c.month >= first && c.month <= last) out.add(c);
  return out;
}

std::vector<std::string> CaseTable::network_ids() const {
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (const auto& c : cases_)
    if (seen.insert(c.network_id).second) out.push_back(c.network_id);
  return out;
}

std::string CaseTable::to_csv() const {
  std::ostringstream os;
  os << join(csv_header(), ",") << '\n';
  for (const auto& c : cases_) {
    os << csv_field(c.network_id) << ',' << c.month;
    for (Practice p : all_practices()) os << ',' << format_double(c[p], 6);
    os << ',' << format_double(c.tickets, 6) << '\n';
  }
  return os.str();
}

CaseTable CaseTable::from_csv(std::string_view csv) {
  CaseTable out;
  CsvReader reader(csv);
  std::vector<std::string> cells;
  if (!reader.next(cells)) return out;
  const std::vector<std::string> header = csv_header();
  const bool header_ok = cells == header;
  std::size_t row = 1;  // the header
  while (reader.next(cells)) {
    ++row;
    const auto fail = [&](std::size_t col, std::string_view what) {
      std::string msg = "case table: row " + std::to_string(row) + ", column " + header[col];
      msg += ": " + std::string(what) + ": '" + cells[col] + "'";
      return DataError(msg);
    };
    // A table with rows must name its columns as to_csv does, or its
    // values would be read into the wrong practices.
    if (!header_ok) throw DataError("case table: header is not the one to_csv writes");
    if (cells.size() != header.size()) {
      std::string msg = "case table: row " + std::to_string(row) + " has ";
      msg += std::to_string(cells.size()) + " columns, expected " + std::to_string(header.size());
      throw DataError(msg);
    }
    Case c;
    c.network_id = cells[0];
    const auto month = parse_whole<int>(cells[1]);
    if (!month || *month < 0 || *month >= kMaxMonths)
      throw fail(1, "not a month in [0, " + std::to_string(kMaxMonths) + ")");
    c.month = *month;
    for (std::size_t col = 2; col < cells.size(); ++col) {
      const auto v = parse_whole<double>(cells[col]);
      if (!v) throw fail(col, "not a finite number");
      if (col + 1 == cells.size())
        c.tickets = *v;
      else
        c.practice[col - 2] = *v;
    }
    out.add(std::move(c));
  }
  return out;
}

}  // namespace mpa
