#include "metrics/case_table.hpp"

#include <set>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace mpa {

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
  os << "network,month";
  for (Practice p : all_practices()) {
    std::string name(practice_name(p));
    for (auto& ch : name)
      if (ch == ' ' || ch == ',') ch = '_';
    os << ',' << name;
  }
  os << ",tickets\n";
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
  reader.next(cells);  // header
  while (reader.next(cells)) {
    if (cells.size() != 3 + kNumPractices)
      throw DataError("CaseTable::from_csv: wrong column count in: " + join(cells, ","));
    Case c;
    c.network_id = cells[0];
    try {
      c.month = std::stoi(cells[1]);
      for (int j = 0; j < kNumPractices; ++j)
        c.practice[static_cast<std::size_t>(j)] = std::stod(cells[static_cast<std::size_t>(2 + j)]);
      c.tickets = std::stod(cells[cells.size() - 1]);
    } catch (const std::exception&) {
      throw DataError("CaseTable::from_csv: non-numeric cell in: " + join(cells, ","));
    }
    out.add(std::move(c));
  }
  return out;
}

}  // namespace mpa
