// Tests for the practice catalogue and case table.
#include <gtest/gtest.h>

#include <algorithm>

#include "metrics/case_table.hpp"
#include "util/error.hpp"

namespace mpa {
namespace {

TEST(Practices, CatalogueComplete) {
  const auto all = all_practices();
  EXPECT_EQ(all.size(), static_cast<std::size_t>(kNumPractices));
  for (Practice p : all) {
    EXPECT_NE(practice_name(p), "unknown");
    EXPECT_TRUE(category_tag(p) == "D" || category_tag(p) == "O" || category_tag(p) == "H");
  }
}

TEST(Practices, NameLookupRoundTripsAndRejectsUnknown) {
  for (Practice p : all_practices()) EXPECT_EQ(practice_from_name(practice_name(p)), p);
  EXPECT_THROW(practice_from_name("no. of devices"), DataError);  // exact match only
}

TEST(Practices, CategorySplit) {
  EXPECT_EQ(practice_category(Practice::kNumDevices), PracticeCategory::kDesign);
  EXPECT_EQ(practice_category(Practice::kHardwareEntropy), PracticeCategory::kDesign);
  EXPECT_EQ(practice_category(Practice::kNumChangeEvents), PracticeCategory::kOperational);
  EXPECT_EQ(practice_category(Practice::kFracEventsAcl), PracticeCategory::kOperational);
  EXPECT_EQ(practice_category(Practice::kFracEventsPool), PracticeCategory::kOperational);
  EXPECT_EQ(practice_category(Practice::kLintIssues), PracticeCategory::kHygiene);
  EXPECT_EQ(practice_category(Practice::kLintDensity), PracticeCategory::kHygiene);
  EXPECT_EQ(category_tag(Practice::kLintErrors), "H");
}

TEST(Practices, PaperNames) {
  EXPECT_EQ(practice_name(Practice::kNumDevices), "No. of devices");
  EXPECT_EQ(practice_name(Practice::kFracEventsMbox), "Frac. events w/ mbox change");
  EXPECT_EQ(practice_name(Practice::kAvgOspfInstanceSize), "Avg. size of an OSPF instance");
}

TEST(Practices, AnalysisSetExcludesIdentities) {
  const auto set = analysis_practices();
  EXPECT_EQ(set.size(), static_cast<std::size_t>(kNumPractices) - 3);
  for (Practice p : set) {
    EXPECT_NE(p, Practice::kFracDevicesChanged);
    EXPECT_NE(p, Practice::kNumProtocols);
    EXPECT_NE(p, Practice::kLintDensity);
  }
  // The absolute lint counts do participate.
  EXPECT_NE(std::find(set.begin(), set.end(), Practice::kLintIssues), set.end());
  EXPECT_NE(std::find(set.begin(), set.end(), Practice::kLintRulesHit), set.end());
}

Case make_case(const std::string& net, int month, double devices, double tickets) {
  Case c;
  c.network_id = net;
  c.month = month;
  c[Practice::kNumDevices] = devices;
  c.tickets = tickets;
  return c;
}

TEST(CaseTable, ColumnsAndFilters) {
  CaseTable t;
  t.add(make_case("n1", 0, 5, 1));
  t.add(make_case("n1", 1, 5, 2));
  t.add(make_case("n2", 0, 9, 0));
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.column(Practice::kNumDevices), (std::vector<double>{5, 5, 9}));
  EXPECT_EQ(t.tickets(), (std::vector<double>{1, 2, 0}));
  EXPECT_EQ(t.month(0).size(), 2u);
  EXPECT_EQ(t.filter_months(0, 1).size(), 3u);
  EXPECT_EQ(t.filter_months(2, 5).size(), 0u);
  EXPECT_EQ(t.network_ids(), (std::vector<std::string>{"n1", "n2"}));
}

TEST(CaseTable, IndexedAccessors) {
  CaseTable t;
  t.add(make_case("n1", 0, 5, 1));
  EXPECT_EQ(t[0].network_id, "n1");
  EXPECT_DOUBLE_EQ(t[0][Practice::kNumDevices], 5);
  Case c = t[0];
  c[Practice::kNumDevices] = 7;
  EXPECT_DOUBLE_EQ(c[Practice::kNumDevices], 7);
}

TEST(CaseTable, CsvHeaderAndRows) {
  CaseTable t;
  t.add(make_case("n1", 0, 5, 1));
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("network,month"), std::string::npos);
  EXPECT_NE(csv.find("No._of_devices"), std::string::npos);
  EXPECT_NE(csv.find("tickets"), std::string::npos);
  EXPECT_NE(csv.find("n1,0"), std::string::npos);
  // Exactly header + one row.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);
}

TEST(CaseTable, CsvRoundTrip) {
  CaseTable t;
  Case a = make_case("n1", 0, 5.5, 1);
  a[Practice::kFracEventsAcl] = 0.25;
  t.add(a);
  t.add(make_case("n2", 3, 9, 12));
  const CaseTable parsed = CaseTable::from_csv(t.to_csv());
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].network_id, "n1");
  EXPECT_EQ(parsed[1].month, 3);
  EXPECT_DOUBLE_EQ(parsed[0][Practice::kNumDevices], 5.5);
  EXPECT_DOUBLE_EQ(parsed[0][Practice::kFracEventsAcl], 0.25);
  EXPECT_DOUBLE_EQ(parsed[1].tickets, 12);
}

TEST(CaseTable, FromCsvRejectsMalformed) {
  EXPECT_THROW(CaseTable::from_csv("header\nn1,0,1\n"), DataError);
  EXPECT_THROW(
      CaseTable::from_csv("header\nn1,zero" + std::string(1 + kNumPractices, ',') + "\n"),
      DataError);
  EXPECT_TRUE(CaseTable::from_csv("").empty());
  EXPECT_TRUE(CaseTable::from_csv("just-a-header\n").empty());
}

}  // namespace
}  // namespace mpa
