// Tests for the on-disk dataset format and CLI plumbing, including the
// round-trip property (save -> load -> save is byte-identical) and the
// malformed-input rejections that protect it.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "io/dataset_io.hpp"
#include "simulation/osp_generator.hpp"
#include "telemetry/time.hpp"
#include "util/error.hpp"

namespace mpa {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void spit(const fs::path& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
}

std::string replace_all_copy(std::string s, const std::string& from, const std::string& to) {
  std::string out;
  std::size_t pos = 0;
  while (true) {
    const std::size_t hit = s.find(from, pos);
    if (hit == std::string::npos) {
      out += s.substr(pos);
      return out;
    }
    out += s.substr(pos, hit - pos);
    out += to;
    pos = hit + from.size();
  }
}

class DatasetIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("mpa_io_test_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

DiskDataset small_dataset() {
  OspOptions opts;
  opts.num_networks = 4;
  opts.num_months = 3;
  opts.seed = 5;
  OspDataset gen = generate_osp(opts);
  return DiskDataset{std::move(gen.inventory), std::move(gen.snapshots), std::move(gen.tickets)};
}

TEST_F(DatasetIoTest, RoundTripPreservesEverything) {
  const DiskDataset original = small_dataset();
  save_dataset(original, dir_.string());
  const DiskDataset loaded = load_dataset(dir_.string());

  EXPECT_EQ(loaded.inventory.num_networks(), original.inventory.num_networks());
  EXPECT_EQ(loaded.inventory.num_devices(), original.inventory.num_devices());
  EXPECT_EQ(loaded.snapshots.total_snapshots(), original.snapshots.total_snapshots());
  EXPECT_EQ(loaded.snapshots.total_bytes(), original.snapshots.total_bytes());
  EXPECT_EQ(loaded.tickets.size(), original.tickets.size());

  // Deep-check one device, one snapshot, one ticket.
  const auto& dev0 = original.inventory.devices().front();
  const auto* loaded_dev = loaded.inventory.find_device(dev0.device_id);
  ASSERT_NE(loaded_dev, nullptr);
  EXPECT_EQ(loaded_dev->vendor, dev0.vendor);
  EXPECT_EQ(loaded_dev->model, dev0.model);
  EXPECT_EQ(loaded_dev->role, dev0.role);
  EXPECT_EQ(loaded_dev->firmware, dev0.firmware);

  const auto& snaps0 = original.snapshots.for_device(dev0.device_id);
  const auto& snaps1 = loaded.snapshots.for_device(dev0.device_id);
  ASSERT_EQ(snaps0.size(), snaps1.size());
  for (std::size_t i = 0; i < snaps0.size(); ++i) {
    EXPECT_EQ(snaps0[i].time, snaps1[i].time);
    EXPECT_EQ(snaps0[i].login, snaps1[i].login);
    EXPECT_EQ(std::string_view(snaps0[i].text), std::string_view(snaps1[i].text));
  }

  const Ticket& t0 = original.tickets.all().front();
  const Ticket& t1 = loaded.tickets.all().front();
  EXPECT_EQ(t1.ticket_id, t0.ticket_id);
  EXPECT_EQ(t1.created, t0.created);
  EXPECT_EQ(t1.resolved, t0.resolved);
  EXPECT_EQ(t1.origin, t0.origin);
  EXPECT_EQ(t1.symptom, t0.symptom);
  EXPECT_EQ(t1.devices, t0.devices);

  // Workloads survive.
  for (const auto& net : original.inventory.networks()) {
    const auto* ln = loaded.inventory.find_network(net.network_id);
    ASSERT_NE(ln, nullptr);
    EXPECT_EQ(ln->workloads.size(), net.workloads.size());
  }
}

TEST_F(DatasetIoTest, SaveLoadSaveIsByteIdentical) {
  save_dataset(small_dataset(), dir_.string());
  const DiskDataset loaded = load_dataset(dir_.string());
  const fs::path dir2 = dir_.string() + "_roundtrip";
  fs::remove_all(dir2);
  save_dataset(loaded, dir2.string());
  for (const char* file : {"networks.csv", "devices.csv", "tickets.csv", "snapshots.log"}) {
    EXPECT_EQ(slurp(dir_ / file), slurp(dir2 / file)) << file;
  }
  fs::remove_all(dir2);
}

TEST_F(DatasetIoTest, WhitespaceInSnapshotHeaderFieldsRejectedOnSave) {
  // A device_id or login containing whitespace would change the header
  // token count and corrupt every record after it — save must refuse.
  for (const auto& [device_id, login] : std::vector<std::pair<std::string, std::string>>{
           {"dev 1", "alice"}, {"dev\t1", "alice"}, {"dev1", "al ice"}, {"dev1", ""}}) {
    DiskDataset data = small_dataset();
    ConfigSnapshot snap;
    snap.device_id = device_id;
    snap.time = 10;
    snap.login = login;
    snap.text = std::string("hostname x\n");
    data.snapshots.add(std::move(snap));
    fs::remove_all(dir_);
    EXPECT_THROW(save_dataset(data, dir_.string()), DataError)
        << "device_id='" << device_id << "' login='" << login << "'";
  }
}

TEST_F(DatasetIoTest, CrlfAuthoredCsvFilesLoadClean) {
  const DiskDataset original = small_dataset();
  save_dataset(original, dir_.string());
  // Re-author the CSVs the way a Windows tool would (snapshots.log is
  // length-prefixed binary, so only the CSVs get line endings).
  for (const char* file : {"networks.csv", "devices.csv", "tickets.csv"}) {
    spit(dir_ / file, replace_all_copy(slurp(dir_ / file), "\n", "\r\n"));
  }
  const DiskDataset loaded = load_dataset(dir_.string());

  // The last cell of each row is the one a stray '\r' corrupts.
  for (const auto& d : original.inventory.devices()) {
    const auto* ld = loaded.inventory.find_device(d.device_id);
    ASSERT_NE(ld, nullptr);
    EXPECT_EQ(ld->firmware, d.firmware);
  }
  ASSERT_EQ(loaded.tickets.size(), original.tickets.size());
  for (std::size_t i = 0; i < original.tickets.all().size(); ++i) {
    EXPECT_EQ(loaded.tickets.all()[i].symptom, original.tickets.all()[i].symptom);
    EXPECT_EQ(loaded.tickets.all()[i].devices, original.tickets.all()[i].devices);
  }
  for (const auto& net : original.inventory.networks()) {
    const auto* ln = loaded.inventory.find_network(net.network_id);
    ASSERT_NE(ln, nullptr);
    ASSERT_EQ(ln->workloads.size(), net.workloads.size());
    for (std::size_t i = 0; i < net.workloads.size(); ++i)
      EXPECT_EQ(ln->workloads[i].name, net.workloads[i].name);
  }

  // And the CRLF load round-trips back to the canonical LF bytes.
  const fs::path dir2 = dir_.string() + "_crlf";
  fs::remove_all(dir2);
  save_dataset(loaded, dir2.string());
  fs::remove_all(dir_);
  save_dataset(original, dir_.string());
  for (const char* file : {"networks.csv", "devices.csv", "tickets.csv"}) {
    EXPECT_EQ(slurp(dir2 / file), slurp(dir_ / file)) << file;
  }
  fs::remove_all(dir2);
}

TEST_F(DatasetIoTest, CarriageReturnInsideFieldRejectedOnSave) {
  DiskDataset data = small_dataset();
  Ticket t = data.tickets.all().front();
  t.ticket_id = "tkt-cr";
  t.symptom = "link\rflap";
  data.tickets.add(std::move(t));
  EXPECT_THROW(save_dataset(data, dir_.string()), DataError);
}

TEST_F(DatasetIoTest, ListSeparatorInsideListElementRejectedOnSave) {
  // Workload names and ticket device ids are saved ';'-joined, so an
  // element holding a ';' would reload from CSV as two elements.
  DiskDataset with_workload = small_dataset();
  with_workload.inventory.add_network(NetworkRecord{"net-semi", {Workload{"web;db"}}, {}});
  DiskDataset with_device = small_dataset();
  Ticket t = with_device.tickets.all().front();
  t.ticket_id = "tkt-semi";
  t.devices = {"dev0;x"};
  with_device.tickets.add(std::move(t));

  for (const auto& [data, field] : {std::pair{&with_workload, "workload: web;db"},
                                    std::pair{&with_device, "ticket device: dev0;x"}}) {
    fs::remove_all(dir_);
    try {
      save_dataset(*data, dir_.string());
      FAIL() << field << " saved";
    } catch (const DataError& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
    }
  }
}

TEST_F(DatasetIoTest, NegativeSnapshotLengthRejectedByName) {
  save_dataset(small_dataset(), dir_.string());
  {
    std::ofstream f(dir_ / "snapshots.log", std::ios::app);
    f << "@snapshot devX 10 alice -5\n";
  }
  try {
    load_dataset(dir_.string());
    FAIL() << "negative length accepted";
  } catch (const DataError& e) {
    // The precise complaint, not the misleading "truncated body" a
    // size_t cast used to produce.
    EXPECT_NE(std::string(e.what()).find("negative snapshot length"), std::string::npos)
        << e.what();
  }
}

TEST_F(DatasetIoTest, ResolvedBeforeCreatedRejected) {
  save_dataset(small_dataset(), dir_.string());
  {
    std::ofstream f(dir_ / "tickets.csv", std::ios::app);
    f << "tkt-bad,net0,100,50," << to_string(TicketOrigin::kUserReport) << ",boom,\n";
  }
  try {
    load_dataset(dir_.string());
    FAIL() << "resolved < created accepted";
  } catch (const DataError& e) {
    EXPECT_NE(std::string(e.what()).find("precedes created"), std::string::npos) << e.what();
  }
}

TEST_F(DatasetIoTest, MalformedSnapshotHeaderRejected) {
  save_dataset(small_dataset(), dir_.string());
  {
    std::ofstream f(dir_ / "snapshots.log", std::ios::app);
    f << "@snapshot devX 10 9\n";  // four tokens, not five
  }
  EXPECT_THROW(load_dataset(dir_.string()), DataError);
}

TEST_F(DatasetIoTest, MissingDirectoryThrows) {
  EXPECT_THROW(load_dataset((dir_ / "nope").string()), DataError);
}

TEST_F(DatasetIoTest, MissingDirectoryNamedInError) {
  const std::string missing = (dir_ / "nope").string();
  try {
    load_dataset(missing);
    FAIL() << "missing directory accepted";
  } catch (const DataError& e) {
    EXPECT_NE(std::string(e.what()).find("dataset directory does not exist: " + missing),
              std::string::npos)
        << e.what();
  }
}

TEST_F(DatasetIoTest, MissingFilesNamedIndividuallyInError) {
  // A dataset directory with one source file gone must say which file,
  // not fail with a generic open error on whichever stream opened
  // first.
  for (const char* file : {"networks.csv", "devices.csv", "tickets.csv", "snapshots.log"}) {
    fs::remove_all(dir_);
    save_dataset(small_dataset(), dir_.string());
    fs::remove(dir_ / file);
    try {
      load_dataset(dir_.string());
      FAIL() << file << " missing but load succeeded";
    } catch (const DataError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("load_dataset: missing " + std::string(file) + " in dataset directory"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find(dir_.string()), std::string::npos) << what;
    }
  }
}

// Regression pin for the string_view/from_chars parsing path: the
// loader was rewritten for allocation churn, and these exact error
// strings are part of its contract (operators grep logs for them).
TEST_F(DatasetIoTest, ParseErrorStringsAreStable) {
  const std::string origin{to_string(TicketOrigin::kUserReport)};

  const auto load_error = [&](const char* file, const std::string& row) {
    fs::remove_all(dir_);
    save_dataset(small_dataset(), dir_.string());
    std::ofstream f(dir_ / file, std::ios::app);
    f << row;
    f.close();
    try {
      load_dataset(dir_.string());
      return std::string("(no error)");
    } catch (const DataError& e) {
      return std::string(e.what());
    }
  };

  EXPECT_EQ(load_error("tickets.csv", "tkt-x,net0,10,20," + origin + ",boom\n"),
            "tickets.csv: bad row: tkt-x,net0,10,20," + origin + ",boom");
  EXPECT_EQ(load_error("tickets.csv", "tkt-x,net0,12x,20," + origin + ",boom,\n"),
            "trailing junk in ticket created: 12x");
  EXPECT_EQ(load_error("tickets.csv", "tkt-x,net0,abc,20," + origin + ",boom,\n"),
            "bad integer for ticket created: abc");
  EXPECT_EQ(load_error("networks.csv", "netX\n"), "networks.csv: bad row: netX");
  EXPECT_EQ(load_error("devices.csv", "devX,netX,cisco\n"),
            "devices.csv: bad row: devX,netX,cisco");
  EXPECT_EQ(load_error("devices.csv", "devX,net0,acme,m1,core,fw1\n"), "unknown vendor: acme");
  EXPECT_EQ(load_error("snapshots.log", "@snapshot devX 10 alice -5\nx"),
            "snapshots.log: negative snapshot length in header: @snapshot devX 10 alice -5");
}

TEST_F(DatasetIoTest, MalformedRowsThrow) {
  save_dataset(small_dataset(), dir_.string());
  // Corrupt devices.csv with a short row.
  {
    std::ofstream f(dir_ / "devices.csv", std::ios::app);
    f << "incomplete,row\n";
  }
  EXPECT_THROW(load_dataset(dir_.string()), DataError);
}

TEST_F(DatasetIoTest, TruncatedSnapshotLogThrows) {
  save_dataset(small_dataset(), dir_.string());
  {
    std::ofstream f(dir_ / "snapshots.log", std::ios::app);
    f << "@snapshot devX 10 alice 9999\nshort";
  }
  EXPECT_THROW(load_dataset(dir_.string()), DataError);
}

// ---- Month-delta directories (incremental ingestion, DESIGN.md §13) ----

TEST_F(DatasetIoTest, MonthDeltaSaveLoadSaveIsByteIdentical) {
  const SplitDataset split = split_dataset(small_dataset(), 2);
  ASSERT_EQ(split.deltas.size(), 1u);
  const MonthDelta& delta = split.deltas.front();
  ASSERT_FALSE(delta.snapshots.empty());
  ASSERT_FALSE(delta.tickets.empty());

  save_month_delta(delta, dir_.string());
  const MonthDelta loaded = load_month_delta(dir_.string());
  EXPECT_EQ(loaded.month, delta.month);
  ASSERT_EQ(loaded.snapshots.size(), delta.snapshots.size());
  ASSERT_EQ(loaded.tickets.size(), delta.tickets.size());

  const fs::path dir2 = dir_.string() + "_delta";
  fs::remove_all(dir2);
  save_month_delta(loaded, dir2.string());
  for (const char* file : {"month.txt", "tickets.csv", "snapshots.log"}) {
    EXPECT_EQ(slurp(dir_ / file), slurp(dir2 / file)) << file;
  }
  fs::remove_all(dir2);
}

TEST_F(DatasetIoTest, SplitIsContiguousAndReplayRebuildsEveryRecord) {
  const DiskDataset original = small_dataset();  // three months
  const SplitDataset split = split_dataset(original, 1);
  ASSERT_EQ(split.deltas.size(), 2u);
  EXPECT_EQ(split.deltas[0].month, 1);
  EXPECT_EQ(split.deltas[1].month, 2);

  // Attribution: tickets by created month, snapshots by capture month;
  // the base holds everything strictly before the cut.
  for (const MonthDelta& delta : split.deltas) {
    for (const auto& s : delta.snapshots) EXPECT_EQ(month_of(s.time), delta.month);
    for (const auto& t : delta.tickets) EXPECT_EQ(month_of(t.created), delta.month);
  }
  for (const auto& dev : split.base.snapshots.devices())
    for (const auto& s : split.base.snapshots.for_device(dev))
      EXPECT_LT(s.time, month_start(1));

  // Replaying the deltas over the base reproduces every device's
  // snapshot sequence exactly (order preserved within destinations).
  SnapshotStore replayed = split.base.snapshots;
  for (const MonthDelta& delta : split.deltas)
    for (const auto& s : delta.snapshots) replayed.add(s);
  EXPECT_EQ(replayed.total_snapshots(), original.snapshots.total_snapshots());
  for (const auto& dev : original.snapshots.devices()) {
    const auto& want = original.snapshots.for_device(dev);
    const auto& got = replayed.for_device(dev);
    ASSERT_EQ(got.size(), want.size()) << dev;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].time, want[i].time);
      EXPECT_EQ(got[i].login, want[i].login);
      EXPECT_EQ(std::string_view(got[i].text), std::string_view(want[i].text));
    }
  }

  // Tickets come back as a month-major permutation of the originals.
  std::vector<std::string> want_ids, got_ids;
  for (const Ticket& t : original.tickets.all()) want_ids.push_back(t.ticket_id);
  for (const Ticket& t : split.base.tickets.all()) got_ids.push_back(t.ticket_id);
  for (const MonthDelta& delta : split.deltas)
    for (const Ticket& t : delta.tickets) got_ids.push_back(t.ticket_id);
  std::sort(want_ids.begin(), want_ids.end());
  std::sort(got_ids.begin(), got_ids.end());
  EXPECT_EQ(got_ids, want_ids);
}

TEST_F(DatasetIoTest, DeltaResolvedBeforeCreatedRejectedWithDatasetErrorString) {
  const SplitDataset split = split_dataset(small_dataset(), 2);
  save_month_delta(split.deltas.front(), dir_.string());
  {
    std::ofstream f(dir_ / "tickets.csv", std::ios::app);
    f << "tkt-bad,net0,100,50," << to_string(TicketOrigin::kUserReport) << ",boom,\n";
  }
  try {
    load_month_delta(dir_.string());
    FAIL() << "resolved < created accepted";
  } catch (const DataError& e) {
    // Shares the dataset loader's validation, error string included.
    EXPECT_NE(std::string(e.what()).find("precedes created"), std::string::npos) << e.what();
  }
}

TEST_F(DatasetIoTest, DeltaHeaderTokensValidatedOnSaveWithDatasetErrorStrings) {
  const SplitDataset split = split_dataset(small_dataset(), 2);
  for (const auto& [device_id, login] : std::vector<std::pair<std::string, std::string>>{
           {"dev 1", "alice"}, {"dev\r1", "alice"}, {"dev1", "al\tice"}, {"", "alice"}}) {
    MonthDelta delta = split.deltas.front();
    ConfigSnapshot snap;
    snap.device_id = device_id;
    snap.time = month_start(delta.month);
    snap.login = login;
    snap.text = std::string("hostname x\n");
    delta.snapshots.push_back(std::move(snap));
    fs::remove_all(dir_);
    try {
      save_month_delta(delta, dir_.string());
      FAIL() << "device_id='" << device_id << "' login='" << login << "'";
    } catch (const DataError& e) {
      EXPECT_NE(std::string(e.what()).find("snapshot header field"), std::string::npos)
          << e.what();
    }
  }
}

TEST_F(DatasetIoTest, DeltaCrlfFilesLoadClean) {
  const SplitDataset split = split_dataset(small_dataset(), 2);
  const MonthDelta& delta = split.deltas.front();
  save_month_delta(delta, dir_.string());
  for (const char* file : {"month.txt", "tickets.csv"}) {
    spit(dir_ / file, replace_all_copy(slurp(dir_ / file), "\n", "\r\n"));
  }
  const MonthDelta loaded = load_month_delta(dir_.string());
  EXPECT_EQ(loaded.month, delta.month);
  ASSERT_EQ(loaded.tickets.size(), delta.tickets.size());
  for (std::size_t i = 0; i < delta.tickets.size(); ++i) {
    // The last cell of each row is the one a stray '\r' corrupts.
    EXPECT_EQ(loaded.tickets[i].symptom, delta.tickets[i].symptom);
    EXPECT_EQ(loaded.tickets[i].devices, delta.tickets[i].devices);
  }
}

TEST_F(DatasetIoTest, NegativeDeltaMonthRejectedByName) {
  const SplitDataset split = split_dataset(small_dataset(), 2);
  save_month_delta(split.deltas.front(), dir_.string());
  spit(dir_ / "month.txt", "-3\n");
  try {
    load_month_delta(dir_.string());
    FAIL() << "negative month accepted";
  } catch (const DataError& e) {
    EXPECT_NE(std::string(e.what()).find("delta month is negative"), std::string::npos)
        << e.what();
  }
}

TEST_F(DatasetIoTest, DeltaMonthOutsideIntRejectedByName) {
  // Regression: month.txt 4294967299 was cast to int and appended as
  // month 3.
  const SplitDataset split = split_dataset(small_dataset(), 2);
  save_month_delta(split.deltas.front(), dir_.string());
  for (const char* bad : {"4294967299", "2147483648", "2.0", "0x2"}) {
    spit(dir_ / "month.txt", std::string(bad) + "\n");
    try {
      load_month_delta(dir_.string());
      ADD_FAILURE() << "month " << bad << " accepted";
    } catch (const DataError& e) {
      EXPECT_NE(std::string(e.what()).find("month.txt: delta month"), std::string::npos)
          << e.what();
    }
  }
}

TEST(CheckHeaderToken, RejectsEmptyAndWhitespaceByName) {
  EXPECT_NO_THROW(check_header_token("dev1", "device_id"));
  try {
    check_header_token("", "device_id");
    FAIL() << "empty token accepted";
  } catch (const DataError& e) {
    EXPECT_NE(std::string(e.what()).find("snapshot header field is empty"), std::string::npos)
        << e.what();
  }
  for (const char* bad : {"a b", "a\tb", "a\rb", "a\nb"}) {
    try {
      check_header_token(bad, "login");
      FAIL() << "token '" << bad << "' accepted";
    } catch (const DataError& e) {
      EXPECT_NE(std::string(e.what()).find("contains whitespace"), std::string::npos)
          << e.what();
    }
  }
}

TEST(DatasetIoParsers, EnumRoundTrips) {
  for (int v = 0; v < kNumVendors; ++v) {
    const auto vendor = static_cast<Vendor>(v);
    EXPECT_EQ(vendor_from_string(to_string(vendor)), vendor);
  }
  for (int r = 0; r < kNumRoles; ++r) {
    const auto role = static_cast<Role>(r);
    EXPECT_EQ(role_from_string(to_string(role)), role);
  }
  for (auto o : {TicketOrigin::kMonitoringAlarm, TicketOrigin::kUserReport,
                 TicketOrigin::kMaintenance}) {
    EXPECT_EQ(origin_from_string(to_string(o)), o);
  }
  EXPECT_THROW(vendor_from_string("acme"), DataError);
  EXPECT_THROW(role_from_string("toaster"), DataError);
  EXPECT_THROW(origin_from_string("psychic"), DataError);
}

}  // namespace
}  // namespace mpa
