// Tests for the one set of dataset record rules (RecordChecker in
// io/dataset_io.hpp): every defect is rejected with a DataError naming
// the record and its source, whichever path the record enters by —
// CSV load, mpac load, verify_columnar, or append_month — and seeded
// mutants of real datasets are either accepted or rejected that way.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "engine/session.hpp"
#include "io/columnar.hpp"
#include "io/dataset_io.hpp"
#include "mutation.hpp"
#include "simulation/osp_generator.hpp"
#include "telemetry/time.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/strings.hpp"

namespace mpa {
namespace {

namespace fs = std::filesystem;

/// A dataset as plain record lists in container order, so a test can
/// write records the containers themselves would refuse.
struct Records {
  std::vector<NetworkRecord> networks;
  std::vector<DeviceRecord> devices;
  std::vector<Ticket> tickets;
  std::vector<ConfigSnapshot> snapshots;
};

Records records_of(const DiskDataset& d) {
  Records r{d.inventory.networks(), d.inventory.devices(), d.tickets.all(), {}};
  for (const auto& device_id : d.snapshots.devices())
    for (const auto& snap : d.snapshots.for_device(device_id)) r.snapshots.push_back(snap);
  return r;
}

/// The CSV files of `r`, rendered without any validation.
void write_csv(const Records& r, const fs::path& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::ofstream nets(dir / "networks.csv"), devs(dir / "devices.csv"), tkts(dir / "tickets.csv");
  std::ofstream snaps(dir / "snapshots.log", std::ios::binary);
  nets << "network_id,workloads\n";
  for (const auto& n : r.networks) {
    std::vector<std::string> names;
    for (const auto& w : n.workloads) names.push_back(w.name);
    nets << n.network_id << ',' << join(names, ";") << '\n';
  }
  devs << "device_id,network_id,vendor,model,role,firmware\n";
  for (const auto& d : r.devices)
    devs << d.device_id << ',' << d.network_id << ',' << to_string(d.vendor) << ',' << d.model
         << ',' << to_string(d.role) << ',' << d.firmware << '\n';
  tkts << "ticket_id,network_id,created,resolved,origin,symptom,devices\n";
  for (const auto& t : r.tickets)
    tkts << t.ticket_id << ',' << t.network_id << ',' << t.created << ',' << t.resolved << ','
         << to_string(t.origin) << ',' << t.symptom << ',' << join(t.devices, ";") << '\n';
  for (const auto& s : r.snapshots)
    snaps << "@snapshot " << s.device_id << ' ' << s.time << ' ' << s.login << ' '
          << s.text.size() << '\n'
          << s.text;
}

/// `r` as an mpac dataset; ColumnarWriter checks no record rule.
void write_mpac(const Records& r, const fs::path& dir, ColumnarWriteOptions opts = {}) {
  fs::remove_all(dir);
  ColumnarWriter w(dir.string(), opts);
  for (const auto& n : r.networks) w.add_network(n);
  for (const auto& d : r.devices) w.add_device(d);
  for (const auto& t : r.tickets) w.add_ticket(t);
  for (const auto& s : r.snapshots) w.add_snapshot(s);
  w.finish();
}

/// "" when `f` returns, the message when it throws a DataError. Any
/// other exception fails the test: outside bytes must never reach a
/// precondition.
std::string outcome(const std::function<void()>& f, const std::string& what) {
  try {
    f();
    return "";
  } catch (const DataError& e) {
    return e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": not a DataError: " << e.what();
    return "(not a DataError)";
  }
}

DiskDataset generated(int networks, int months, std::uint64_t seed) {
  OspOptions opts;
  opts.num_networks = networks;
  opts.num_months = months;
  opts.seed = seed;
  OspDataset gen = generate_osp(opts);
  return DiskDataset{std::move(gen.inventory), std::move(gen.snapshots), std::move(gen.tickets)};
}

class RecordRules : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("mpa_record_rules_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

/// One defective record, appended to the records of its kind. `inject`
/// returns the id the rejection must name.
struct Defect {
  std::string name;
  const char* csv_file;  ///< The CSV file the record lives in.
  bool in_delta;         ///< Can occur in a month delta.
  std::function<std::string(Records&)> inject;
};

std::vector<Defect> defects() {
  std::vector<Defect> out = {
      {"duplicate network", "networks.csv", false,
       [](Records& r) {
         r.networks.push_back(r.networks.back());
         return r.networks.back().network_id;
       }},
      {"duplicate device", "devices.csv", false,
       [](Records& r) {
         r.devices.push_back(r.devices.back());
         return r.devices.back().device_id;
       }},
      {"device in unknown network", "devices.csv", false,
       [](Records& r) {
         DeviceRecord d = r.devices.back();
         d.device_id = "dev-orphan";
         d.network_id = "net-missing";
         r.devices.push_back(d);
         return std::string("dev-orphan");
       }},
      {"ticket for unknown network", "tickets.csv", true,
       [](Records& r) {
         Ticket t = r.tickets.back();
         t.ticket_id = "tkt-defect";
         t.network_id = "net-missing";
         r.tickets.push_back(t);
         return std::string("tkt-defect");
       }},
      {"resolved before created", "tickets.csv", true,
       [](Records& r) {
         Ticket t = r.tickets.back();
         t.ticket_id = "tkt-defect";
         t.resolved = t.created - 1;
         r.tickets.push_back(t);
         return std::string("tkt-defect");
       }},
      {"snapshot for unknown device", "snapshots.log", true,
       [](Records& r) {
         ConfigSnapshot s = r.snapshots.back();
         s.device_id = "dev-ghost";
         r.snapshots.push_back(s);
         return std::string("dev-ghost");
       }},
      {"snapshots out of time order", "snapshots.log", true,
       [](Records& r) {
         ConfigSnapshot s = r.snapshots.back();  // the device's last snapshot
         --s.time;
         r.snapshots.push_back(s);
         return s.device_id;
       }},
      {"snapshot login with whitespace", "snapshots.log", true,
       [](Records& r) {
         ConfigSnapshot s = r.snapshots.back();
         s.login = "al ice";
         r.snapshots.push_back(s);
         return s.device_id;
       }},
  };
  // Times outside [0, month_start(kMaxMonths)). The snapshot keeps its
  // device's time order, so only the range rule can reject it; the
  // last time overflowed month_of(t) + 1 when a session opened it.
  for (const Timestamp bad :
       {Timestamp{-1}, month_start(kMaxMonths), kMinutesPerMonth * Timestamp{INT32_MAX}}) {
    const auto snapshot = [bad](Records& r) {
      ConfigSnapshot s = bad < 0 ? r.snapshots.front() : r.snapshots.back();
      s.time = bad;
      r.snapshots.insert(bad < 0 ? r.snapshots.begin() : r.snapshots.end(), s);
      return s.device_id;
    };
    const auto ticket = [bad](Records& r) {
      Ticket t = r.tickets.back();
      t.ticket_id = "tkt-defect";
      t.created = std::min(t.created, bad);
      t.resolved = std::max(t.resolved, bad);
      r.tickets.push_back(t);
      return t.ticket_id;
    };
    const std::string at = " at time " + std::to_string(bad);
    out.push_back({"snapshot" + at, "snapshots.log", true, snapshot});
    out.push_back({"ticket" + at, "tickets.csv", true, ticket});
  }
  return out;
}

TEST_F(RecordRules, CsvLoadRejectsEachDefectNamingRecordAndFile) {
  const Records base = records_of(generated(4, 3, 5));
  for (const Defect& defect : defects()) {
    Records r = base;
    const std::string id = defect.inject(r);
    write_csv(r, dir_);
    // A login with whitespace cannot be written as CSV: it breaks the
    // header, which is rejected as a format error naming the record.
    const std::string error = outcome([&] { load_dataset(dir_.string()); }, defect.name);
    EXPECT_NE(error.find(id), std::string::npos) << defect.name << ": " << error;
    EXPECT_NE(error.find(defect.csv_file), std::string::npos) << defect.name << ": " << error;
  }
}

TEST_F(RecordRules, MpacLoadAndVerifyRejectEachDefectNamingRecordAndShard) {
  const Records base = records_of(generated(4, 3, 5));
  for (const Defect& defect : defects()) {
    Records r = base;
    const std::string id = defect.inject(r);
    write_mpac(r, dir_);
    const std::string load = outcome([&] { load_dataset(dir_.string()); }, defect.name);
    EXPECT_NE(load.find(id), std::string::npos) << defect.name << ": " << load;
    EXPECT_NE(load.find("mpac: shard-00000.mpac"), std::string::npos)
        << defect.name << ": " << load;
    EXPECT_EQ(outcome([&] { verify_columnar(dir_.string()); }, defect.name), load)
        << defect.name;
  }
}

TEST_F(RecordRules, AppendMonthRejectsEachDefectNamingRecord) {
  const SplitDataset split = split_dataset(generated(4, 3, 5), 2);
  ASSERT_EQ(split.deltas.size(), 1u);
  const MonthDelta& good = split.deltas.front();
  SessionOptions opts;
  opts.threads = 1;
  opts.inference.num_months = 2;
  AnalysisSession session(split.base.inventory, split.base.snapshots, split.base.tickets, opts);
  for (const Defect& defect : defects()) {
    if (!defect.in_delta) continue;
    Records r{{}, {}, good.tickets, good.snapshots};
    const std::string id = defect.inject(r);
    const MonthDelta bad{good.month, r.snapshots, r.tickets};
    const std::string error = outcome([&] { session.append_month(bad); }, defect.name);
    EXPECT_NE(error.find(id), std::string::npos) << defect.name << ": " << error;
    EXPECT_EQ(error.rfind("append_month: ", 0), 0u) << defect.name << ": " << error;
  }
  EXPECT_EQ(session.num_months(), 2);
  EXPECT_EQ(session.stats().appends, 0u);
  EXPECT_NO_THROW(session.append_month(good));
}

// ---- Seeded mutants of real datasets (the loaders' fuzz contract) ----

/// A small generated dataset with one-line configs: the loaders never
/// read config text, so short texts put most mutations on the records.
DiskDataset fuzz_base() {
  DiskDataset data = generated(3, 2, 9);
  SnapshotStore shortened;
  for (const auto& device_id : data.snapshots.devices())
    for (ConfigSnapshot snap : data.snapshots.for_device(device_id)) {
      const std::string_view text = snap.text;
      snap.text = std::string(text.substr(0, text.find('\n') + 1));
      shortened.add(std::move(snap));
    }
  data.snapshots = std::move(shortened);
  return data;
}

TEST_F(RecordRules, FuzzCsvAndDeltaMutantsLoadOrRaiseDataError) {
  const DiskDataset base = fuzz_base();
  const fs::path dataset = dir_ / "dataset";
  const fs::path delta = dir_ / "delta";
  save_dataset(base, dataset.string());
  const SplitDataset cut = split_dataset(base, 1);
  ASSERT_FALSE(cut.deltas.empty());
  save_month_delta(cut.deltas.front(), delta.string());

  const std::function<void()> load = [&] { load_dataset(dataset.string()); };
  const std::function<void()> load_delta = [&] { load_month_delta(delta.string()); };
  const std::vector<std::pair<fs::path, const std::function<void()>*>> targets = {
      {dataset / "networks.csv", &load},  {dataset / "devices.csv", &load},
      {dataset / "tickets.csv", &load},   {dataset / "snapshots.log", &load},
      {delta / "tickets.csv", &load_delta}, {delta / "snapshots.log", &load_delta},
  };
  Rng rng(fuzz_seed(0x5eed));
  int rejected = 0;
  for (const auto& [path, loader] : targets) {
    std::ifstream in(path, std::ios::binary);
    const std::string original{std::istreambuf_iterator<char>(in), {}};
    const std::vector<std::string_view> lines = split_views(original, '\n');
    for (int i = 0; i < 150; ++i) {
      const auto pick = rng.uniform_int(0, static_cast<std::int64_t>(lines.size()) - 1);
      const std::string donor(lines[static_cast<std::size_t>(pick)]);
      const std::string mutant = mutate(original, donor + '\n', rng);
      std::ofstream(path, std::ios::binary) << mutant;
      if (!outcome(*loader, path.string() + " mutant " + std::to_string(i)).empty()) ++rejected;
    }
    std::ofstream(path, std::ios::binary) << original;
  }
  EXPECT_GT(rejected, 0);
}

/// One record-level mutation: repeat, drop or swap records of one kind,
/// or point a device, ticket or snapshot at an id that does not exist.
void mutate_records(Records& r, Rng& rng) {
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const auto reshape = [&](auto& v) {
    const std::size_t i = pick(v.size());
    switch (rng.uniform_int(0, 2)) {
      case 0: v.insert(v.begin() + static_cast<std::ptrdiff_t>(pick(v.size())), v[i]); break;
      case 1: v.erase(v.begin() + static_cast<std::ptrdiff_t>(i)); break;
      default: std::swap(v[i], v[pick(v.size())]); break;
    }
  };
  switch (rng.uniform_int(0, 6)) {
    case 0: reshape(r.networks); break;
    case 1: reshape(r.devices); break;
    case 2: reshape(r.tickets); break;
    case 3: reshape(r.snapshots); break;
    case 4: r.devices[pick(r.devices.size())].network_id = "net-missing"; break;
    case 5: r.tickets[pick(r.tickets.size())].network_id = "net-missing"; break;
    default: r.snapshots[pick(r.snapshots.size())].device_id = "dev-missing"; break;
  }
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

std::uint64_t read_u64(const std::string& bytes, std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + at, sizeof v);
  return v;
}

/// A value a mutated structure field is likely to get wrong: a bound, a
/// near miss of the original, or noise.
std::uint64_t edge_value(std::uint64_t original, Rng& rng) {
  switch (rng.uniform_int(0, 5)) {
    case 0: return 0;
    case 1: return original + static_cast<std::uint64_t>(rng.uniform_int(-9, 9));
    case 2: return std::uint64_t{1} << rng.uniform_int(0, 63);
    case 3: return ~std::uint64_t{0} - static_cast<std::uint64_t>(rng.uniform_int(0, 64));
    case 4: return 0 - original;
    default: return rng.next();
  }
}

TEST_F(RecordRules, FuzzMpacShardStructureBytesLoadOrRaiseDataError) {
  write_mpac(records_of(fuzz_base()), dir_);
  const fs::path shard_path = dir_ / "shard-00000.mpac";
  const fs::path manifest_path = dir_ / kMpacManifestName;
  const std::string shard = slurp(shard_path);
  const std::string manifest = slurp(manifest_path);
  const std::string sealed_fp = std::to_string(read_u64(shard, shard.size() - 8));

  // The bytes the structure checks read: the header, the directory and
  // the four offset columns. `sorted` is an offset column's element
  // size, 0 elsewhere.
  struct Region {
    std::size_t begin, end, sorted;
  };
  const std::uint64_t dir_offset = read_u64(shard, 8);
  const std::uint64_t dir_count = read_u64(shard, 16) & 0xffffffffu;
  std::vector<Region> regions = {{0, 24, 0}, {dir_offset, dir_offset + 24 * dir_count, 0}};
  {
    const ColumnarDataset data = load_columnar(dir_.string());
    for (const ColumnTag tag : {ColumnTag::kDictOffsets, ColumnTag::kNetWorkloadBegin,
                                ColumnTag::kTktDeviceBegin, ColumnTag::kSnapTextBegin}) {
      const ShardView::ColumnInfo* c = data.shards().front().column(tag);
      regions.push_back({c->offset, c->offset + c->count * c->elem_size, c->elem_size});
    }
  }

  Rng rng(fuzz_seed(0xb17e));
  const auto pick = [&](std::size_t lo, std::size_t hi) {  // in [lo, hi]
    return static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
  };
  int accepted = 0, rejected = 0;
  for (int i = 0; i < 1200; ++i) {
    std::string bytes = shard;
    const Region& r = regions[pick(0, regions.size() - 1)];
    const auto field = [&](std::size_t width) {  // an aligned element of the region
      return r.begin + pick(0, (r.end - r.begin) / width - 1) * width;
    };
    const auto get = [&](std::size_t at, std::size_t width) {
      std::uint64_t v = 0;
      std::memcpy(&v, bytes.data() + at, width);
      return v;
    };
    const auto put = [&](std::size_t at, std::size_t width, std::uint64_t v) {
      std::memcpy(bytes.data() + at, &v, width);
    };
    const std::int64_t kind = rng.uniform_int(0, 2);
    if (kind == 0) {
      bytes[pick(r.begin, r.end - 1)] ^= static_cast<char>(rng.uniform_int(1, 255));
    } else if (kind == 1 || r.sorted == 0 || r.end - r.begin < 3 * r.sorted) {
      const std::size_t width = r.end - r.begin >= 8 && rng.bernoulli(0.5) ? 8 : 4;
      const std::size_t at = field(width);
      put(at, width, edge_value(get(at, width), rng));
    } else {  // An interior offset moved between its neighbours stays sorted.
      const std::size_t w = r.sorted;
      const std::size_t at = r.begin + pick(1, (r.end - r.begin) / w - 2) * w;
      const std::uint64_t lo = get(at - w, w), hi = get(at + w, w);
      put(at, w, lo + pick(0, hi - lo));
    }
    const std::uint64_t fp = fnv1a_words(bytes.data(), bytes.size() - 8);
    put(bytes.size() - 8, 8, fp);
    std::ofstream(shard_path, std::ios::binary) << bytes;
    std::string sealed = manifest;
    sealed.replace(sealed.find(sealed_fp), sealed_fp.size(), std::to_string(fp));
    std::ofstream(manifest_path, std::ios::binary) << sealed;

    const std::string what = "shard mutant " + std::to_string(i);
    const std::string load = outcome([&] { load_dataset(dir_.string()); }, what);
    EXPECT_EQ(outcome([&] { verify_columnar(dir_.string()); }, what), load) << what;
    if (!load.empty()) {
      ++rejected;
      continue;
    }
    ++accepted;
    const ColumnarDataset data = load_columnar(dir_.string());
    const DiskDataset loaded = data.to_disk_dataset();
    const auto lo = reinterpret_cast<std::uintptr_t>(data.shards().front().bytes().data());
    const std::uintptr_t hi = lo + data.shards().front().bytes().size();
    for (const auto& device_id : loaded.snapshots.devices())
      for (const auto& snap : loaded.snapshots.for_device(device_id)) {
        const auto p = reinterpret_cast<std::uintptr_t>(std::string_view(snap.text).data());
        EXPECT_TRUE(lo <= p && p + snap.text.size() <= hi) << what << ": " << device_id;
      }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST_F(RecordRules, FuzzMpacRecordMutantsVerifyExactlyWhenLoadAccepts) {
  const Records base = records_of(fuzz_base());
  Rng rng(fuzz_seed(0xac5));
  int accepted = 0, rejected = 0;
  for (int i = 0; i < 200; ++i) {
    Records r = base;
    mutate_records(r, rng);
    ColumnarWriteOptions opts;
    if (i % 2 == 1) opts.max_shard_bytes = 2048;  // device runs cross shards
    write_mpac(r, dir_, opts);
    const std::string what = "mpac mutant " + std::to_string(i);
    const std::string load = outcome([&] { load_dataset(dir_.string()); }, what);
    EXPECT_EQ(outcome([&] { verify_columnar(dir_.string()); }, what), load) << what;
    ++(load.empty() ? accepted : rejected);
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace mpa
