// Tests for the mpac binary columnar dataset format: round-trip
// fidelity against CSV (byte-identical both directions), zero-copy
// span semantics, corruption rejection by name with sessions untouched
// on throw, and bit-exact session artifacts vs the CSV load path.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "engine/run_manifest.hpp"
#include "engine/session.hpp"
#include "engine/session_manager.hpp"
#include "io/columnar.hpp"
#include "io/dataset_io.hpp"
#include "simulation/osp_generator.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

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

class ColumnarTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("mpa_columnar_test_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string sub(const char* name) const { return (dir_ / name).string(); }

  /// Round-trip `d` through the CSV interchange format. Both disk
  /// formats carry exactly the CSV information content (e.g. workload
  /// names, not WorkloadKind), so this is the right fingerprint
  /// reference for what a load must reproduce.
  DiskDataset disk_normalized(const DiskDataset& d) {
    const std::string norm = sub("_norm");
    save_dataset(d, norm);
    return load_dataset(norm);
  }

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

const char* const kCsvFiles[] = {"networks.csv", "devices.csv", "tickets.csv", "snapshots.log"};

/// Corrupt one shard in place and re-seal it: recompute the trailer
/// fingerprint and rewrite the manifest's copy, so the mutation
/// reaches the deep validators instead of tripping the fingerprint.
void reseal_shard(const fs::path& dataset_dir, const std::string& shard_file) {
  const fs::path shard_path = dataset_dir / shard_file;
  std::string bytes = slurp(shard_path);
  ASSERT_GE(bytes.size(), 8u);
  std::uint64_t old_fp = 0;
  std::memcpy(&old_fp, bytes.data() + bytes.size() - 8, 8);
  const std::uint64_t new_fp = fnv1a_words(bytes.data(), bytes.size() - 8);
  std::memcpy(bytes.data() + bytes.size() - 8, &new_fp, 8);
  spit(shard_path, bytes);
  const fs::path manifest = dataset_dir / kMpacManifestName;
  spit(manifest,
       replace_all_copy(slurp(manifest), std::to_string(old_fp), std::to_string(new_fp)));
}

TEST_F(ColumnarTest, SaveLoadPreservesDatasetExactly) {
  const DiskDataset original = disk_normalized(small_dataset());
  save_columnar(original, sub("mpac"));
  const ColumnarDataset loaded = load_columnar(sub("mpac"));
  EXPECT_EQ(loaded.totals().networks, original.inventory.num_networks());
  EXPECT_EQ(loaded.totals().devices, original.inventory.num_devices());
  EXPECT_EQ(loaded.totals().tickets, original.tickets.size());
  EXPECT_EQ(loaded.totals().snapshots, original.snapshots.total_snapshots());
  EXPECT_EQ(loaded.totals().config_bytes, original.snapshots.total_bytes());

  const DiskDataset back = loaded.to_disk_dataset();
  // The engine's FNV dataset fingerprint covers every field of every
  // record in container order — equality here is deep equality.
  EXPECT_EQ(dataset_fingerprint(back.inventory, back.snapshots, back.tickets),
            dataset_fingerprint(original.inventory, original.snapshots, original.tickets));
}

TEST_F(ColumnarTest, CsvToMpacToCsvIsByteIdentical) {
  save_dataset(small_dataset(), sub("csv1"));
  save_columnar(load_dataset(sub("csv1")), sub("mpac"));
  save_dataset(load_columnar(sub("mpac")).to_disk_dataset(), sub("csv2"));
  for (const char* file : kCsvFiles)
    EXPECT_EQ(slurp(dir_ / "csv1" / file), slurp(dir_ / "csv2" / file)) << file;
}

TEST_F(ColumnarTest, MultiShardDatasetsReassembleInOrder) {
  const DiskDataset original = disk_normalized(small_dataset());
  ColumnarWriteOptions opts;
  opts.max_shard_bytes = 4096;  // force many shard cuts
  save_columnar(original, sub("mpac"), opts);
  const ColumnarDataset loaded = load_columnar(sub("mpac"));
  EXPECT_GT(loaded.totals().shards, 4u);
  std::uint64_t nets = 0;
  for (const auto& info : loaded.shard_infos()) nets += info.networks;
  EXPECT_EQ(nets, original.inventory.num_networks());

  const DiskDataset back = loaded.to_disk_dataset();
  EXPECT_EQ(dataset_fingerprint(back.inventory, back.snapshots, back.tickets),
            dataset_fingerprint(original.inventory, original.snapshots, original.tickets));
}

TEST_F(ColumnarTest, LoadDatasetAutoDetectsColumnarDirectories) {
  const DiskDataset original = disk_normalized(small_dataset());
  save_columnar(original, sub("mpac"));
  ASSERT_TRUE(is_columnar_dir(sub("mpac")));
  std::uint64_t bytes_read = 0;
  const DiskDataset loaded = load_dataset(sub("mpac"), &bytes_read);
  EXPECT_GT(bytes_read, 0u);
  EXPECT_EQ(dataset_fingerprint(loaded.inventory, loaded.snapshots, loaded.tickets),
            dataset_fingerprint(original.inventory, original.snapshots, original.tickets));
}

TEST_F(ColumnarTest, ShardSpansAliasTheMapping) {
  save_columnar(small_dataset(), sub("mpac"));
  const ColumnarDataset loaded = load_columnar(sub("mpac"));
  ASSERT_EQ(loaded.shards().size(), 1u);
  const ShardView& shard = loaded.shards().front();
  const std::byte* lo = shard.bytes().data();
  const std::byte* hi = lo + shard.bytes().size();
  const auto within = [&](const void* p) {
    const auto* b = static_cast<const std::byte*>(p);
    return lo <= b && b < hi;
  };

  ASSERT_GT(shard.num_tickets(), 0u);
  EXPECT_TRUE(within(shard.i64s(ColumnTag::kTktCreated).data()));
  EXPECT_TRUE(within(shard.u64s(ColumnTag::kNetSeq).data()));
  EXPECT_TRUE(within(shard.u8s(ColumnTag::kDevVendor).data()));
  const std::string_view net_id = shard.dict(shard.u32s(ColumnTag::kNetId).front());
  EXPECT_TRUE(within(net_id.data()));
  ASSERT_GT(shard.num_snapshots(), 0u);
  const std::string_view cfg = shard.config_text(0);
  EXPECT_TRUE(within(cfg.data()));

  // Alignment promise: 8-byte element columns land on 8-byte file
  // offsets, so the reinterpret-cast spans are validly aligned.
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(shard.i64s(ColumnTag::kTktCreated).data()) % 8, 0u);
}

TEST_F(ColumnarTest, VerifyReportsEveryShardOk) {
  save_columnar(small_dataset(), sub("mpac"));
  const std::string report = verify_columnar(sub("mpac"));
  EXPECT_NE(report.find("shard-00000.mpac  OK"), std::string::npos) << report;
  EXPECT_NE(report.find("networks"), std::string::npos);
}

TEST_F(ColumnarTest, TruncatedShardRejectedByName) {
  save_columnar(small_dataset(), sub("mpac"));
  const fs::path shard = dir_ / "mpac" / "shard-00000.mpac";
  const std::string bytes = slurp(shard);
  spit(shard, bytes.substr(0, bytes.size() / 2));
  try {
    load_columnar(sub("mpac"));
    FAIL() << "truncated shard not rejected";
  } catch (const DataError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated shard"), std::string::npos) << e.what();
  }
}

TEST_F(ColumnarTest, BadMagicRejectedByName) {
  save_columnar(small_dataset(), sub("mpac"));
  const fs::path shard = dir_ / "mpac" / "shard-00000.mpac";
  std::string bytes = slurp(shard);
  bytes[0] = 'X';
  spit(shard, bytes);
  try {
    load_columnar(sub("mpac"));
    FAIL() << "bad magic not rejected";
  } catch (const DataError& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos) << e.what();
  }
}

TEST_F(ColumnarTest, VersionSkewRejectedByName) {
  save_columnar(small_dataset(), sub("mpac"));
  const fs::path shard = dir_ / "mpac" / "shard-00000.mpac";
  std::string bytes = slurp(shard);
  const std::uint32_t bogus = 99;
  std::memcpy(bytes.data() + 4, &bogus, sizeof bogus);
  spit(shard, bytes);
  try {
    load_columnar(sub("mpac"));
    FAIL() << "version skew not rejected";
  } catch (const DataError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version 99"), std::string::npos)
        << e.what();
  }
}

TEST_F(ColumnarTest, FingerprintMismatchRejectedByName) {
  save_columnar(small_dataset(), sub("mpac"));
  const fs::path shard = dir_ / "mpac" / "shard-00000.mpac";
  std::string bytes = slurp(shard);
  bytes[bytes.size() / 2] ^= static_cast<char>(0x40);  // flip one payload bit
  spit(shard, bytes);
  try {
    load_columnar(sub("mpac"));
    FAIL() << "fingerprint mismatch not rejected";
  } catch (const DataError& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint mismatch"), std::string::npos) << e.what();
  }
}

TEST_F(ColumnarTest, DictionaryIndexOutOfRangeRejectedByName) {
  save_columnar(small_dataset(), sub("mpac"));
  // Locate the ticket-symptom code column in the intact shard, then
  // overwrite one code with an impossible value and re-seal so only
  // the deep dictionary check can catch it.
  std::uint64_t symptom_offset = 0;
  {
    const ColumnarDataset good = load_columnar(sub("mpac"));
    const ShardView::ColumnInfo* col = good.shards().front().column(ColumnTag::kTktSymptom);
    ASSERT_NE(col, nullptr);
    ASSERT_GT(col->count, 0u);
    symptom_offset = col->offset;
  }
  const fs::path shard = dir_ / "mpac" / "shard-00000.mpac";
  std::string bytes = slurp(shard);
  const std::uint32_t bogus = 0xFFFFFFFFu;
  std::memcpy(bytes.data() + symptom_offset, &bogus, sizeof bogus);
  spit(shard, bytes);
  reseal_shard(dir_ / "mpac", "shard-00000.mpac");

  const ColumnarDataset loaded = load_columnar(sub("mpac"));  // structurally fine
  try {
    loaded.to_disk_dataset();
    FAIL() << "corrupt dictionary code not rejected";
  } catch (const DataError& e) {
    EXPECT_NE(std::string(e.what()).find("dictionary index out of range"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(verify_columnar(sub("mpac")), DataError);
}

TEST_F(ColumnarTest, WrappingColumnBoundsRejectedAsTruncated) {
  save_columnar(small_dataset(), sub("mpac"));
  const fs::path shard_path = dir_ / "mpac" / "shard-00000.mpac";
  const std::string pristine = slurp(shard_path);
  const std::string manifest = slurp(dir_ / "mpac" / kMpacManifestName);
  std::uint64_t dir_offset = 0;
  std::uint32_t dir_count = 0;
  std::memcpy(&dir_offset, pristine.data() + 8, 8);
  std::memcpy(&dir_count, pristine.data() + 16, 4);
  ASSERT_EQ(dir_count, 27u);
  const auto rejection = [&](const std::string& bytes) {
    spit(shard_path, bytes);
    spit(dir_ / "mpac" / kMpacManifestName, manifest);
    reseal_shard(dir_ / "mpac", "shard-00000.mpac");
    try {
      load_dataset(sub("mpac"));
      return std::string("loaded");
    } catch (const DataError& e) {
      return std::string(e.what());
    }
  };

  // A count whose byte length wraps u64 and so ends back inside the
  // shard: four- and eight-byte columns end where they did, one-byte
  // columns at byte 0.
  for (std::uint32_t k = 0; k < dir_count; ++k) {
    const std::size_t entry = dir_offset + 24 * std::size_t{k};
    std::uint32_t tag = 0, elem = 0;
    std::uint64_t offset = 0, count = 0;
    std::memcpy(&tag, pristine.data() + entry, 4);
    std::memcpy(&elem, pristine.data() + entry + 4, 4);
    std::memcpy(&offset, pristine.data() + entry + 8, 8);
    std::memcpy(&count, pristine.data() + entry + 16, 8);
    const std::uint64_t wrapped = elem == 1 ? 0 - offset : count + (~std::uint64_t{0} / elem + 1);
    std::string bytes = pristine;
    std::memcpy(bytes.data() + entry + 16, &wrapped, 8);
    EXPECT_EQ(rejection(bytes), "mpac: shard-00000.mpac: truncated column " + std::to_string(tag));
  }

  // The same for the directory: an offset whose entries end at byte 0.
  std::string bytes = pristine;
  const std::uint64_t wrapped = 0 - std::uint64_t{24} * dir_count;
  std::memcpy(bytes.data() + 8, &wrapped, 8);
  EXPECT_EQ(rejection(bytes), "mpac: shard-00000.mpac: truncated shard");
}

TEST_F(ColumnarTest, OpenSessionKeepsItsDatasetWhenTheDirectoryIsRewritten) {
  const auto dataset = [](std::uint64_t seed) {
    OspOptions opts;
    opts.num_networks = 8;
    opts.num_months = 4;
    opts.seed = seed;
    OspDataset gen = generate_osp(opts);
    return DiskDataset{std::move(gen.inventory), std::move(gen.snapshots),
                       std::move(gen.tickets)};
  };
  save_columnar(dataset(3), sub("live"));
  save_columnar(dataset(3), sub("copy"));
  SessionOptions opts;
  opts.threads = 2;
  AnalysisSession open = AnalysisSession::from_directory(sub("live"), opts);

  // Every shard and the manifest of the open dataset are replaced while
  // the session still maps them and has parsed no text.
  const DiskDataset second = dataset(4);
  save_columnar(second, sub("live"));

  AnalysisSession untouched = AnalysisSession::from_directory(sub("copy"), opts);
  EXPECT_EQ(open.case_table().to_csv(), untouched.case_table().to_csv());
  EXPECT_EQ(open.lint().to_csv(), untouched.lint().to_csv());

  const DiskDataset fresh = load_dataset(sub("live"));
  const DiskDataset want = disk_normalized(second);
  EXPECT_EQ(dataset_fingerprint(fresh.inventory, fresh.snapshots, fresh.tickets),
            dataset_fingerprint(want.inventory, want.snapshots, want.tickets));
}

TEST_F(ColumnarTest, SessionManagerUntouchedWhenOpenThrows) {
  save_dataset(small_dataset(), sub("csv"));
  save_columnar(small_dataset(), sub("mpac"));
  // Corrupt the mpac copy after writing it.
  const fs::path shard = dir_ / "mpac" / "shard-00000.mpac";
  std::string bytes = slurp(shard);
  bytes[bytes.size() / 2] ^= static_cast<char>(0x01);
  spit(shard, bytes);

  SessionManager manager;
  manager.open_directory("good", sub("csv"));
  ASSERT_EQ(manager.keys(), std::vector<std::string>{"good"});

  // Validate-then-mutate: the failed open must not register a session
  // or disturb the existing one (mirrors the append_month contract).
  EXPECT_THROW(manager.open_directory("bad", sub("mpac")), DataError);
  EXPECT_EQ(manager.keys(), std::vector<std::string>{"good"});
}

TEST_F(ColumnarTest, SessionArtifactsBitExactVsCsvAcrossThreadCounts) {
  OspOptions opts;
  opts.num_networks = 8;
  opts.num_months = 4;
  opts.seed = 7;
  OspDataset gen = generate_osp(opts);
  const DiskDataset data{std::move(gen.inventory), std::move(gen.snapshots),
                         std::move(gen.tickets)};
  save_dataset(data, sub("csv"));
  save_columnar(data, sub("mpac"));

  for (const int threads : {1, 2, 8}) {
    SessionOptions csv_opts;
    csv_opts.threads = threads;
    AnalysisSession csv_session = AnalysisSession::from_directory(sub("csv"), csv_opts);
    SessionOptions mpac_opts;
    mpac_opts.threads = threads;
    AnalysisSession mpac_session = AnalysisSession::from_directory(sub("mpac"), mpac_opts);

    EXPECT_EQ(mpac_session.manifest().dataset_fingerprint,
              csv_session.manifest().dataset_fingerprint)
        << threads << " threads";
    EXPECT_EQ(mpac_session.num_months(), csv_session.num_months());
    EXPECT_EQ(mpac_session.case_table().to_csv(), csv_session.case_table().to_csv())
        << threads << " threads";

    const auto& csv_mi = csv_session.dependence().mi_ranking();
    const auto& mpac_mi = mpac_session.dependence().mi_ranking();
    ASSERT_EQ(mpac_mi.size(), csv_mi.size()) << threads << " threads";
    for (std::size_t i = 0; i < csv_mi.size(); ++i) {
      EXPECT_EQ(mpac_mi[i].practice, csv_mi[i].practice);
      EXPECT_EQ(mpac_mi[i].avg_monthly_mi, csv_mi[i].avg_monthly_mi);  // bitwise
    }
  }
}

TEST_F(ColumnarTest, WriterStreamsIdenticallyToBatchConversion) {
  // Feeding the writer through the OspSink streaming interface must
  // write the same bytes as batch save_columnar of generate_osp after a
  // CSV round trip (what `convert` does). Twelve networks put net10 and
  // net11 between net1 and net2 in id order, so a batch writer that
  // sorted all devices globally would differ from the stream.
  class WriterSink final : public OspSink {
   public:
    explicit WriterSink(ColumnarWriter& w) : w_(w) {}
    void on_network(const NetworkRecord& net) override { w_.add_network(net); }
    void on_device(const DeviceRecord& dev) override { w_.add_device(dev); }
    void on_snapshot(const ConfigSnapshot& snap) override { w_.add_snapshot(snap); }
    void on_ticket(const Ticket& t) override { w_.add_ticket(t); }

   private:
    ColumnarWriter& w_;
  };

  OspOptions opts;
  opts.num_networks = 12;
  opts.num_months = 3;
  opts.seed = 5;

  ColumnarWriter writer(sub("stream"), ColumnarWriteOptions{});
  WriterSink sink(writer);
  const OspStreamTotals totals = generate_osp_stream(opts, sink);
  writer.finish();

  OspDataset gen = generate_osp(opts);
  DiskDataset generated{std::move(gen.inventory), std::move(gen.snapshots), std::move(gen.tickets)};
  const DiskDataset batch = disk_normalized(generated);
  EXPECT_EQ(totals.networks, batch.inventory.num_networks());
  EXPECT_EQ(totals.devices, batch.inventory.num_devices());
  EXPECT_EQ(totals.tickets, batch.tickets.size());
  EXPECT_EQ(totals.snapshots, batch.snapshots.total_snapshots());
  save_columnar(batch, sub("batch"));

  for (const char* file : {"shard-00000.mpac", "mpac-manifest.json"}) {
    const std::string streamed = slurp(fs::path(sub("stream")) / file);
    ASSERT_FALSE(streamed.empty()) << file;
    EXPECT_TRUE(streamed == slurp(fs::path(sub("batch")) / file)) << file << " differs";
  }
  EXPECT_FALSE(fs::exists(fs::path(sub("stream")) / "shard-00001.mpac"));
}

}  // namespace
}  // namespace mpa
