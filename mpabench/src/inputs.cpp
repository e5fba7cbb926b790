#include "inputs.hpp"

#include <algorithm>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "engine/artifact_store.hpp"
#include "engine/run_manifest.hpp"
#include "engine/session.hpp"
#include "harness.hpp"
#include "io/columnar.hpp"
#include "simulation/osp_generator.hpp"

namespace mpabench {
namespace fs = std::filesystem;
using namespace mpa;

namespace {

/// Keep the newest `keep` cache entries whose names start with
/// `prefix`: a series of runs over fresh seeds must not fill the disk.
void evict(const std::string& dir, const std::string& prefix, std::size_t keep) {
  std::vector<fs::directory_entry> entries;
  for (const auto& e : fs::directory_iterator(dir))
    if (e.path().filename().string().rfind(prefix, 0) == 0) entries.push_back(e);
  if (entries.size() <= keep) return;
  std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
    return fs::last_write_time(a.path()) > fs::last_write_time(b.path());
  });
  for (std::size_t i = keep; i < entries.size(); ++i) fs::remove_all(entries[i].path());
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << content;
  if (!f) throw std::runtime_error("cannot write " + path);
}

/// Forwards whole networks to the mpac writer under the InputKey rules.
/// The generator hands over one network at a time (network, devices,
/// snapshots, tickets), so the sink holds one network back until the
/// next begins and then keeps or drops it.
class PacedSink final : public OspSink {
 public:
  /// Thrown from the sink once the dataset is complete, to stop the
  /// generator early.
  struct Full {};

  PacedSink(ColumnarWriter& writer, int networks) : writer_(writer), networks_(networks) {}

  void on_network(const NetworkRecord& net) override {
    flush();
    net_ = net;
    devices_.clear();
    snapshots_.clear();
    tickets_.clear();
    cur_ = Pacing{0, 0, 0};
    open_ = true;
  }
  void on_device(const DeviceRecord& dev) override {
    devices_.push_back(dev);
    cur_.devices += 1;
  }
  void on_snapshot(const ConfigSnapshot& snap) override {
    const double mb = static_cast<double>(snap.text.size()) / (1 << 20);
    cur_.config_mb += mb;
    if (snap.time >= month_start(kLateMonth)) cur_.late_config_mb += mb;
    if (cur_.config_mb > kNetworkCapMb)
      snapshots_.clear();
    else
      snapshots_.push_back(snap);
  }
  void on_ticket(const Ticket& t) override { tickets_.push_back(t); }

  /// Keep or drop the network held back; throws Full when the dataset
  /// is complete.
  void flush() {
    if (!open_) return;
    open_ = false;
    if (cur_.config_mb > kNetworkCapMb) return;
    const double share = static_cast<double>(kept_ + 1);
    const auto within = [&](double total, double cur, double target, double slack) {
      return total + cur <= target * share + slack;
    };
    if (!within(total_.config_mb, cur_.config_mb, kPacing.config_mb, kNetworkCapMb) ||
        !within(total_.late_config_mb, cur_.late_config_mb, kPacing.late_config_mb,
                kNetworkCapMb) ||
        !within(total_.devices, cur_.devices, kPacing.devices, kMaxDevices))
      return;
    writer_.add_network(net_);
    for (const auto& d : devices_) writer_.add_device(d);
    for (const auto& s : snapshots_) writer_.add_snapshot(s);
    for (const auto& t : tickets_) writer_.add_ticket(t);
    total_.config_mb += cur_.config_mb;
    total_.late_config_mb += cur_.late_config_mb;
    total_.devices += cur_.devices;
    if (++kept_ == networks_) throw Full{};
  }

  int kept() const { return kept_; }
  const Pacing& totals() const { return total_; }

 private:
  /// DesignOptions' default upper bound on a network's devices.
  static constexpr double kMaxDevices = 120;

  ColumnarWriter& writer_;
  const int networks_;
  NetworkRecord net_;
  std::vector<DeviceRecord> devices_;
  std::vector<ConfigSnapshot> snapshots_;
  std::vector<Ticket> tickets_;
  Pacing cur_{0, 0, 0};
  Pacing total_{0, 0, 0};
  int kept_ = 0;
  bool open_ = false;
};

/// load_columnar verifies every shard against its trailer and the
/// manifest fingerprint.
bool dataset_ok(const std::string& dir) {
  try {
    return load_columnar(dir).totals().networks > 0;
  } catch (const std::exception&) {
    return false;
  }
}

bool split_ok(const SplitInputs& s, int first_delta_month) {
  if (!dataset_ok(s.base) || s.deltas.empty()) return false;
  try {
    int month = first_delta_month;
    for (const std::string& d : s.deltas)
      if (load_month_delta(d).month != month++) return false;
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

bool table_ok(const InputKey& key, const StoredTable& t) {
  const ArtifactStore store(t.store_dir);
  const auto table = store.load_case_table(t.artifact_key);
  const auto manifest = store.load_manifest_json(t.artifact_key);
  if (!table || !manifest || table->size() % static_cast<std::size_t>(key.months) != 0) return false;
  if (digest(table->to_csv()) != t.csv_digest) return false;
  try {
    const RunManifest m = RunManifest::from_json(*manifest);
    return std::any_of(m.stages.begin(), m.stages.end(), [](const StageRun& r) {
      return r.stage == "case_table" && r.source == "computed";
    });
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

std::string InputKey::tag() const {
  std::ostringstream os;
  os << 'n' << networks << "-m" << months << "-s" << seed << "-p" << kNetworkCapMb << '-'
     << kPacing.config_mb << '-' << kPacing.late_config_mb << '-' << kPacing.devices;
  return os.str();
}

std::string cache_root() {
  const std::string root = ".bench_cache";
  fs::create_directories(root);
  return root;
}

std::string ensure_dataset(const InputKey& key) {
  const std::string root = cache_root();
  const std::string dir = root + "/ds-" + key.tag();
  if (fs::exists(dir) && dataset_ok(dir)) return dir;
  fs::remove_all(dir);
  evict(root, "ds-", 1);
  const double t0 = now_s();
  const std::string tmp = dir + ".tmp";
  fs::remove_all(tmp);
  {
    OspOptions opts;
    // Enough candidates that the filter always completes the dataset.
    opts.num_networks = 8 * key.networks;
    opts.num_months = key.months;
    opts.seed = key.seed;
    ColumnarWriter writer(tmp);
    PacedSink sink(writer, key.networks);
    try {
      generate_osp_stream(opts, sink);
      sink.flush();
    } catch (const PacedSink::Full&) {
    }
    writer.finish();
    std::ostringstream os;
    os << "kept " << sink.kept() << " networks: " << sink.totals().config_mb << " MB config, "
       << sink.totals().late_config_mb << " MB from month " << kLateMonth << ", "
       << sink.totals().devices << " devices";
    log(os.str());
  }
  fs::rename(tmp, dir);
  if (!dataset_ok(dir)) throw std::runtime_error("generated dataset fails to verify");
  log("generated " + dir + " in " + std::to_string(now_s() - t0) + " s (not set-up)");
  return dir;
}

SplitInputs ensure_split(const InputKey& key, int first_delta_month) {
  const std::string root = cache_root();
  const std::string dir = root + "/split-" + key.tag() + "-at" + std::to_string(first_delta_month);
  const auto layout = [&](const std::string& at) {
    SplitInputs s{at + "/base", {}};
    std::istringstream names(read_file(at + "/deltas.txt"));
    for (std::string name; std::getline(names, name);)
      if (!name.empty()) s.deltas.push_back(at + "/" + name);
    return s;
  };
  if (fs::exists(dir)) {
    const SplitInputs s = layout(dir);
    if (split_ok(s, first_delta_month)) return s;
  }
  const std::string dataset = ensure_dataset(key);
  fs::remove_all(dir);
  evict(root, "split-", 1);
  const double t0 = now_s();
  const std::string tmp = dir + ".tmp";
  fs::remove_all(tmp);
  {
    const SplitDataset split =
        split_dataset(load_columnar(dataset).to_disk_dataset(), first_delta_month);
    save_columnar(split.base, tmp + "/base");
    std::string names;
    for (const MonthDelta& d : split.deltas) {
      const std::string name = "delta-" + std::to_string(d.month);
      save_month_delta(d, tmp + "/" + name);
      names += name + "\n";
    }
    write_file(tmp + "/deltas.txt", names);
  }
  fs::rename(tmp, dir);
  const SplitInputs s = layout(dir);
  if (!split_ok(s, first_delta_month))
    throw std::runtime_error("generated split fails to verify");
  log("generated " + dir + " in " + std::to_string(now_s() - t0) + " s (not set-up)");
  return s;
}

StoredTable ensure_case_table(const InputKey& key) {
  const std::string root = cache_root();
  StoredTable t{root + "/store", "warm-" + key.tag(), {}};
  fs::create_directories(t.store_dir);
  const std::string digest_path = t.store_dir + "/" + t.artifact_key + ".digest";
  if (fs::exists(digest_path)) {
    t.csv_digest = read_file(digest_path);
    if (table_ok(key, t)) return t;
  }
  const std::string dataset = ensure_dataset(key);
  for (const std::string suffix : {".csv", ".lint.csv", ".manifest.json", ".digest"})
    fs::remove(t.store_dir + "/" + t.artifact_key + suffix);
  // One store entry is four files; keep the newest two entries.
  evict(t.store_dir, "warm-", 8);
  const double t0 = now_s();
  {
    SessionOptions opts;
    opts.threads = kEngineThreads;
    opts.artifact_dir = t.store_dir;
    opts.artifact_key = t.artifact_key;
    AnalysisSession session = AnalysisSession::from_directory(dataset, opts);
    t.csv_digest = digest(session.case_table().to_csv());
  }  // The keyed session writes its run manifest as it closes.
  write_file(digest_path, t.csv_digest);
  if (!table_ok(key, t)) throw std::runtime_error("stored case table fails to verify");
  log("built case table " + t.artifact_key + " in " + std::to_string(now_s() - t0) +
      " s (not set-up)");
  return t;
}

}  // namespace mpabench
