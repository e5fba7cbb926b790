#include "engine/run_manifest.hpp"

#include <cstdio>
#include <sstream>

#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "util/sync.hpp"

namespace mpa {
namespace {

void append_map(std::ostringstream& os, const std::map<std::string, std::uint64_t>& m) {
  os << '{';
  bool first = true;
  for (const auto& [key, value] : m) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(key) << "\":" << value;
  }
  os << '}';
}

std::map<std::string, std::uint64_t> parse_map(const JsonValue& v) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [key, value] : v.as_object()) out[key] = value.as_u64();
  return out;
}

Mutex g_last_mu;
std::optional<RunManifest> g_last GUARDED_BY(g_last_mu);  // NOLINT(cert-err58-cpp)

}  // namespace

std::string RunManifest::to_json() const {
  std::ostringstream os;
  os << "{\n"
     << "  \"dataset_fingerprint\":\"" << json_escape(dataset_fingerprint) << "\",\n"
     << "  \"seed\":" << seed << ",\n"
     << "  \"threads\":" << threads << ",\n"
     << "  \"months\":" << months << ",\n"
     << "  \"networks\":" << networks << ",\n"
     << "  \"devices\":" << devices << ",\n"
     << "  \"snapshots\":" << snapshots << ",\n"
     << "  \"tickets\":" << tickets << ",\n"
     << "  \"artifact_dir\":\"" << json_escape(artifact_dir) << "\",\n"
     << "  \"artifact_key\":\"" << json_escape(artifact_key) << "\",\n"
     << "  \"stages\":[";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    if (i != 0) os << ',';
    os << "\n    {\"stage\":\"" << json_escape(stages[i].stage) << "\",\"source\":\""
       << json_escape(stages[i].source) << "\",\"seconds\":" << json_number(stages[i].seconds)
       << '}';
  }
  os << (stages.empty() ? "],\n" : "\n  ],\n") << "  \"cache\":";
  append_map(os, cache);
  os << ",\n  \"counters\":";
  append_map(os, counters);
  os << "\n}\n";
  return os.str();
}

std::string RunManifest::to_text() const {
  std::ostringstream os;
  os << "run manifest\n"
     << "  dataset fingerprint  " << dataset_fingerprint << "\n"
     << "  seed                 " << seed << "\n"
     << "  threads              " << threads << "\n"
     << "  months               " << months << "\n"
     << "  networks             " << networks << "\n"
     << "  devices              " << devices << "\n"
     << "  snapshots            " << snapshots << "\n"
     << "  tickets              " << tickets << "\n";
  if (!artifact_dir.empty()) os << "  artifact dir         " << artifact_dir << "\n";
  if (!artifact_key.empty()) os << "  artifact key         " << artifact_key << "\n";
  os << "stages (request order)\n";
  if (stages.empty()) os << "  (none requested)\n";
  for (const auto& s : stages) {
    char secs[32];
    std::snprintf(secs, sizeof secs, "%.6f", s.seconds);
    os << "  " << s.stage;
    for (std::size_t pad = s.stage.size(); pad < 12; ++pad) os << ' ';
    os << ' ' << s.source;
    for (std::size_t pad = s.source.size(); pad < 9; ++pad) os << ' ';
    os << secs << "s\n";
  }
  os << "cache\n";
  for (const auto& [key, value] : cache) os << "  " << key << " = " << value << "\n";
  if (!counters.empty()) {
    os << "counters\n";
    for (const auto& [key, value] : counters) os << "  " << key << " = " << value << "\n";
  }
  return os.str();
}

RunManifest RunManifest::from_json(const std::string& json) {
  const JsonValue doc = parse_json(json);
  const JsonFields f(doc, "run manifest");
  const auto count = [&f](const std::string& key) {  // a pool size or a month count
    const int v = f.get<int>(key);
    return v >= 0 ? v : throw DataError("run manifest: " + key + ": negative count");
  };
  RunManifest m;
  m.dataset_fingerprint = f.get<std::string>("dataset_fingerprint");
  m.seed = f.get<std::uint64_t>("seed");
  m.threads = count("threads");
  m.months = count("months");
  m.networks = f.get<std::uint64_t>("networks");
  m.devices = f.get<std::uint64_t>("devices");
  m.snapshots = f.get<std::uint64_t>("snapshots");
  m.tickets = f.get<std::uint64_t>("tickets");
  m.artifact_dir = f.get<std::string>("artifact_dir");
  m.artifact_key = f.get<std::string>("artifact_key");
  for (const JsonValue& s : doc.at("stages").as_array()) {
    const JsonFields stage(s, "run manifest stage");
    StageRun run;
    run.stage = stage.get<std::string>("stage");
    run.source = stage.get<std::string>("source");
    run.seconds = stage.get<double>("seconds");
    m.stages.push_back(std::move(run));
  }
  m.cache = parse_map(doc.at("cache"));
  m.counters = parse_map(doc.at("counters"));
  return m;
}

std::uint64_t dataset_fingerprint(const Inventory& inventory, const SnapshotStore& snapshots,
                                  const TicketLog& tickets) {
  Fnv h;
  h.u64(inventory.num_networks());
  for (const auto& net : inventory.networks()) {
    h.str(net.network_id);
    h.u64(net.workloads.size());
    for (const auto& w : net.workloads) {
      h.str(w.name);
      h.u64(static_cast<std::uint64_t>(w.kind));
    }
    h.u64(net.device_ids.size());
    for (const auto& id : net.device_ids) h.str(id);
  }
  h.u64(inventory.num_devices());
  for (const auto& dev : inventory.devices()) {
    h.str(dev.device_id);
    h.str(dev.network_id);
    h.u64(static_cast<std::uint64_t>(dev.vendor));
    h.str(dev.model);
    h.u64(static_cast<std::uint64_t>(dev.role));
    h.str(dev.firmware);
  }
  h.u64(snapshots.total_snapshots());
  for (const auto& dev : snapshots.devices()) {
    h.str(dev);
    for (const auto& snap : snapshots.for_device(dev)) {
      h.u64(static_cast<std::uint64_t>(snap.time));
      h.str(snap.login);
      h.str(snap.text);
    }
  }
  h.u64(tickets.size());
  for (const auto& t : tickets.all()) {
    h.str(t.ticket_id);
    h.str(t.network_id);
    h.u64(static_cast<std::uint64_t>(t.created));
    h.u64(static_cast<std::uint64_t>(t.resolved));
    h.u64(t.devices.size());
    for (const auto& d : t.devices) h.str(d);
    h.u64(static_cast<std::uint64_t>(t.origin));
    h.str(t.symptom);
  }
  return h.value();
}

std::string fingerprint_hex(std::uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::optional<RunManifest> last_run_manifest() {
  MutexLock lk(g_last_mu);
  return g_last;
}

void set_last_run_manifest(RunManifest manifest) {
  MutexLock lk(g_last_mu);
  g_last = std::move(manifest);
}

}  // namespace mpa
