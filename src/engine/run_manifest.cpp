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
  RunManifest m;
  m.dataset_fingerprint = doc.at("dataset_fingerprint").as_string();
  m.seed = doc.at("seed").as_u64();
  m.threads = static_cast<int>(doc.at("threads").as_u64());
  m.months = static_cast<int>(doc.at("months").as_u64());
  m.networks = doc.at("networks").as_u64();
  m.devices = doc.at("devices").as_u64();
  m.snapshots = doc.at("snapshots").as_u64();
  m.tickets = doc.at("tickets").as_u64();
  m.artifact_dir = doc.at("artifact_dir").as_string();
  m.artifact_key = doc.at("artifact_key").as_string();
  for (const JsonValue& s : doc.at("stages").as_array()) {
    StageRun run;
    run.stage = s.at("stage").as_string();
    run.source = s.at("source").as_string();
    run.seconds = s.at("seconds").as_number();
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
