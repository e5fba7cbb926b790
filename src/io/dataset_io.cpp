#include "io/dataset_io.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>

#include "io/columnar.hpp"
#include "telemetry/time.hpp"
#include "util/error.hpp"
#include "util/number.hpp"
#include "util/strings.hpp"

namespace mpa {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  require_data(static_cast<bool>(in), "load_dataset: cannot open " + path.string());
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const fs::path& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  require_data(static_cast<bool>(out), "save_dataset: cannot open " + path.string());
  out << content;
  require_data(static_cast<bool>(out), "save_dataset: write failed for " + path.string());
}

// CSV field escaping: our ids/names never contain commas, but symptom
// strings could; forbid rather than quote (keeps the format trivial).
// Stray '\r' is rejected too — the loader strips one trailing '\r' per
// line to accept CRLF files, so a carriage return inside a field would
// not survive the round trip.
void check_field(const std::string& s, const char* what) {
  require_data(s.find(',') == std::string::npos && s.find('\n') == std::string::npos &&
                   s.find('\r') == std::string::npos,
               [&] {
                 return std::string("dataset field contains ',', newline, or carriage return: ") +
                        what + ": " + s;
               });
}

// Workload names and ticket device ids are saved ';'-joined, so one
// containing ';' would reload as two elements.
std::string join_list(const std::vector<std::string>& elements, const char* what) {
  for (const auto& e : elements) {
    check_field(e, what);
    require_data(e.find(';') == std::string::npos, [&] {
      return std::string("dataset list element contains ';': ") + what + ": " + e;
    });
  }
  return join(elements, ";");
}

// The data rows of a CSV file: every line after the header that is not
// blank, as views into `text`.
std::vector<std::string_view> csv_rows(std::string_view text) {
  std::vector<std::string_view> rows = split_line_views(text);
  if (!rows.empty()) rows.erase(rows.begin());
  std::erase_if(rows, [](std::string_view row) { return trim(row).empty(); });
  return rows;
}

// The number rule without allocating on the hot parse loops; error
// strings are pinned by tests and must not change.
std::int64_t parse_int(std::string_view s, const char* what) {
  bool trailing = false;
  if (const std::optional<std::int64_t> v = parse_whole<std::int64_t>(s, &trailing)) return *v;
  const char* kind = trailing ? "trailing junk in " : "bad integer for ";
  throw DataError(std::string(kind) + what + ": " + std::string(s));
}

// Shared row/record codecs so the full-dataset and month-delta paths
// stay byte-compatible (and fail with identical error strings).

void write_tickets(const fs::path& path, const std::vector<Ticket>& tickets) {
  std::ostringstream os;
  os << "ticket_id,network_id,created,resolved,origin,symptom,devices\n";
  for (const Ticket& t : tickets) {
    check_field(t.ticket_id, "ticket_id");
    check_field(t.symptom, "symptom");
    os << t.ticket_id << ',' << t.network_id << ',' << t.created << ',' << t.resolved << ','
       << to_string(t.origin) << ',' << t.symptom << ',' << join_list(t.devices, "ticket device")
       << '\n';
  }
  write_file(path, os.str());
}

NetworkRecord parse_network_row(std::string_view line) {
  const auto cells = split_views(line, ',');
  require_data(cells.size() == 2, [&] { return "networks.csv: bad row: " + std::string(line); });
  NetworkRecord net;
  net.network_id = std::string(cells[0]);
  if (!cells[1].empty())
    for (const auto name : split_views(cells[1], ';')) net.workloads.push_back({std::string(name)});
  return net;
}

DeviceRecord parse_device_row(std::string_view line) {
  const auto cells = split_views(line, ',');
  require_data(cells.size() == 6, [&] { return "devices.csv: bad row: " + std::string(line); });
  DeviceRecord d;
  d.device_id = std::string(cells[0]);
  d.network_id = std::string(cells[1]);
  d.vendor = vendor_from_string(cells[2]);
  d.model = std::string(cells[3]);
  d.role = role_from_string(cells[4]);
  d.firmware = std::string(cells[5]);
  return d;
}

Ticket parse_ticket_row(std::string_view line) {
  const auto cells = split_views(line, ',');
  require_data(cells.size() == 7, [&] { return "tickets.csv: bad row: " + std::string(line); });
  Ticket t;
  t.ticket_id = std::string(cells[0]);
  t.network_id = std::string(cells[1]);
  t.created = parse_int(cells[2], "ticket created");
  t.resolved = parse_int(cells[3], "ticket resolved");
  t.origin = origin_from_string(cells[4]);
  t.symptom = std::string(cells[5]);
  if (!cells[6].empty()) {
    const auto devices = split_views(cells[6], ';');
    t.devices.assign(devices.begin(), devices.end());
  }
  return t;
}

void render_snapshot_record(std::ostream& os, const ConfigSnapshot& snap) {
  check_header_token(snap.device_id, "snapshot device_id");
  check_header_token(snap.login, "snapshot login");
  os << "@snapshot " << snap.device_id << ' ' << snap.time << ' ' << snap.login << ' '
     << snap.text.size() << '\n'
     << snap.text;
}

// Why `s` cannot be a snapshots.log header token, or null if it can.
const char* header_token_defect(std::string_view s) {
  if (s.empty()) return "snapshot header field is empty";
  for (const char c : s)
    if (std::isspace(static_cast<unsigned char>(c)) != 0)
      return "snapshot header field contains whitespace";
  return nullptr;
}

// The time rule every snapshot and ticket time meets.
bool in_time_range(Timestamp t) {
  return t >= 0 && t < month_start(kMaxMonths);
}

std::string time_range_defect(Timestamp t) {
  return std::to_string(t) + " is outside [0, " + std::to_string(month_start(kMaxMonths)) + ")";
}

// Hands each record of a snapshots.log to `add`, in file order. Each
// snapshot's text points into `log`, which it keeps alive.
template <class Add>
void parse_snapshot_log(std::string log_text, Add&& add) {
  const auto log = std::make_shared<const std::string>(std::move(log_text));
  const std::string_view view(*log);
  std::size_t pos = 0;
  while (pos < view.size()) {
    const std::size_t eol = view.find('\n', pos);
    require_data(eol != std::string_view::npos, "snapshots.log: truncated header");
    const std::string_view header = view.substr(pos, eol - pos);
    const auto tokens = split_ws_views(header);
    require_data(tokens.size() == 5 && tokens[0] == "@snapshot",
                 [&] { return "snapshots.log: bad header: " + std::string(header); });
    // A negative length cast straight to size_t would become a huge
    // offset and misreport as "truncated body"; reject it by name.
    const std::int64_t declared = parse_int(tokens[4], "snapshot length");
    require_data(declared >= 0, [&] {
      return "snapshots.log: negative snapshot length in header: " + std::string(header);
    });
    const auto length = static_cast<std::size_t>(declared);
    require_data(eol + 1 + length <= view.size(), "snapshots.log: truncated body");
    ConfigSnapshot snap;
    snap.device_id = std::string(tokens[1]);
    snap.time = parse_int(tokens[2], "snapshot time");
    snap.login = std::string(tokens[3]);
    snap.text = SharedText::alias(log, view.substr(eol + 1, length));
    add(std::move(snap));
    pos = eol + 1 + length;
  }
}

}  // namespace

// snapshots.log headers are whitespace-delimited ("@snapshot <device>
// <time> <login> <length>"), so a device_id or login containing
// whitespace would change the token count and corrupt every record
// after it. Validate on save, like check_field does for the CSVs.
void check_header_token(std::string_view s, const char* what) {
  if (const char* defect = header_token_defect(s))
    throw DataError(std::string(defect) + ": " + what + (s.empty() ? "" : ": " + std::string(s)));
}

RecordChecker::RecordChecker(const Inventory& inventory, std::string source,
                             const SnapshotStore* history)
    : inventory_(inventory), history_(history), source_(std::move(source)) {}

void RecordChecker::fail(const std::string& what) const {
  throw DataError(source_ + ": " + what);
}

void RecordChecker::check_network(const NetworkRecord& net) const {
  if (inventory_.find_network(net.network_id) != nullptr)
    fail("duplicate network id " + net.network_id);
}

void RecordChecker::check_device(const DeviceRecord& dev) const {
  if (inventory_.find_device(dev.device_id) != nullptr)
    fail("duplicate device id " + dev.device_id);
  if (inventory_.find_network(dev.network_id) == nullptr)
    fail("device " + dev.device_id + " in unknown network " + dev.network_id);
}

void RecordChecker::check_ticket_times(const Ticket& t, std::string_view source) {
  const auto check_range = [&](const char* what, Timestamp time) {
    require_data(in_time_range(time), [&] {
      return std::string(source) + ": ticket " + t.ticket_id + " " + what + " time " +
             time_range_defect(time);
    });
  };
  check_range("created", t.created);
  check_range("resolved", t.resolved);
  require_data(t.resolved >= t.created, [&] {
    return std::string(source) + ": resolved time " + std::to_string(t.resolved) +
           " precedes created time " + std::to_string(t.created) + " for ticket " + t.ticket_id;
  });
}

void RecordChecker::check_ticket(const Ticket& t) const {
  check_ticket_times(t, source_);
  if (inventory_.find_network(t.network_id) == nullptr)
    fail("ticket " + t.ticket_id + " for unknown network " + t.network_id);
}

void RecordChecker::check_snapshot(std::string_view device_id, Timestamp time,
                                   std::string_view login) {
  const auto reject = [&](const std::string& why) {
    fail("snapshot of device " + std::string(device_id) + " at time " + std::to_string(time) +
         ": " + why);
  };
  if (run_ == last_time_.end() || run_->first != device_id) {
    run_ = last_time_.find(device_id);
    if (run_ == last_time_.end()) {  // The device rules hold for its later snapshots.
      const std::string id(device_id);
      if (inventory_.find_device(id) == nullptr) reject("unknown device");
      if (const char* defect = header_token_defect(id))
        reject(defect + std::string(" (device_id)"));
      const auto* prior = history_ != nullptr ? &history_->for_device(id) : nullptr;
      const bool seen = prior != nullptr && !prior->empty();
      run_ = last_time_.emplace(id, seen ? prior->back().time : time).first;
    }
  }
  if (!in_time_range(time)) reject("time " + time_range_defect(time));
  if (time < run_->second) reject("out-of-order after time " + std::to_string(run_->second));
  if (const char* defect = header_token_defect(login))
    reject(defect + (" (login '" + std::string(login) + "')"));
  run_->second = time;
}

Vendor vendor_from_string(std::string_view s) {
  for (int v = 0; v < kNumVendors; ++v)
    if (to_string(static_cast<Vendor>(v)) == s) return static_cast<Vendor>(v);
  throw DataError("unknown vendor: " + std::string(s));
}

Role role_from_string(std::string_view s) {
  for (int r = 0; r < kNumRoles; ++r)
    if (to_string(static_cast<Role>(r)) == s) return static_cast<Role>(r);
  throw DataError("unknown role: " + std::string(s));
}

TicketOrigin origin_from_string(std::string_view s) {
  for (auto o : {TicketOrigin::kMonitoringAlarm, TicketOrigin::kUserReport,
                 TicketOrigin::kMaintenance}) {
    if (to_string(o) == s) return o;
  }
  throw DataError("unknown ticket origin: " + std::string(s));
}

void save_dataset(const DiskDataset& data, const std::string& dir) {
  fs::create_directories(dir);
  const fs::path base(dir);

  // networks.csv
  {
    std::ostringstream os;
    os << "network_id,workloads\n";
    for (const auto& net : data.inventory.networks()) {
      check_field(net.network_id, "network_id");
      std::vector<std::string> wl;
      for (const auto& w : net.workloads) wl.push_back(w.name);
      os << net.network_id << ',' << join_list(wl, "workload") << '\n';
    }
    write_file(base / "networks.csv", os.str());
  }

  // devices.csv
  {
    std::ostringstream os;
    os << "device_id,network_id,vendor,model,role,firmware\n";
    for (const auto& d : data.inventory.devices()) {
      check_field(d.device_id, "device_id");
      check_field(d.model, "model");
      check_field(d.firmware, "firmware");
      os << d.device_id << ',' << d.network_id << ',' << to_string(d.vendor) << ',' << d.model
         << ',' << to_string(d.role) << ',' << d.firmware << '\n';
    }
    write_file(base / "devices.csv", os.str());
  }

  write_tickets(base / "tickets.csv", data.tickets.all());

  // snapshots.log — length-prefixed records so config text needs no
  // escaping.
  {
    std::ostringstream os;
    for (const auto& device_id : data.snapshots.devices())
      for (const auto& snap : data.snapshots.for_device(device_id))
        render_snapshot_record(os, snap);
    write_file(base / "snapshots.log", os.str());
  }
}

DiskDataset load_dataset(const std::string& dir, std::uint64_t* bytes_read) {
  // Format auto-detection: an mpac manifest marks a columnar dataset;
  // everything downstream (AnalysisSession::from_directory, serve
  // session open) inherits the detection through this one switch.
  if (is_columnar_dir(dir)) {
    const ColumnarDataset columnar = load_columnar(dir);
    if (bytes_read != nullptr) *bytes_read = columnar.total_bytes();
    return columnar.to_disk_dataset();
  }

  const fs::path base(dir);
  require_data(fs::is_directory(base), "load_dataset: dataset directory does not exist: " + dir);
  // Name the absent file up front — "cannot open .../tickets.csv" out
  // of a half-readable directory is a worse diagnostic than saying
  // which source is missing from an otherwise-valid dataset dir.
  for (const char* name : {"networks.csv", "devices.csv", "tickets.csv", "snapshots.log"})
    require_data(fs::exists(base / name),
                 "load_dataset: missing " + std::string(name) + " in dataset directory " + dir);

  DiskDataset data;
  RecordChecker check(data.inventory, "networks.csv");
  std::uint64_t bytes = 0;
  const auto read_source = [&](const char* name) {
    check.set_source(name);
    std::string text = read_file(base / name);
    bytes += text.size();
    return text;
  };
  // Fields are parsed as string_view slices of each file buffer (one
  // copy per stored string, none per intermediate field).
  const auto load_rows = [&](const char* name, auto parse_row, auto store) {
    const std::string text = read_source(name);
    for (const std::string_view row : csv_rows(text)) store(parse_row(row));
  };

  load_rows("networks.csv", parse_network_row, [&](NetworkRecord net) {
    check.check_network(net);
    data.inventory.add_network(std::move(net));
  });
  load_rows("devices.csv", parse_device_row, [&](DeviceRecord dev) {
    check.check_device(dev);
    data.inventory.add_device(std::move(dev));
  });
  load_rows("tickets.csv", parse_ticket_row, [&](Ticket t) {
    check.check_ticket(t);
    data.tickets.add(std::move(t));
  });
  parse_snapshot_log(read_source("snapshots.log"), [&](ConfigSnapshot snap) {
    check.check_snapshot(snap.device_id, snap.time, snap.login);
    data.snapshots.add(std::move(snap));
  });

  if (bytes_read != nullptr) *bytes_read = bytes;
  return data;
}

void save_month_delta(const MonthDelta& delta, const std::string& dir) {
  fs::create_directories(dir);
  const fs::path base(dir);

  write_file(base / "month.txt", std::to_string(delta.month) + "\n");

  write_tickets(base / "tickets.csv", delta.tickets);
  {
    std::ostringstream os;
    for (const auto& snap : delta.snapshots) render_snapshot_record(os, snap);
    write_file(base / "snapshots.log", os.str());
  }
}

MonthDelta load_month_delta(const std::string& dir) {
  const fs::path base(dir);
  MonthDelta delta;

  {
    const std::string text(trim(read_file(base / "month.txt")));
    const std::optional<int> month = parse_whole<int>(text);
    require_data(month.has_value(), "month.txt: delta month is not an integer within int: " + text);
    require_data(*month >= 0, "month.txt: delta month is negative: " + text);
    delta.month = *month;
  }

  // Whether each record fits the session is append_month's to check.
  const std::string tickets = read_file(base / "tickets.csv");
  for (const std::string_view row : csv_rows(tickets)) {
    delta.tickets.push_back(parse_ticket_row(row));
    RecordChecker::check_ticket_times(delta.tickets.back(), "tickets.csv");
  }
  parse_snapshot_log(read_file(base / "snapshots.log"),
                     [&](ConfigSnapshot snap) { delta.snapshots.push_back(std::move(snap)); });
  return delta;
}

SplitDataset split_dataset(const DiskDataset& data, int first_delta_month) {
  SplitDataset out;
  out.base.inventory = data.inventory;

  // One delta per month from the cut to the last month observed in the
  // data, contiguous so the append sequence has no gaps.
  int last_month = first_delta_month - 1;
  for (const auto& t : data.tickets.all()) last_month = std::max(last_month, month_of(t.created));
  for (const auto& device_id : data.snapshots.devices())
    for (const auto& snap : data.snapshots.for_device(device_id))
      last_month = std::max(last_month, month_of(snap.time));
  out.deltas.resize(static_cast<std::size_t>(last_month - first_delta_month + 1));
  for (std::size_t i = 0; i < out.deltas.size(); ++i)
    out.deltas[i].month = first_delta_month + static_cast<int>(i);

  // Stored orders are preserved within each destination: replaying the
  // deltas over the base re-adds every record in its original relative
  // order, so the merged containers (and their FNV fingerprint) match
  // the unsplit dataset.
  for (const auto& t : data.tickets.all()) {
    const int m = month_of(t.created);
    if (m < first_delta_month)
      out.base.tickets.add(t);
    else
      out.deltas[static_cast<std::size_t>(m - first_delta_month)].tickets.push_back(t);
  }
  for (const auto& device_id : data.snapshots.devices()) {
    for (const auto& snap : data.snapshots.for_device(device_id)) {
      const int m = month_of(snap.time);
      if (m < first_delta_month)
        out.base.snapshots.add(snap);
      else
        out.deltas[static_cast<std::size_t>(m - first_delta_month)].snapshots.push_back(snap);
    }
  }
  return out;
}

}  // namespace mpa
