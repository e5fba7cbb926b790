#include "io/dataset_io.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "io/columnar.hpp"
#include "telemetry/time.hpp"
#include "util/error.hpp"
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

// from_chars keeps the hot parse loops allocation-free; error strings
// are pinned by tests and must not change.
std::int64_t parse_int(std::string_view s, const char* what) {
  std::int64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec == std::errc() && ptr != s.data() + s.size())
    throw DataError(std::string("trailing junk in ") + what + ": " + std::string(s));
  if (ec != std::errc())
    throw DataError(std::string("bad integer for ") + what + ": " + std::string(s));
  return v;
}

// Shared row/record codecs so the full-dataset and month-delta paths
// stay byte-compatible (and fail with identical error strings).

void render_ticket_row(std::ostream& os, const Ticket& t) {
  check_field(t.ticket_id, "ticket_id");
  check_field(t.symptom, "symptom");
  os << t.ticket_id << ',' << t.network_id << ',' << t.created << ',' << t.resolved << ','
     << to_string(t.origin) << ',' << t.symptom << ',' << join(t.devices, ";") << '\n';
}

Ticket parse_ticket_row(std::string_view line) {
  const auto cells = split_views(line, ',');
  require_data(cells.size() == 7, [&] { return "tickets.csv: bad row: " + std::string(line); });
  Ticket t;
  t.ticket_id = std::string(cells[0]);
  t.network_id = std::string(cells[1]);
  t.created = parse_int(cells[2], "ticket created");
  t.resolved = parse_int(cells[3], "ticket resolved");
  require_data(t.resolved >= t.created, [&] {
    return "tickets.csv: resolved time " + std::string(cells[3]) + " precedes created time " +
           std::string(cells[2]) + " for ticket " + t.ticket_id;
  });
  t.origin = origin_from_string(cells[4]);
  t.symptom = std::string(cells[5]);
  if (!cells[6].empty()) t.devices = split(cells[6], ';');
  return t;
}

void render_snapshot_record(std::ostream& os, const ConfigSnapshot& snap) {
  check_header_token(snap.device_id, "snapshot device_id");
  check_header_token(snap.login, "snapshot login");
  os << "@snapshot " << snap.device_id << ' ' << snap.time << ' ' << snap.login << ' '
     << snap.text.size() << '\n'
     << snap.text;
}

std::vector<ConfigSnapshot> parse_snapshot_log(const std::string& log) {
  std::vector<ConfigSnapshot> out;
  const std::string_view view(log);
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
    snap.text = log.substr(eol + 1, length);
    out.push_back(std::move(snap));
    pos = eol + 1 + length;
  }
  return out;
}

}  // namespace

// snapshots.log headers are whitespace-delimited ("@snapshot <device>
// <time> <login> <length>"), so a device_id or login containing
// whitespace would change the token count and corrupt every record
// after it. Validate on save, like check_field does for the CSVs.
void check_header_token(const std::string& s, const char* what) {
  require_data(!s.empty(), [&] { return std::string("snapshot header field is empty: ") + what; });
  for (const char c : s)
    require_data(std::isspace(static_cast<unsigned char>(c)) == 0, [&] {
      return std::string("snapshot header field contains whitespace: ") + what + ": " + s;
    });
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
      for (const auto& w : net.workloads) {
        check_field(w.name, "workload");
        wl.push_back(w.name);
      }
      os << net.network_id << ',' << join(wl, ";") << '\n';
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

  // tickets.csv
  {
    std::ostringstream os;
    os << "ticket_id,network_id,created,resolved,origin,symptom,devices\n";
    for (const auto& t : data.tickets.all()) render_ticket_row(os, t);
    write_file(base / "tickets.csv", os.str());
  }

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
  std::uint64_t bytes = 0;

  // networks.csv — fields are parsed as string_view slices of the file
  // buffer (one copy per stored string, none per intermediate field).
  {
    const std::string text = read_file(base / "networks.csv");
    bytes += text.size();
    const auto lines = split_line_views(text);
    data.inventory.reserve(lines.size() > 1 ? lines.size() - 1 : 0, 0);
    for (std::size_t i = 1; i < lines.size(); ++i) {
      if (trim(lines[i]).empty()) continue;
      const auto cells = split_views(lines[i], ',');
      require_data(cells.size() == 2,
                   [&] { return "networks.csv: bad row: " + std::string(lines[i]); });
      NetworkRecord net;
      net.network_id = std::string(cells[0]);
      if (!cells[1].empty()) {
        for (const auto name : split_views(cells[1], ';')) {
          Workload w;
          w.name = std::string(name);
          net.workloads.push_back(std::move(w));
        }
      }
      data.inventory.add_network(std::move(net));
    }
  }

  // devices.csv
  {
    const std::string text = read_file(base / "devices.csv");
    bytes += text.size();
    const auto lines = split_line_views(text);
    data.inventory.reserve(0, lines.size() > 1 ? lines.size() - 1 : 0);
    for (std::size_t i = 1; i < lines.size(); ++i) {
      if (trim(lines[i]).empty()) continue;
      const auto cells = split_views(lines[i], ',');
      require_data(cells.size() == 6,
                   [&] { return "devices.csv: bad row: " + std::string(lines[i]); });
      DeviceRecord d;
      d.device_id = std::string(cells[0]);
      d.network_id = std::string(cells[1]);
      d.vendor = vendor_from_string(cells[2]);
      d.model = std::string(cells[3]);
      d.role = role_from_string(cells[4]);
      d.firmware = std::string(cells[5]);
      data.inventory.add_device(std::move(d));
    }
  }

  // tickets.csv
  {
    const std::string text = read_file(base / "tickets.csv");
    bytes += text.size();
    const auto lines = split_line_views(text);
    data.tickets.reserve(lines.size() > 1 ? lines.size() - 1 : 0);
    for (std::size_t i = 1; i < lines.size(); ++i) {
      if (trim(lines[i]).empty()) continue;
      data.tickets.add(parse_ticket_row(lines[i]));
    }
  }

  // snapshots.log
  {
    const std::string text = read_file(base / "snapshots.log");
    bytes += text.size();
    for (auto& snap : parse_snapshot_log(text)) data.snapshots.add(std::move(snap));
  }

  if (bytes_read != nullptr) *bytes_read = bytes;
  return data;
}

void save_month_delta(const MonthDelta& delta, const std::string& dir) {
  fs::create_directories(dir);
  const fs::path base(dir);

  write_file(base / "month.txt", std::to_string(delta.month) + "\n");

  {
    std::ostringstream os;
    os << "ticket_id,network_id,created,resolved,origin,symptom,devices\n";
    for (const auto& t : delta.tickets) render_ticket_row(os, t);
    write_file(base / "tickets.csv", os.str());
  }

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
    const std::int64_t month = parse_int(text, "delta month");
    require_data(month >= 0, "month.txt: delta month is negative: " + text);
    delta.month = static_cast<int>(month);
  }

  {
    const auto lines = split_lines(read_file(base / "tickets.csv"));
    for (std::size_t i = 1; i < lines.size(); ++i) {
      if (trim(lines[i]).empty()) continue;
      delta.tickets.push_back(parse_ticket_row(lines[i]));
    }
  }

  delta.snapshots = parse_snapshot_log(read_file(base / "snapshots.log"));
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
