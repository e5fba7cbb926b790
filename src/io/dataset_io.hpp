// On-disk dataset format, so organizations can run MPA on their own
// data ("Our tool is publicly available, so organizations can analyze
// their own management practices", §1).
//
// A dataset directory contains:
//
//   networks.csv    network_id,workloads            (workloads ';'-separated)
//   devices.csv     device_id,network_id,vendor,model,role,firmware
//   tickets.csv     ticket_id,network_id,created,resolved,origin,symptom,devices
//   snapshots.log   one record per snapshot:
//                     @snapshot <device_id> <time> <login> <byte-count>
//                     <byte-count bytes of raw config text>
//
// Timestamps are minutes from the start of the observation window
// (telemetry/time.hpp). Vendors/roles/origins use the to_string names.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "model/inventory.hpp"
#include "telemetry/snapshots.hpp"
#include "telemetry/tickets.hpp"

namespace mpa {

/// A loaded (or to-be-saved) on-disk dataset.
struct DiskDataset {
  Inventory inventory;
  SnapshotStore snapshots;
  TicketLog tickets;
};

/// Write all three data sources into `dir` (created if absent).
/// Throws DataError on I/O failure.
void save_dataset(const DiskDataset& data, const std::string& dir);

/// Load a dataset directory written by save_dataset (or assembled by
/// hand / by an exporter from RANCID + an inventory system). Throws
/// DataError on malformed content, naming the missing file when the
/// directory or one of the four sources is absent.
///
/// Detects the format automatically: a directory containing an mpac
/// manifest (io/columnar.hpp) is loaded through the binary columnar
/// path instead of the CSV parser. When `bytes_read` is non-null it
/// receives the total bytes read from disk (for load observability).
DiskDataset load_dataset(const std::string& dir, std::uint64_t* bytes_read = nullptr);

/// One month of new telemetry for a live dataset: the snapshots and
/// tickets whose timestamps fall inside month `month`. The inventory is
/// fixed across a delta — adding devices or networks means opening a
/// new session over the full dataset.
struct MonthDelta {
  int month = 0;
  std::vector<ConfigSnapshot> snapshots;
  std::vector<Ticket> tickets;
};

/// Write a month delta into `dir` (created if absent): month.txt plus
/// tickets.csv and snapshots.log in the exact formats save_dataset
/// uses (same field validation, same error strings). Throws DataError
/// on I/O failure or an invalid field.
void save_month_delta(const MonthDelta& delta, const std::string& dir);

/// Load a delta directory written by save_month_delta. Throws
/// DataError on malformed content, with the format checks and error
/// strings of load_dataset, and rejects a ticket that breaks
/// RecordChecker::check_ticket_times; the record rules that need a
/// session are append_month's. CRLF line endings are accepted.
MonthDelta load_month_delta(const std::string& dir);

/// A dataset cut at a month boundary: `base` holds every record whose
/// timestamp falls strictly before `first_delta_month`, and `deltas`
/// holds one MonthDelta per later month (contiguous, possibly empty
/// months included) in ascending month order. Within every destination
/// the original relative record order is preserved, so replaying the
/// deltas over the base reproduces each device's snapshot sequence
/// exactly; the global ticket order becomes month-major (base first,
/// then each delta), which no analysis observes — artifacts equal a
/// from-scratch run over the replayed containers bit-exactly.
struct SplitDataset {
  DiskDataset base;
  std::vector<MonthDelta> deltas;
};

/// Split a dataset at `first_delta_month` (tickets are attributed to
/// the month of their created time, snapshots to the month of their
/// capture time). The inventory is copied into the base unchanged.
SplitDataset split_dataset(const DiskDataset& data, int first_delta_month);

/// Parse helpers exposed for tests.
Vendor vendor_from_string(std::string_view s);
Role role_from_string(std::string_view s);
TicketOrigin origin_from_string(std::string_view s);

/// Validation shared by save_dataset and save_month_delta, exposed for
/// tests: snapshots.log header tokens are whitespace-delimited, so a
/// device_id or login that is empty or contains whitespace is rejected
/// by name before it can corrupt the record stream.
void check_header_token(std::string_view s, const char* what);

/// The rules a dataset record must meet, each stated once. The CSV
/// loader, the mpac loader (and verify_columnar, which walks the same
/// code) and AnalysisSession::append_month check every record here
/// before they store anything:
///
///   network   id unique
///   device    id unique; network known
///   ticket    created and resolved in [0, month_start(kMaxMonths));
///             resolved >= created; network known
///   snapshot  device known; device_id and login pass check_header_token;
///             time in [0, month_start(kMaxMonths)) and >= the device's
///             last accepted snapshot
///
/// A failure throws a DataError that starts with the source (a file, an
/// mpac shard, or "append_month") and names the record. The caller
/// keeps `inventory` current by storing each network and device the
/// checker accepts; `history` holds the snapshots stored before it.
class RecordChecker {
 public:
  RecordChecker(const Inventory& inventory, std::string source,
                const SnapshotStore* history = nullptr);
  RecordChecker(const RecordChecker&) = delete;

  void set_source(std::string source) { source_ = std::move(source); }

  void check_network(const NetworkRecord& net) const;
  void check_device(const DeviceRecord& dev) const;
  void check_ticket(const Ticket& t) const;
  void check_snapshot(std::string_view device_id, Timestamp time, std::string_view login);

  /// The part of the ticket rule that needs no inventory: both times
  /// in range, resolved >= created.
  static void check_ticket_times(const Ticket& t, std::string_view source);

 private:
  [[noreturn]] void fail(const std::string& what) const;

  const Inventory& inventory_;
  const SnapshotStore* history_;
  std::string source_;
  /// Each device's last accepted snapshot time; `run_` is the previous
  /// snapshot's entry, so a run of one device's snapshots (both formats
  /// store them together) costs one lookup.
  std::map<std::string, Timestamp, std::less<>> last_time_;
  std::map<std::string, Timestamp, std::less<>>::iterator run_ = last_time_.end();
};

}  // namespace mpa
