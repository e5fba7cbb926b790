// mpac: the binary columnar on-disk dataset format.
//
// CSV (dataset_io.hpp) stays the interchange format; mpac is the
// performance format — the same three sources laid out as per-column
// contiguous arrays so a load is a handful of mmaps plus one
// fingerprint pass instead of a text parse. A dataset directory holds:
//
//   mpac-manifest.json   format/version, per-source totals, and the
//                        shard list (file name, byte size, fingerprint,
//                        per-shard record counts). Fingerprints are
//                        bare u64 decimals read back exactly through
//                        JsonValue::as_u64.
//   shard-00000.mpac     one or more shards, each self-contained.
//
// Shard layout (all integers little-endian, blocks 8-byte aligned):
//
//   +--------+---------+------------+-----------+-----------+
//   | header | column  | column ... | directory | trailer   |
//   | 24 B   | block 0 | blocks     | entries   | u64 fnv   |
//   +--------+---------+------------+-----------+-----------+
//
//   header     magic "MPAC", u32 version, u64 dir_offset, u32
//              dir_count, u32 reserved.
//   blocks     one per column: raw element array, zero-padded to the
//              next 8-byte boundary so every u64/i64 span is aligned.
//   directory  dir_count records of {u32 tag, u32 elem_size,
//              u64 offset, u64 count}.
//   trailer    word-folded FNV-1a (util/hash.hpp fnv1a_words) over
//              every byte before it; verified on load against both the
//              trailer and the manifest.
//
// Strings (ids, models, firmware, logins, symptoms, workload names)
// are dictionary-encoded per shard: one offsets+blob pair holds each
// distinct string once, sorted, and the record columns store u32
// codes. The sorted dictionary makes the encoding canonical — shard
// bytes depend only on record order, not on which add_* call first
// discovered a string — so the streaming generator and batch
// conversion produce byte-identical shards. Config
// text goes uncompressed into a separate blob with u64 begin offsets —
// snapshot text is unique per record, so a dictionary would only add
// indirection. Timestamps are fixed-width i64 minutes. Each record
// carries a global u64 sequence number so multi-shard reconstruction
// can verify it is replaying the original container order.
//
// mpac stores exactly the information content of the CSV form (e.g.
// workload *names* only, like networks.csv), so CSV -> mpac -> CSV is
// byte-identical and a session opened from either format produces
// bit-identical artifacts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "io/dataset_io.hpp"

namespace mpa {

inline constexpr std::uint32_t kMpacVersion = 1;
inline constexpr char kMpacMagic[4] = {'M', 'P', 'A', 'C'};
inline constexpr const char* kMpacManifestName = "mpac-manifest.json";

/// Column identifiers, stable across versions. elem_size in brackets.
enum class ColumnTag : std::uint32_t {
  kDictOffsets = 1,       ///< [8] u64, dict_size+1 begin offsets into kDictBlob
  kDictBlob = 2,          ///< [1] concatenated dictionary string bytes
  kNetSeq = 10,           ///< [8] global network sequence number
  kNetId = 11,            ///< [4] dict code: network_id
  kNetWorkloadBegin = 12, ///< [4] networks+1 begin offsets into kNetWorkloadCode
  kNetWorkloadCode = 13,  ///< [4] dict code: workload name
  kDevSeq = 20,           ///< [8] global device sequence number
  kDevId = 21,            ///< [4] dict code: device_id
  kDevNetwork = 22,       ///< [4] dict code: owning network_id
  kDevVendor = 23,        ///< [1] Vendor enum value
  kDevModel = 24,         ///< [4] dict code: model
  kDevRole = 25,          ///< [1] Role enum value
  kDevFirmware = 26,      ///< [4] dict code: firmware
  kTktSeq = 30,           ///< [8] global ticket sequence number
  kTktId = 31,            ///< [4] dict code: ticket_id
  kTktNetwork = 32,       ///< [4] dict code: network_id
  kTktCreated = 33,       ///< [8] i64 created timestamp (minutes)
  kTktResolved = 34,      ///< [8] i64 resolved timestamp (minutes)
  kTktOrigin = 35,        ///< [1] TicketOrigin enum value
  kTktSymptom = 36,       ///< [4] dict code: symptom
  kTktDeviceBegin = 37,   ///< [4] tickets+1 begin offsets into kTktDeviceCode
  kTktDeviceCode = 38,    ///< [4] dict code: ticket device_id
  kSnapDevice = 40,       ///< [4] dict code: device_id
  kSnapTime = 41,         ///< [8] i64 capture timestamp (minutes)
  kSnapLogin = 42,        ///< [4] dict code: login
  kSnapTextBegin = 43,    ///< [8] snapshots+1 begin offsets into kConfigBlob
  kConfigBlob = 50,       ///< [1] concatenated raw config text
};

struct ColumnarWriteOptions {
  /// Approximate serialized size at which the writer cuts a shard.
  std::size_t max_shard_bytes = 64ull << 20;
};

/// Record totals for a written or loaded mpac dataset.
struct MpacTotals {
  std::uint64_t networks = 0;
  std::uint64_t devices = 0;
  std::uint64_t tickets = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t config_bytes = 0;  ///< Raw config text bytes across shards.
  std::uint64_t shard_bytes = 0;   ///< Serialized shard bytes (sans manifest).
  std::uint64_t shards = 0;
};

/// One manifest shard entry.
struct MpacShardInfo {
  std::string file;  ///< File name relative to the dataset directory.
  std::uint64_t bytes = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t networks = 0;
  std::uint64_t devices = 0;
  std::uint64_t tickets = 0;
  std::uint64_t snapshots = 0;
};

/// Streaming mpac writer: append records in container order and shards
/// are cut automatically near max_shard_bytes, so memory stays bounded
/// by one shard regardless of dataset size (the 100k-network generator
/// streams through this). Records are never split across a shard
/// boundary. Call finish() exactly once to flush and write the
/// manifest; the writer is unusable afterwards.
///
/// Ordering contract (same as the CSV files): devices of a network may
/// arrive before or after other networks, but each device's snapshots
/// must arrive in non-decreasing time order relative to one another.
class ColumnarWriter {
 public:
  explicit ColumnarWriter(std::string dir, ColumnarWriteOptions opts = {});
  ~ColumnarWriter();

  ColumnarWriter(const ColumnarWriter&) = delete;
  ColumnarWriter& operator=(const ColumnarWriter&) = delete;

  void add_network(const NetworkRecord& net);
  void add_device(const DeviceRecord& dev);
  void add_ticket(const Ticket& t);
  void add_snapshot(const ConfigSnapshot& snap);

  /// Serialize buffered records into the next shard file (no-op when
  /// nothing is buffered). Called automatically near max_shard_bytes.
  void flush_shard();

  /// Flush and write mpac-manifest.json. Returns the final totals.
  MpacTotals finish();

 private:
  struct Buffers;

  std::uint32_t dict_code(std::string_view s);
  void maybe_flush();

  std::string dir_;
  ColumnarWriteOptions opts_;
  std::unique_ptr<Buffers> buf_;
  std::vector<MpacShardInfo> shards_;
  MpacTotals totals_;
  bool finished_ = false;
};

/// Read-only byte range backed by mmap when the platform provides it,
/// falling back to a heap read otherwise. Neither copyable nor movable:
/// a loaded dataset holds each one under shared ownership, and every
/// snapshot text that points into it shares that ownership.
class MappedFile {
 public:
  explicit MappedFile(const std::string& path);
  ~MappedFile();

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  std::span<const std::byte> bytes() const { return {data_, size_}; }

 private:
  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
  std::vector<std::byte> fallback_;
};

/// A validated view over one shard's bytes. Construction checks the
/// header, directory, fingerprint, column bounds/alignment, and offset
/// arrays; accessors after that are zero-copy spans straight into the
/// mapping. Dictionary codes are range-checked at use.
class ShardView {
 public:
  struct ColumnInfo {
    std::uint32_t tag = 0;
    std::uint32_t elem_size = 0;
    std::uint64_t offset = 0;  ///< Byte offset from the start of the shard.
    std::uint64_t count = 0;
  };

  /// `expected_fingerprint` comes from the manifest; pass the trailer
  /// value itself to skip the cross-check (verify-one-file mode).
  ShardView(std::span<const std::byte> bytes, std::string file,
            std::uint64_t expected_fingerprint);

  std::size_t num_networks() const { return u64s(ColumnTag::kNetSeq).size(); }
  std::size_t num_devices() const { return u64s(ColumnTag::kDevSeq).size(); }
  std::size_t num_tickets() const { return u64s(ColumnTag::kTktSeq).size(); }
  std::size_t num_snapshots() const { return u32s(ColumnTag::kSnapDevice).size(); }

  /// Typed column spans (aliases of the underlying mapping).
  std::span<const std::uint64_t> u64s(ColumnTag tag) const;
  std::span<const std::int64_t> i64s(ColumnTag tag) const;
  std::span<const std::uint32_t> u32s(ColumnTag tag) const;
  std::span<const std::uint8_t> u8s(ColumnTag tag) const;

  /// Dictionary entry for `code`; throws DataError "dictionary index
  /// out of range" on a corrupt code. The view aliases the mapping.
  std::string_view dict(std::uint32_t code) const;

  /// Raw config text of snapshot row `i` (aliases the mapping).
  std::string_view config_text(std::size_t i) const;

  const ColumnInfo* column(ColumnTag tag) const;
  std::span<const std::byte> bytes() const { return bytes_; }
  const std::string& file() const { return file_; }

 private:
  const ColumnInfo& require_column(ColumnTag tag) const;

  std::span<const std::byte> bytes_;
  std::string file_;
  std::vector<ColumnInfo> columns_;  ///< Sorted by tag.
};

/// A loaded mpac dataset: the mapped shards plus manifest totals.
/// Shard views stay valid for the lifetime of this object; a mapping
/// outlives it while any snapshot text from to_disk_dataset() points
/// into it.
class ColumnarDataset {
 public:
  const std::vector<ShardView>& shards() const { return views_; }
  const std::vector<MpacShardInfo>& shard_infos() const { return infos_; }
  const MpacTotals& totals() const { return totals_; }

  /// Manifest + shard bytes actually read (for load observability).
  std::uint64_t total_bytes() const { return bytes_read_; }

  /// The in-memory containers. Validates sequence order, dictionary
  /// and enum codes with "mpac:"-prefixed errors, then every record
  /// with the RecordChecker (dataset_io.hpp), as the CSV loader does.
  /// Snapshot text is not copied: each text aliases the verified
  /// mapping of its shard and keeps it mapped.
  DiskDataset to_disk_dataset() const;

 private:
  friend ColumnarDataset load_columnar(const std::string& dir);

  std::vector<std::shared_ptr<const MappedFile>> maps_;  ///< Parallel to views_.
  std::vector<ShardView> views_;
  std::vector<MpacShardInfo> infos_;
  MpacTotals totals_;
  std::uint64_t bytes_read_ = 0;
};

/// True when `dir` contains an mpac manifest (format auto-detection).
bool is_columnar_dir(const std::string& dir);

/// Write `data` as an mpac dataset into `dir` (created if absent) in
/// the same record order save_dataset uses, and return the writer's
/// totals. Each shard and the manifest replace their file by rename,
/// so a session open on the old dataset keeps its bytes. Throws
/// DataError on I/O failure.
MpacTotals save_columnar(const DiskDataset& data, const std::string& dir,
                         ColumnarWriteOptions opts = {});

/// Map and validate an mpac dataset directory. Every shard's header,
/// directory, and fingerprint are verified before this returns; throws
/// DataError naming the shard and defect ("bad magic", "unsupported
/// version", "truncated shard", "fingerprint mismatch").
ColumnarDataset load_columnar(const std::string& dir);

/// Deep-verify an mpac dataset: load_columnar, then to_disk_dataset, so
/// verify rejects exactly what load_dataset rejects. Returns a
/// human-readable report; throws DataError on any defect.
std::string verify_columnar(const std::string& dir);

}  // namespace mpa
