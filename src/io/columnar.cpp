#include "io/columnar.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define MPA_HAVE_MMAP 1
#endif

// The shard layout stores raw little-endian element arrays and the
// readers reinterpret them in place; a big-endian port would need a
// byte-swapping read path.
static_assert(std::endian::native == std::endian::little,
              "mpac shards are little-endian; this platform is not");

namespace mpa {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kHeaderBytes = 24;
constexpr std::size_t kDirEntryBytes = 24;
constexpr std::size_t kTrailerBytes = 8;

std::string shard_err(const std::string& file, const std::string& what) {
  return "mpac: " + file + ": " + what;
}

void append_raw(std::string& buf, const void* p, std::size_t n) {
  buf.append(static_cast<const char*>(p), n);
}

void append_u32(std::string& buf, std::uint32_t v) {
  append_raw(buf, &v, sizeof v);
}
void append_u64(std::string& buf, std::uint64_t v) {
  append_raw(buf, &v, sizeof v);
}

void pad8(std::string& buf) {
  while (buf.size() % 8 != 0) buf.push_back('\0');
}

std::uint32_t read_u32(std::span<const std::byte> b, std::size_t off) {
  std::uint32_t v;
  std::memcpy(&v, b.data() + off, sizeof v);
  return v;
}

std::uint64_t read_u64(std::span<const std::byte> b, std::size_t off) {
  std::uint64_t v;
  std::memcpy(&v, b.data() + off, sizeof v);
  return v;
}

// Every column a shard holds, with its element size in bytes.
constexpr std::pair<ColumnTag, std::uint32_t> kColumns[] = {
    {ColumnTag::kDictOffsets, 8},    {ColumnTag::kDictBlob, 1},      {ColumnTag::kNetSeq, 8},
    {ColumnTag::kNetId, 4},          {ColumnTag::kNetWorkloadBegin, 4},
    {ColumnTag::kNetWorkloadCode, 4}, {ColumnTag::kDevSeq, 8},       {ColumnTag::kDevId, 4},
    {ColumnTag::kDevNetwork, 4},     {ColumnTag::kDevVendor, 1},     {ColumnTag::kDevModel, 4},
    {ColumnTag::kDevRole, 1},        {ColumnTag::kDevFirmware, 4},   {ColumnTag::kTktSeq, 8},
    {ColumnTag::kTktId, 4},          {ColumnTag::kTktNetwork, 4},    {ColumnTag::kTktCreated, 8},
    {ColumnTag::kTktResolved, 8},    {ColumnTag::kTktOrigin, 1},     {ColumnTag::kTktSymptom, 4},
    {ColumnTag::kTktDeviceBegin, 4}, {ColumnTag::kTktDeviceCode, 4}, {ColumnTag::kSnapDevice, 4},
    {ColumnTag::kSnapTime, 8},       {ColumnTag::kSnapLogin, 4},     {ColumnTag::kSnapTextBegin, 8},
    {ColumnTag::kConfigBlob, 1},
};

/// The element size of column `tag`, or 0 for an unknown tag.
std::uint32_t expected_elem_size(std::uint32_t tag) {
  for (const auto& [t, size] : kColumns)
    if (static_cast<std::uint32_t>(t) == tag) return size;
  return 0;
}

// Writes `content` to a temporary file beside `path`, then renames it
// over `path`. A file is replaced, never rewritten in place: a session
// that maps the old shard keeps reading the old file, whose bytes it
// verified, and never sees a truncated or half-written one.
void write_binary_file(const fs::path& path, const std::string& content) {
  fs::path tmp = path;
  tmp += ".tmp";
  std::ofstream out(tmp, std::ios::binary);
  require_data(static_cast<bool>(out), "mpac: cannot open " + tmp.string() + " for writing");
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  out.close();
  std::error_code ec;
  if (out) fs::rename(tmp, path, ec);
  if (!out || ec) {
    fs::remove(tmp, ec);
    throw DataError("mpac: write failed for " + path.string());
  }
}

std::string read_text_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  require_data(static_cast<bool>(in), "mpac: cannot open " + path.string());
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

// ---------------------------------------------------------------------------
// MappedFile

MappedFile::MappedFile(const std::string& path) {
#ifdef MPA_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  require_data(fd >= 0, "mpac: cannot open " + path);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw DataError("mpac: cannot stat " + path);
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ == 0) {
    ::close(fd);
    return;
  }
  void* addr = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (addr != MAP_FAILED) {
    data_ = static_cast<const std::byte*>(addr);
    mapped_ = true;
    return;
  }
  // mmap can fail on exotic filesystems; fall through to a plain read.
#endif
  std::ifstream in(path, std::ios::binary);
  require_data(static_cast<bool>(in), "mpac: cannot open " + path);
  in.seekg(0, std::ios::end);
  const auto n = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  fallback_.resize(n);
  if (n > 0) in.read(reinterpret_cast<char*>(fallback_.data()), static_cast<std::streamsize>(n));
  require_data(static_cast<bool>(in), "mpac: read failed for " + path);
  data_ = fallback_.data();
  size_ = n;
  mapped_ = false;
}

MappedFile::~MappedFile() {
#ifdef MPA_HAVE_MMAP
  if (mapped_ && data_ != nullptr)
    ::munmap(const_cast<void*>(static_cast<const void*>(data_)), size_);
#endif
}

// ---------------------------------------------------------------------------
// ColumnarWriter

struct ColumnarWriter::Buffers {
  std::vector<std::string> dict_entries;
  std::map<std::string, std::uint32_t, std::less<>> dict_index;

  std::vector<std::uint64_t> net_seq;
  std::vector<std::uint32_t> net_id;
  std::vector<std::uint32_t> net_wl_begin{0};
  std::vector<std::uint32_t> net_wl_code;

  std::vector<std::uint64_t> dev_seq;
  std::vector<std::uint32_t> dev_id, dev_network, dev_model, dev_firmware;
  std::vector<std::uint8_t> dev_vendor, dev_role;

  std::vector<std::uint64_t> tkt_seq;
  std::vector<std::uint32_t> tkt_id, tkt_network, tkt_symptom;
  std::vector<std::int64_t> tkt_created, tkt_resolved;
  std::vector<std::uint8_t> tkt_origin;
  std::vector<std::uint32_t> tkt_dev_begin{0};
  std::vector<std::uint32_t> tkt_dev_code;

  std::vector<std::uint32_t> snap_device, snap_login;
  std::vector<std::int64_t> snap_time;
  std::vector<std::uint64_t> snap_text_begin{0};
  std::string config_blob;

  std::size_t approx_bytes = 0;

  bool empty() const {
    return net_seq.empty() && dev_seq.empty() && tkt_seq.empty() && snap_device.empty();
  }
};

ColumnarWriter::ColumnarWriter(std::string dir, ColumnarWriteOptions opts)
    : dir_(std::move(dir)), opts_(opts), buf_(std::make_unique<Buffers>()) {
  fs::create_directories(dir_);
}

ColumnarWriter::~ColumnarWriter() = default;

std::uint32_t ColumnarWriter::dict_code(std::string_view s) {
  const auto it = buf_->dict_index.find(s);
  if (it != buf_->dict_index.end()) return it->second;
  const auto code = static_cast<std::uint32_t>(buf_->dict_entries.size());
  buf_->dict_entries.emplace_back(s);
  buf_->dict_index.emplace(buf_->dict_entries.back(), code);
  buf_->approx_bytes += s.size() + 8;
  return code;
}

void ColumnarWriter::add_network(const NetworkRecord& net) {
  require(!finished_, "ColumnarWriter: add after finish");
  buf_->net_seq.push_back(totals_.networks++);
  buf_->net_id.push_back(dict_code(net.network_id));
  for (const auto& w : net.workloads) buf_->net_wl_code.push_back(dict_code(w.name));
  buf_->net_wl_begin.push_back(static_cast<std::uint32_t>(buf_->net_wl_code.size()));
  buf_->approx_bytes += 16 + 4 * net.workloads.size();
  maybe_flush();
}

void ColumnarWriter::add_device(const DeviceRecord& dev) {
  require(!finished_, "ColumnarWriter: add after finish");
  buf_->dev_seq.push_back(totals_.devices++);
  buf_->dev_id.push_back(dict_code(dev.device_id));
  buf_->dev_network.push_back(dict_code(dev.network_id));
  buf_->dev_vendor.push_back(static_cast<std::uint8_t>(dev.vendor));
  buf_->dev_model.push_back(dict_code(dev.model));
  buf_->dev_role.push_back(static_cast<std::uint8_t>(dev.role));
  buf_->dev_firmware.push_back(dict_code(dev.firmware));
  buf_->approx_bytes += 26;
  maybe_flush();
}

void ColumnarWriter::add_ticket(const Ticket& t) {
  require(!finished_, "ColumnarWriter: add after finish");
  buf_->tkt_seq.push_back(totals_.tickets++);
  buf_->tkt_id.push_back(dict_code(t.ticket_id));
  buf_->tkt_network.push_back(dict_code(t.network_id));
  buf_->tkt_created.push_back(t.created);
  buf_->tkt_resolved.push_back(t.resolved);
  buf_->tkt_origin.push_back(static_cast<std::uint8_t>(t.origin));
  buf_->tkt_symptom.push_back(dict_code(t.symptom));
  for (const auto& d : t.devices) buf_->tkt_dev_code.push_back(dict_code(d));
  buf_->tkt_dev_begin.push_back(static_cast<std::uint32_t>(buf_->tkt_dev_code.size()));
  buf_->approx_bytes += 41 + 4 * t.devices.size();
  maybe_flush();
}

void ColumnarWriter::add_snapshot(const ConfigSnapshot& snap) {
  require(!finished_, "ColumnarWriter: add after finish");
  ++totals_.snapshots;
  totals_.config_bytes += snap.text.size();
  buf_->snap_device.push_back(dict_code(snap.device_id));
  buf_->snap_time.push_back(snap.time);
  buf_->snap_login.push_back(dict_code(snap.login));
  buf_->config_blob.append(snap.text);
  buf_->snap_text_begin.push_back(buf_->config_blob.size());
  buf_->approx_bytes += 24 + snap.text.size();
  maybe_flush();
}

void ColumnarWriter::maybe_flush() {
  if (buf_->approx_bytes >= opts_.max_shard_bytes) flush_shard();
}

void ColumnarWriter::flush_shard() {
  require(!finished_, "ColumnarWriter: flush after finish");
  Buffers& b = *buf_;
  if (b.empty()) return;

  // Canonical dictionary: entries are emitted in sorted order and
  // every code column remapped to match, so shard bytes depend only on
  // the record order fed to the writer — not on which add_* call
  // happened to discover each string first. The streaming generator
  // (record-interleaved per network) and batch conversion (table-major)
  // therefore emit byte-identical shards for the same records.
  std::vector<std::uint32_t> remap(b.dict_entries.size());
  std::vector<std::uint64_t> dict_offsets;
  dict_offsets.reserve(b.dict_entries.size() + 1);
  std::string dict_blob;
  dict_offsets.push_back(0);
  {
    std::uint32_t next = 0;
    for (const auto& [str, old_code] : b.dict_index) {  // sorted by key
      remap[old_code] = next++;
      dict_blob.append(str);
      dict_offsets.push_back(dict_blob.size());
    }
  }
  for (auto* col : {&b.net_id, &b.net_wl_code, &b.dev_id, &b.dev_network, &b.dev_model,
                    &b.dev_firmware, &b.tkt_id, &b.tkt_network, &b.tkt_symptom, &b.tkt_dev_code,
                    &b.snap_device, &b.snap_login})
    for (std::uint32_t& code : *col) code = remap[code];

  std::string buf;
  buf.reserve(b.approx_bytes + (b.approx_bytes >> 2) + 4096);
  // Header placeholder; dir_offset patched once known.
  append_raw(buf, kMpacMagic, sizeof kMpacMagic);
  append_u32(buf, kMpacVersion);
  append_u64(buf, 0);  // dir_offset
  append_u32(buf, 0);  // dir_count
  append_u32(buf, 0);  // reserved

  std::vector<ShardView::ColumnInfo> dir;
  const auto emit = [&](ColumnTag tag, const void* data, std::size_t elem, std::size_t count) {
    pad8(buf);
    ShardView::ColumnInfo info;
    info.tag = static_cast<std::uint32_t>(tag);
    info.elem_size = static_cast<std::uint32_t>(elem);
    info.offset = buf.size();
    info.count = count;
    dir.push_back(info);
    append_raw(buf, data, elem * count);
  };

  emit(ColumnTag::kDictOffsets, dict_offsets.data(), 8, dict_offsets.size());
  emit(ColumnTag::kDictBlob, dict_blob.data(), 1, dict_blob.size());
  emit(ColumnTag::kNetSeq, b.net_seq.data(), 8, b.net_seq.size());
  emit(ColumnTag::kNetId, b.net_id.data(), 4, b.net_id.size());
  emit(ColumnTag::kNetWorkloadBegin, b.net_wl_begin.data(), 4, b.net_wl_begin.size());
  emit(ColumnTag::kNetWorkloadCode, b.net_wl_code.data(), 4, b.net_wl_code.size());
  emit(ColumnTag::kDevSeq, b.dev_seq.data(), 8, b.dev_seq.size());
  emit(ColumnTag::kDevId, b.dev_id.data(), 4, b.dev_id.size());
  emit(ColumnTag::kDevNetwork, b.dev_network.data(), 4, b.dev_network.size());
  emit(ColumnTag::kDevVendor, b.dev_vendor.data(), 1, b.dev_vendor.size());
  emit(ColumnTag::kDevModel, b.dev_model.data(), 4, b.dev_model.size());
  emit(ColumnTag::kDevRole, b.dev_role.data(), 1, b.dev_role.size());
  emit(ColumnTag::kDevFirmware, b.dev_firmware.data(), 4, b.dev_firmware.size());
  emit(ColumnTag::kTktSeq, b.tkt_seq.data(), 8, b.tkt_seq.size());
  emit(ColumnTag::kTktId, b.tkt_id.data(), 4, b.tkt_id.size());
  emit(ColumnTag::kTktNetwork, b.tkt_network.data(), 4, b.tkt_network.size());
  emit(ColumnTag::kTktCreated, b.tkt_created.data(), 8, b.tkt_created.size());
  emit(ColumnTag::kTktResolved, b.tkt_resolved.data(), 8, b.tkt_resolved.size());
  emit(ColumnTag::kTktOrigin, b.tkt_origin.data(), 1, b.tkt_origin.size());
  emit(ColumnTag::kTktSymptom, b.tkt_symptom.data(), 4, b.tkt_symptom.size());
  emit(ColumnTag::kTktDeviceBegin, b.tkt_dev_begin.data(), 4, b.tkt_dev_begin.size());
  emit(ColumnTag::kTktDeviceCode, b.tkt_dev_code.data(), 4, b.tkt_dev_code.size());
  emit(ColumnTag::kSnapDevice, b.snap_device.data(), 4, b.snap_device.size());
  emit(ColumnTag::kSnapTime, b.snap_time.data(), 8, b.snap_time.size());
  emit(ColumnTag::kSnapLogin, b.snap_login.data(), 4, b.snap_login.size());
  emit(ColumnTag::kSnapTextBegin, b.snap_text_begin.data(), 8, b.snap_text_begin.size());
  emit(ColumnTag::kConfigBlob, b.config_blob.data(), 1, b.config_blob.size());

  pad8(buf);
  const std::uint64_t dir_offset = buf.size();
  for (const auto& e : dir) {
    append_u32(buf, e.tag);
    append_u32(buf, e.elem_size);
    append_u64(buf, e.offset);
    append_u64(buf, e.count);
  }
  {
    const auto count = static_cast<std::uint32_t>(dir.size());
    std::memcpy(buf.data() + 8, &dir_offset, sizeof dir_offset);
    std::memcpy(buf.data() + 16, &count, sizeof count);
  }
  const std::uint64_t fp = fnv1a_words(buf.data(), buf.size());
  append_u64(buf, fp);

  char name[32];
  std::snprintf(name, sizeof name, "shard-%05zu.mpac", shards_.size());
  write_binary_file(fs::path(dir_) / name, buf);

  MpacShardInfo info;
  info.file = name;
  info.bytes = buf.size();
  info.fingerprint = fp;
  info.networks = b.net_seq.size();
  info.devices = b.dev_seq.size();
  info.tickets = b.tkt_seq.size();
  info.snapshots = b.snap_device.size();
  shards_.push_back(std::move(info));
  totals_.shard_bytes += buf.size();
  ++totals_.shards;

  buf_ = std::make_unique<Buffers>();
}

MpacTotals ColumnarWriter::finish() {
  require(!finished_, "ColumnarWriter: finish called twice");
  flush_shard();
  finished_ = true;

  // Hand-written stream like every other exporter: field order is part
  // of the contract, and u64 fingerprints are emitted as bare decimals
  // so JsonValue::as_u64 reads them back exactly.
  std::ostringstream os;
  os << "{\n"
     << "  \"format\":\"mpac\",\n"
     << "  \"version\":" << kMpacVersion << ",\n"
     << "  \"networks\":" << totals_.networks << ",\n"
     << "  \"devices\":" << totals_.devices << ",\n"
     << "  \"tickets\":" << totals_.tickets << ",\n"
     << "  \"snapshots\":" << totals_.snapshots << ",\n"
     << "  \"config_bytes\":" << totals_.config_bytes << ",\n"
     << "  \"shards\":[";
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const auto& s = shards_[i];
    if (i != 0) os << ',';
    os << "\n    {\"file\":\"" << json_escape(s.file) << "\",\"bytes\":" << s.bytes
       << ",\"fingerprint\":" << s.fingerprint << ",\"networks\":" << s.networks
       << ",\"devices\":" << s.devices << ",\"tickets\":" << s.tickets
       << ",\"snapshots\":" << s.snapshots << '}';
  }
  os << (shards_.empty() ? "]\n" : "\n  ]\n") << "}\n";
  write_binary_file(fs::path(dir_) / kMpacManifestName, os.str());
  return totals_;
}

// ---------------------------------------------------------------------------
// ShardView

ShardView::ShardView(std::span<const std::byte> bytes, std::string file,
                     std::uint64_t expected_fingerprint)
    : bytes_(bytes), file_(std::move(file)) {
  require_data(bytes_.size() >= kHeaderBytes + kTrailerBytes,
               shard_err(file_, "truncated shard"));
  require_data(std::memcmp(bytes_.data(), kMpacMagic, sizeof kMpacMagic) == 0,
               shard_err(file_, "bad magic"));
  const std::uint32_t version = read_u32(bytes_, 4);
  require_data(version == kMpacVersion,
               shard_err(file_, "unsupported version " + std::to_string(version)));
  const std::uint64_t dir_offset = read_u64(bytes_, 8);
  const std::uint32_t dir_count = read_u32(bytes_, 16);
  const std::uint64_t payload_end = bytes_.size() - kTrailerBytes;
  // Bounds are compared as counts, never as summed offsets, so a huge
  // offset or count cannot wrap past them.
  require_data(dir_offset >= kHeaderBytes && dir_offset % 8 == 0 && dir_offset <= payload_end &&
                   dir_count <= (payload_end - dir_offset) / kDirEntryBytes,
               shard_err(file_, "truncated shard"));

  const std::uint64_t trailer = read_u64(bytes_, payload_end);
  const std::uint64_t actual = fnv1a_words(bytes_.data(), payload_end);
  require_data(actual == trailer && actual == expected_fingerprint,
               shard_err(file_, "fingerprint mismatch"));

  columns_.reserve(dir_count);
  for (std::uint32_t i = 0; i < dir_count; ++i) {
    const std::size_t at = dir_offset + static_cast<std::size_t>(i) * kDirEntryBytes;
    ColumnInfo info;
    info.tag = read_u32(bytes_, at);
    info.elem_size = read_u32(bytes_, at + 4);
    info.offset = read_u64(bytes_, at + 8);
    info.count = read_u64(bytes_, at + 16);
    const std::uint32_t want = expected_elem_size(info.tag);
    require_data(want != 0, shard_err(file_, "unknown column tag " + std::to_string(info.tag)));
    require_data(info.elem_size == want,
                 shard_err(file_, "wrong element size for column " + std::to_string(info.tag)));
    require_data(info.offset >= kHeaderBytes && info.offset % info.elem_size == 0 &&
                     info.offset <= dir_offset &&
                     info.count <= (dir_offset - info.offset) / info.elem_size,
                 shard_err(file_, "truncated column " + std::to_string(info.tag)));
    columns_.push_back(info);
  }
  std::sort(columns_.begin(), columns_.end(),
            [](const ColumnInfo& a, const ColumnInfo& b) { return a.tag < b.tag; });
  for (std::size_t i = 1; i < columns_.size(); ++i)
    require_data(columns_[i - 1].tag != columns_[i].tag,
                 shard_err(file_, "duplicate column tag " + std::to_string(columns_[i].tag)));
  for (const auto& [tag, size] : kColumns)
    require_data(column(tag) != nullptr,
                 shard_err(file_, "missing column " +
                                      std::to_string(static_cast<std::uint32_t>(tag))));

  // Cross-column structure: record columns agree on counts and every
  // begin/offset array is a valid prefix-sum over its target.
  const auto want_count = [&](ColumnTag tag, std::uint64_t n) {
    require_data(require_column(tag).count == n,
                 shard_err(file_, "column count mismatch for column " +
                                      std::to_string(static_cast<std::uint32_t>(tag))));
  };
  const std::uint64_t nets = require_column(ColumnTag::kNetSeq).count;
  want_count(ColumnTag::kNetId, nets);
  want_count(ColumnTag::kNetWorkloadBegin, nets + 1);
  const std::uint64_t devs = require_column(ColumnTag::kDevSeq).count;
  for (const ColumnTag t : {ColumnTag::kDevId, ColumnTag::kDevNetwork, ColumnTag::kDevVendor,
                            ColumnTag::kDevModel, ColumnTag::kDevRole, ColumnTag::kDevFirmware})
    want_count(t, devs);
  const std::uint64_t tkts = require_column(ColumnTag::kTktSeq).count;
  for (const ColumnTag t : {ColumnTag::kTktId, ColumnTag::kTktNetwork, ColumnTag::kTktCreated,
                            ColumnTag::kTktResolved, ColumnTag::kTktOrigin,
                            ColumnTag::kTktSymptom})
    want_count(t, tkts);
  want_count(ColumnTag::kTktDeviceBegin, tkts + 1);
  const std::uint64_t snaps = require_column(ColumnTag::kSnapDevice).count;
  want_count(ColumnTag::kSnapTime, snaps);
  want_count(ColumnTag::kSnapLogin, snaps);
  want_count(ColumnTag::kSnapTextBegin, snaps + 1);
  require_data(require_column(ColumnTag::kDictOffsets).count >= 1,
               shard_err(file_, "empty dictionary offsets"));

  const auto check_begins_u32 = [&](ColumnTag tag, std::uint64_t target) {
    const auto begins = u32s(tag);
    require_data(!begins.empty() && begins.front() == 0 && begins.back() == target,
                 shard_err(file_, "corrupt offsets in column " +
                                      std::to_string(static_cast<std::uint32_t>(tag))));
    for (std::size_t i = 1; i < begins.size(); ++i)
      require_data(begins[i - 1] <= begins[i], [&] {
        return shard_err(file_, "corrupt offsets in column " +
                                    std::to_string(static_cast<std::uint32_t>(tag)));
      });
  };
  const auto check_begins_u64 = [&](ColumnTag tag, std::uint64_t target) {
    const auto begins = u64s(tag);
    require_data(!begins.empty() && begins.front() == 0 && begins.back() == target,
                 shard_err(file_, "corrupt offsets in column " +
                                      std::to_string(static_cast<std::uint32_t>(tag))));
    for (std::size_t i = 1; i < begins.size(); ++i)
      require_data(begins[i - 1] <= begins[i], [&] {
        return shard_err(file_, "corrupt offsets in column " +
                                    std::to_string(static_cast<std::uint32_t>(tag)));
      });
  };
  check_begins_u64(ColumnTag::kDictOffsets, require_column(ColumnTag::kDictBlob).count);
  check_begins_u32(ColumnTag::kNetWorkloadBegin,
                   require_column(ColumnTag::kNetWorkloadCode).count);
  check_begins_u32(ColumnTag::kTktDeviceBegin, require_column(ColumnTag::kTktDeviceCode).count);
  check_begins_u64(ColumnTag::kSnapTextBegin, require_column(ColumnTag::kConfigBlob).count);
}

const ShardView::ColumnInfo* ShardView::column(ColumnTag tag) const {
  const auto want = static_cast<std::uint32_t>(tag);
  const auto it = std::lower_bound(
      columns_.begin(), columns_.end(), want,
      [](const ColumnInfo& c, std::uint32_t t) { return c.tag < t; });
  return (it != columns_.end() && it->tag == want) ? &*it : nullptr;
}

const ShardView::ColumnInfo& ShardView::require_column(ColumnTag tag) const {
  const ColumnInfo* c = column(tag);
  require(c != nullptr, [&] { return shard_err(file_, "column accessed before validation"); });
  return *c;
}

std::span<const std::uint64_t> ShardView::u64s(ColumnTag tag) const {
  const ColumnInfo& c = require_column(tag);
  return {reinterpret_cast<const std::uint64_t*>(bytes_.data() + c.offset), c.count};
}

std::span<const std::int64_t> ShardView::i64s(ColumnTag tag) const {
  const ColumnInfo& c = require_column(tag);
  return {reinterpret_cast<const std::int64_t*>(bytes_.data() + c.offset), c.count};
}

std::span<const std::uint32_t> ShardView::u32s(ColumnTag tag) const {
  const ColumnInfo& c = require_column(tag);
  return {reinterpret_cast<const std::uint32_t*>(bytes_.data() + c.offset), c.count};
}

std::span<const std::uint8_t> ShardView::u8s(ColumnTag tag) const {
  const ColumnInfo& c = require_column(tag);
  return {reinterpret_cast<const std::uint8_t*>(bytes_.data() + c.offset), c.count};
}

std::string_view ShardView::dict(std::uint32_t code) const {
  const auto offsets = u64s(ColumnTag::kDictOffsets);
  require_data(static_cast<std::size_t>(code) + 1 < offsets.size(),
               [&] { return shard_err(file_, "dictionary index out of range"); });
  const auto blob = u8s(ColumnTag::kDictBlob);
  return {reinterpret_cast<const char*>(blob.data()) + offsets[code],
          static_cast<std::size_t>(offsets[code + 1] - offsets[code])};
}

std::string_view ShardView::config_text(std::size_t i) const {
  const auto begins = u64s(ColumnTag::kSnapTextBegin);
  require(i + 1 < begins.size(), [&] { return shard_err(file_, "config_text row out of range"); });
  const auto blob = u8s(ColumnTag::kConfigBlob);
  return {reinterpret_cast<const char*>(blob.data()) + begins[i],
          static_cast<std::size_t>(begins[i + 1] - begins[i])};
}

// ---------------------------------------------------------------------------
// Dataset-level load / save / verify

bool is_columnar_dir(const std::string& dir) {
  return fs::exists(fs::path(dir) / kMpacManifestName);
}

MpacTotals save_columnar(const DiskDataset& data, const std::string& dir,
                         ColumnarWriteOptions opts) {
  ColumnarWriter w(dir, opts);
  for (const auto& net : data.inventory.networks()) w.add_network(net);
  for (const auto& dev : data.inventory.devices()) w.add_device(dev);
  for (const auto& t : data.tickets.all()) w.add_ticket(t);
  // Snapshots go network by network in inventory order, each network's
  // devices in id order: the only order a streaming writer, which sees
  // one network at a time, can produce. So a streamed dataset and its
  // batch conversion are the same bytes.
  std::uint64_t written = 0;
  for (const auto& net : data.inventory.networks()) {
    std::vector<const DeviceRecord*> devices = data.inventory.devices_in(net.network_id);
    std::sort(devices.begin(), devices.end(), [](const DeviceRecord* a, const DeviceRecord* b) {
      return a->device_id < b->device_id;
    });
    for (const DeviceRecord* dev : devices)
      for (const auto& snap : data.snapshots.for_device(dev->device_id)) {
        w.add_snapshot(snap);
        ++written;
      }
  }
  require(written == data.snapshots.total_snapshots(),
          "save_columnar: a snapshot's device is not in the inventory");
  return w.finish();
}

ColumnarDataset load_columnar(const std::string& dir) {
  const fs::path base(dir);
  const fs::path manifest_path = base / kMpacManifestName;
  const std::string manifest_text = read_text_file(manifest_path);
  const JsonValue doc = parse_json(manifest_text);
  const JsonFields f(doc, "mpac: manifest");

  require_data(f.get<std::string>("format") == "mpac", "mpac: manifest format is not mpac");
  const auto version = f.get<std::uint64_t>("version");
  require_data(version == kMpacVersion,
               "mpac: unsupported version " + std::to_string(version) + " in manifest");

  ColumnarDataset out;
  out.totals_.networks = f.get<std::uint64_t>("networks");
  out.totals_.devices = f.get<std::uint64_t>("devices");
  out.totals_.tickets = f.get<std::uint64_t>("tickets");
  out.totals_.snapshots = f.get<std::uint64_t>("snapshots");
  out.totals_.config_bytes = f.get<std::uint64_t>("config_bytes");
  out.bytes_read_ = manifest_text.size();

  for (const JsonValue& s : doc.at("shards").as_array()) {
    const JsonFields shard(s, "mpac: manifest shard");
    MpacShardInfo info;
    info.file = shard.get<std::string>("file");
    info.bytes = shard.get<std::uint64_t>("bytes");
    info.fingerprint = shard.get<std::uint64_t>("fingerprint");
    info.networks = shard.get<std::uint64_t>("networks");
    info.devices = shard.get<std::uint64_t>("devices");
    info.tickets = shard.get<std::uint64_t>("tickets");
    info.snapshots = shard.get<std::uint64_t>("snapshots");

    auto map = std::make_shared<const MappedFile>((base / info.file).string());
    require_data(map->bytes().size() == info.bytes,
                 shard_err(info.file, "truncated shard (expected " + std::to_string(info.bytes) +
                                          " bytes, found " +
                                          std::to_string(map->bytes().size()) + ")"));
    ShardView view(map->bytes(), info.file, info.fingerprint);
    require_data(view.num_networks() == info.networks && view.num_devices() == info.devices &&
                     view.num_tickets() == info.tickets && view.num_snapshots() == info.snapshots,
                 shard_err(info.file, "record counts disagree with manifest"));
    out.bytes_read_ += info.bytes;
    out.totals_.shard_bytes += info.bytes;
    ++out.totals_.shards;
    out.maps_.push_back(std::move(map));
    out.views_.push_back(std::move(view));
    out.infos_.push_back(std::move(info));
  }

  std::uint64_t nets = 0, devs = 0, tkts = 0, snaps = 0;
  for (const auto& i : out.infos_) {
    nets += i.networks;
    devs += i.devices;
    tkts += i.tickets;
    snaps += i.snapshots;
  }
  require_data(nets == out.totals_.networks && devs == out.totals_.devices &&
                   tkts == out.totals_.tickets && snaps == out.totals_.snapshots,
               "mpac: shard totals disagree with manifest");
  return out;
}

// Decodes every record in container order: sequence numbers, dictionary
// and enum codes, then the RecordChecker. Snapshot text is not copied:
// each text aliases its shard's mapping and shares ownership of it.
DiskDataset ColumnarDataset::to_disk_dataset() const {
  DiskDataset out;
  out.inventory.reserve(totals_.networks, totals_.devices);
  out.tickets.reserve(totals_.tickets);
  RecordChecker check(out.inventory, "mpac");

  const auto begin_shard = [&](const ShardView& v, ColumnTag seq_tag, std::uint64_t& expect,
                               const char* what) {
    check.set_source("mpac: " + v.file());
    for (const std::uint64_t s : v.u64s(seq_tag)) {
      require_data(s == expect, [&] {
        return shard_err(v.file(),
                         std::string("out-of-order ") + what + " record " + std::to_string(s));
      });
      ++expect;
    }
  };

  std::uint64_t seq = 0;
  for (const ShardView& v : views_) {
    begin_shard(v, ColumnTag::kNetSeq, seq, "network");
    const auto ids = v.u32s(ColumnTag::kNetId);
    const auto wl_begin = v.u32s(ColumnTag::kNetWorkloadBegin);
    const auto wl_code = v.u32s(ColumnTag::kNetWorkloadCode);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      NetworkRecord net;
      net.network_id = std::string(v.dict(ids[i]));
      net.workloads.reserve(wl_begin[i + 1] - wl_begin[i]);
      for (std::uint32_t w = wl_begin[i]; w < wl_begin[i + 1]; ++w) {
        Workload wl;
        wl.name = std::string(v.dict(wl_code[w]));
        net.workloads.push_back(std::move(wl));
      }
      check.check_network(net);
      out.inventory.add_network(std::move(net));
    }
  }

  seq = 0;
  for (const ShardView& v : views_) {
    begin_shard(v, ColumnTag::kDevSeq, seq, "device");
    const auto ids = v.u32s(ColumnTag::kDevId);
    const auto nets = v.u32s(ColumnTag::kDevNetwork);
    const auto vendors = v.u8s(ColumnTag::kDevVendor);
    const auto models = v.u32s(ColumnTag::kDevModel);
    const auto roles = v.u8s(ColumnTag::kDevRole);
    const auto firmwares = v.u32s(ColumnTag::kDevFirmware);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      require_data(vendors[i] < kNumVendors, [&] {
        return shard_err(v.file(), "bad vendor code " + std::to_string(vendors[i]));
      });
      require_data(roles[i] < kNumRoles, [&] {
        return shard_err(v.file(), "bad role code " + std::to_string(roles[i]));
      });
      DeviceRecord d;
      d.device_id = std::string(v.dict(ids[i]));
      d.network_id = std::string(v.dict(nets[i]));
      d.vendor = static_cast<Vendor>(vendors[i]);
      d.model = std::string(v.dict(models[i]));
      d.role = static_cast<Role>(roles[i]);
      d.firmware = std::string(v.dict(firmwares[i]));
      check.check_device(d);
      out.inventory.add_device(std::move(d));
    }
  }

  seq = 0;
  for (const ShardView& v : views_) {
    begin_shard(v, ColumnTag::kTktSeq, seq, "ticket");
    const auto ids = v.u32s(ColumnTag::kTktId);
    const auto nets = v.u32s(ColumnTag::kTktNetwork);
    const auto created = v.i64s(ColumnTag::kTktCreated);
    const auto resolved = v.i64s(ColumnTag::kTktResolved);
    const auto origins = v.u8s(ColumnTag::kTktOrigin);
    const auto symptoms = v.u32s(ColumnTag::kTktSymptom);
    const auto dev_begin = v.u32s(ColumnTag::kTktDeviceBegin);
    const auto dev_code = v.u32s(ColumnTag::kTktDeviceCode);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      require_data(origins[i] <= static_cast<std::uint8_t>(TicketOrigin::kMaintenance), [&] {
        return shard_err(v.file(), "bad origin code " + std::to_string(origins[i]));
      });
      Ticket t;
      t.ticket_id = std::string(v.dict(ids[i]));
      t.network_id = std::string(v.dict(nets[i]));
      t.created = created[i];
      t.resolved = resolved[i];
      t.origin = static_cast<TicketOrigin>(origins[i]);
      t.symptom = std::string(v.dict(symptoms[i]));
      t.devices.reserve(dev_begin[i + 1] - dev_begin[i]);
      for (std::uint32_t d = dev_begin[i]; d < dev_begin[i + 1]; ++d)
        t.devices.emplace_back(v.dict(dev_code[d]));
      check.check_ticket(t);
      out.tickets.add(std::move(t));
    }
  }

  for (std::size_t k = 0; k < views_.size(); ++k) {
    const ShardView& v = views_[k];
    check.set_source("mpac: " + v.file());
    const auto devices = v.u32s(ColumnTag::kSnapDevice);
    const auto times = v.i64s(ColumnTag::kSnapTime);
    const auto logins = v.u32s(ColumnTag::kSnapLogin);
    for (std::size_t i = 0; i < devices.size(); ++i) {
      const std::string_view device = v.dict(devices[i]);
      const std::string_view login = v.dict(logins[i]);
      check.check_snapshot(device, times[i], login);
      out.snapshots.add(ConfigSnapshot{std::string(device), times[i], std::string(login),
                                       SharedText::alias(maps_[k], v.config_text(i))});
    }
  }
  return out;
}

std::string verify_columnar(const std::string& dir) {
  const ColumnarDataset data = load_columnar(dir);
  data.to_disk_dataset();  // Every record check; the containers are dropped.

  const MpacTotals& t = data.totals();
  std::ostringstream os;
  os << "mpac dataset: " << dir << "\n"
     << "  shards      " << t.shards << "\n"
     << "  networks    " << t.networks << "\n"
     << "  devices     " << t.devices << "\n"
     << "  tickets     " << t.tickets << "\n"
     << "  snapshots   " << t.snapshots << "\n"
     << "  config      " << t.config_bytes << " bytes\n"
     << "  total       " << data.total_bytes() << " bytes\n";
  for (const auto& s : data.shard_infos()) {
    char fp[24];
    std::snprintf(fp, sizeof fp, "%016llx", static_cast<unsigned long long>(s.fingerprint));
    os << "  " << s.file << "  OK  fingerprint " << fp << "  " << s.bytes << " bytes\n";
  }
  return os.str();
}

}  // namespace mpa
