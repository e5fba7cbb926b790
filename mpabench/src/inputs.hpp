// Generated inputs, cached under .bench_cache/ in the directory the
// benchmark runs from and keyed by (networks, months, seed). An entry
// is verified before reuse — mpac shards through load_columnar's
// fingerprint checks, month deltas by loading them, the case table by
// its digest and the artifact store's run manifest — and regenerated
// on any mismatch. Generation time is reported on stderr and never
// counted as set-up.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mpabench {

/// What a generated dataset is made of: `networks` networks of
/// `months` months drawn by generate_osp_stream from `seed`. The
/// generator's network sizes are heavy-tailed enough that one network
/// can outweigh the other 199 together (a single 2 GB archive among 200
/// networks occurs), which would make every timing a function of the
/// seed's luck. So the benchmark skips networks whose archive exceeds
/// kNetworkCapMb and paces the rest (kPacing): the network count fixes
/// the case-table size, the paced totals fix the inference and ingest
/// work.
struct InputKey {
  int networks = 0;
  int months = 0;
  std::uint64_t seed = 0;

  std::string tag() const;  ///< "n200-m17-s42-<pacing>"
};

/// The dataset shape every workload uses (README.md).
inline constexpr int kNetworks = 200;
inline constexpr int kMonths = 17;
inline InputKey dataset_key(std::uint64_t seed) { return InputKey{kNetworks, kMonths, seed}; }

/// Snapshot archives larger than this are skipped.
inline constexpr int kNetworkCapMb = 6;

/// Per-network targets the kept networks are paced against: a network
/// is kept only while each running total stays within its pro-rata
/// share plus one network's worth. Most networks are small, so they
/// leave room for the occasional large one, and each total ends near
/// its target. The targets sit below the generator's own means so the
/// pacing binds on every seed.
struct Pacing {
  double config_mb = 0.8;       ///< Config text over all months.
  double late_config_mb = 0.25; ///< Config text from month kLateMonth on.
  double devices = 12;
};
inline constexpr Pacing kPacing{};
/// The first month the serve workload ingests as a delta; its volume is
/// paced so that ingest work is steady too.
inline constexpr int kLateMonth = 11;

/// Root of the input cache (created on demand).
std::string cache_root();

/// An mpac dataset streamed from generate_osp_stream through
/// ColumnarWriter. Returns its directory.
std::string ensure_dataset(const InputKey& key);

/// The dataset split at `first_delta_month`: an mpac base holding the
/// earlier months and one month-delta directory per later month.
struct SplitInputs {
  std::string base;
  std::vector<std::string> deltas;  ///< Ascending month order.
};
SplitInputs ensure_split(const InputKey& key, int first_delta_month);

/// The inferred case table of the dataset, persisted in an
/// ArtifactStore. `store_dir` and `artifact_key` locate it.
struct StoredTable {
  std::string store_dir;
  std::string artifact_key;
  std::string csv_digest;  ///< digest() of the table's CSV.
};
StoredTable ensure_case_table(const InputKey& key);

}  // namespace mpabench
