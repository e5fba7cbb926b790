// Persistent artifact store for the engine: named derived artifacts
// (inferred case tables and lint reports, as CSV) written under a
// cache directory so they survive process restarts. This is the store
// the benches use to share one expensive 850x17 case table across ~25
// binaries, and the AnalysisSession uses to skip re-inference when a
// keyed session is reconstructed over the same data.
//
// Thread safety (DESIGN.md §12): the store holds no mutable state —
// dir_ is fixed at construction and every method is const, so a store
// is safe to share across threads without locks. Concurrent writers
// to the SAME key are serialized by the filesystem, not by us; the
// engine's session-per-key ownership (SessionManager) makes that case
// a non-event, and a torn read is treated as a cache miss by design.
#pragma once

#include <optional>
#include <string>

#include "engine/lint_report.hpp"
#include "metrics/case_table.hpp"

namespace mpa {

class ArtifactStore {
 public:
  /// A disabled store: every load misses, every save is a no-op.
  ArtifactStore() = default;

  /// Store rooted at `dir` (must already exist; /tmp-style caches).
  explicit ArtifactStore(std::string dir) : dir_(std::move(dir)) {}

  bool enabled() const { return !dir_.empty(); }

  /// Where the artifact for `key` lives (key + ".csv" under dir).
  std::string path_for(const std::string& key) const;

  /// Load a previously saved case table; nullopt when the store is
  /// disabled, the artifact is absent, or its content is corrupt
  /// (corrupt artifacts are treated as misses, never as errors).
  std::optional<CaseTable> load_case_table(const std::string& key) const;

  /// Persist a case table under `key`. Returns false when the store
  /// is disabled or the write fails.
  bool save_case_table(const std::string& key, const CaseTable& table) const;

  /// Load a saved lint report (stored under key + ".lint.csv");
  /// nullopt on disabled store, absence, or corruption.
  std::optional<LintReport> load_lint_report(const std::string& key) const;

  /// Persist a lint report under `key`. Returns false when the store
  /// is disabled or the write fails.
  bool save_lint_report(const std::string& key, const LintReport& report) const;

  /// Load the raw run-manifest JSON saved beside the artifacts for
  /// `key` (<key>.manifest.json); nullopt on disabled store or
  /// absence. Parsing stays with RunManifest::from_json.
  std::optional<std::string> load_manifest_json(const std::string& key) const;

  /// Persist a session's run manifest beside its artifacts. Returns
  /// false when the store is disabled or the write fails.
  bool save_manifest_json(const std::string& key, const std::string& json) const;

  /// Delete the artifacts for `key`, including its manifest (the stale
  /// sweep of AnalysisSession::append_month).
  void remove(const std::string& key) const;

 private:
  std::string dir_;
};

}  // namespace mpa
