// AnalysisSession: the engine layer that owns the paper's pipeline.
//
// A session wraps the three raw data sources (inventory, snapshot
// archive, ticket log) and serves every derived artifact behind a
// memoizing cache (append_month maintains or drops each one):
//
//   case_table()    the inferred (network, month) case table (§2),
//                   optionally persisted through an ArtifactStore
//   lint()          rule-engine lint findings over each network's
//                   latest snapshots (config/lint.hpp)
//   dependence()    MI / CMI rankings (§5.1, Tables 3-4)
//   causal(p)       matched-design QED per practice (§5.2, Tables 5-8)
//   evaluate_cv()   cross-validated model evaluation (§6.1, Figure 8)
//   online_accuracy() the online month-ahead protocol (§6.2, Table 9)
//
// All stages execute on one shared ThreadPool (MPA_THREADS override;
// fan-out per network / comparison point / fold / month), and every
// randomized artifact draws a private RNG stream derived from the
// session seed and the artifact's identity — so results are
// bit-identical at any thread count and independent of the order in
// which artifacts are requested.
//
// A session is single-owner for *stage* calls: one thread of control
// requests artifacts at a time (SessionManager enforces this for the
// serving layer); the parallelism lives inside the stages, not across
// them. The observation surface is wider: stats() and manifest() are
// safe to call from other threads concurrently with a running stage —
// both snapshot under an internal mutex (DESIGN.md §11).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/artifact_store.hpp"
#include "engine/run_manifest.hpp"
#include "io/dataset_io.hpp"
#include "metrics/inference.hpp"
#include "mpa/causal.hpp"
#include "mpa/dependence.hpp"
#include "mpa/modeling.hpp"
#include "util/parallel.hpp"
#include "util/sync.hpp"

namespace mpa {

struct SessionOptions {
  InferenceOptions inference = {};
  CausalOptions causal = {};
  /// Root of every model RNG stream: each derived artifact is a pure
  /// function of (data, options, seed).
  std::uint64_t seed = 42;
  /// Worker threads for every stage; 0 = MPA_THREADS env override,
  /// falling back to the hardware concurrency.
  int threads = 0;
  /// Directory for persistent artifacts (empty = in-memory only).
  std::string artifact_dir;
  /// Key the case table persists under (empty = don't persist). The
  /// caller is responsible for keying by dataset identity (the
  /// benches key by shape + seed).
  std::string artifact_key;
};

class AnalysisSession {
 public:
  AnalysisSession(Inventory inventory, SnapshotStore snapshots, TicketLog tickets,
                  SessionOptions opts = {});
  /// Moving is only valid while no other thread is touching `other`
  /// (the stats mutex itself is not moved — the new session gets a
  /// fresh one). The moved-from shell destructs as a no-op. Exempt
  /// from the thread-safety analysis: the single-owner transfer
  /// contract is the caller's, and other.stats_mu_ is deliberately
  /// not taken (nobody else may hold it here by definition).
  AnalysisSession(AnalysisSession&& other) noexcept NO_THREAD_SAFETY_ANALYSIS;

  /// Publishes the pool's execution counters to the obs registry
  /// (when obs::enabled()) before tearing the pool down; keyed
  /// sessions also persist their run manifest beside the artifact
  /// store entries, and instrumented sessions publish it through
  /// last_run_manifest() for the CLI.
  ~AnalysisSession();

  /// Open a session over a dataset directory (io/dataset_io.hpp
  /// format). The observation-window length is implied by the data —
  /// the last month touched by any ticket or snapshot — overriding
  /// opts.inference.num_months.
  static AnalysisSession from_directory(const std::string& dir, SessionOptions opts = {});

  const Inventory& inventory() const { return inventory_; }
  const SnapshotStore& snapshots() const { return snapshots_; }
  const TicketLog& tickets() const { return tickets_; }
  const SessionOptions& options() const { return opts_; }
  int num_months() const { return opts_.inference.num_months; }

  /// The shared pool every stage runs on (size >= 1).
  ThreadPool& pool() { return *pool_; }
  int threads() const { return pool_->size(); }

  /// The inferred case table. Memoized; when the session is keyed,
  /// loads from / saves to the artifact store.
  const CaseTable& case_table();

  /// Lint findings over each network's latest config snapshots, with
  /// source spans and pragmas honored. Fanned out per network on the
  /// session pool; memoized, and persisted like the case table when
  /// the session is keyed. Rule selection comes from
  /// options().inference.lint.
  const LintReport& lint();

  /// MI / CMI dependence rankings over the case table. Memoized.
  const DependenceAnalysis& dependence();

  /// Matched-design QED for one treatment practice. Memoized per
  /// practice.
  const CausalResult& causal(Practice treatment);

  /// Cross-validated evaluation of one model kind. Memoized per
  /// (kind, num_classes); the RNG stream is derived from the session
  /// seed and the key, so the result does not depend on what else the
  /// session computed before.
  const EvalResult& evaluate_cv(int num_classes, ModelKind kind);

  /// Online month-ahead accuracy (not memoized — cheap relative to
  /// its parameter space, but still deterministic per parameter set).
  double online_accuracy(int num_classes, int history_m, ModelKind kind, int first_t,
                         int last_t);

  /// What one append_month call did — how much data was ingested and
  /// which derived artifacts were maintained in place rather than
  /// dropped for lazy recomputation.
  struct AppendResult {
    int month = 0;            ///< The month that was appended.
    std::size_t snapshots = 0;  ///< Snapshot records ingested.
    std::size_t tickets = 0;    ///< Ticket records ingested.
    std::size_t new_rows = 0;   ///< Case rows added to the live table.
    /// The memoized case table was extended with the new month's rows
    /// (false when no table was resident — nothing to extend).
    bool table_incremental = false;
    /// The lint report was patched for the networks the delta touched.
    bool lint_incremental = false;
  };

  /// Append one month of telemetry to the live dataset and maintain
  /// the derived state incrementally — O(delta), not O(history):
  ///
  ///   - the case table gains the new month's rows only, computed from
  ///     each device's snapshot suffix (infer_case_table_tail);
  ///   - the lint report is re-linted only for networks whose devices
  ///     produced new snapshots (latest-snapshot semantics);
  ///   - the dependence rankings, causal and CV artifacts depend on
  ///     every row with no sound additive form (the dependence bin
  ///     bounds are percentiles of the whole table, which almost every
  ///     month moves), so they are dropped for lazy recomputation.
  ///
  /// Every maintained artifact is bit-identical to what a from-scratch
  /// session over the merged data would compute. Throws DataError when
  /// `delta.month != num_months()` (out-of-order months are rejected by
  /// name), when a record's timestamp falls outside the month, when a
  /// snapshot names an unknown device or a ticket an unknown network,
  /// when a ticket resolves before it was created, or when a snapshot
  /// header token is empty or contains whitespace (the dataset-io
  /// validation, applied to in-memory deltas too). On throw the session
  /// is unchanged. Stage calls are single-owner like every other stage
  /// (the serving layer routes ingest through SessionManager).
  AppendResult append_month(const MonthDelta& delta) EXCLUDES(stats_mu_);

  /// Cache observability (tests + tooling): counts over the manifest's
  /// stage records by (stage, source). Each record also bumps its
  /// mpa_session_* counter in the process-wide obs registry whenever
  /// obs::enabled(); the registry adds stage wall-time histograms and
  /// trace spans on top (DESIGN.md §8).
  struct CacheStats {
    std::size_t hits = 0;          ///< Requests served from memory.
    std::size_t table_builds = 0;  ///< infer_case_table executions.
    std::size_t table_loads = 0;   ///< Case tables read from the store.
    std::size_t lint_runs = 0;     ///< Lint fan-outs executed.
    std::size_t lint_loads = 0;    ///< Lint reports read from the store.
    std::size_t causal_runs = 0;
    std::size_t cv_runs = 0;
    std::size_t online_runs = 0;   ///< online_accuracy evaluations.
    std::size_t appends = 0;       ///< append_month ingestions.
  };
  /// Snapshot taken under the stats mutex — safe to call from any
  /// thread, including concurrently with a stage executing on another
  /// (the serving layer polls a session mid-request).
  CacheStats stats() const EXCLUDES(stats_mu_);

  /// The run's provenance manifest so far: dataset fingerprint (FNV-1a
  /// over all three data sources, computed once per data generation),
  /// seed, thread count, every stage request with wall time and cache
  /// disposition, cache stats (the same projection stats() returns),
  /// and — when obs::enabled() — the current obs counter snapshot.
  /// Keyed sessions persist this JSON beside their artifacts on
  /// destruction (engine/run_manifest.hpp).
  RunManifest manifest() const EXCLUDES(stats_mu_);

 private:
  /// The single writer of stage records: one RAII scope per stage
  /// request appends its StageRun, emits its "stage" log event, bumps
  /// its counter, and — for computed stages — owns the stage span and
  /// histogram sample (session.cpp).
  class StageScope;

  /// Private RNG stream for one artifact identity.
  Rng stream_for(std::uint64_t tag) const;

  /// Re-lint the networks at `indices` (inventory order) into `report`
  /// on the session pool, one `<stage>/network` span each.
  void lint_networks(LintReport& report, const std::vector<std::size_t>& indices);

  /// The cached dataset fingerprint, computed on first use.
  std::uint64_t fingerprint() const EXCLUDES(stats_mu_);

  Inventory inventory_;
  SnapshotStore snapshots_;
  TicketLog tickets_;
  SessionOptions opts_;
  ArtifactStore store_;
  std::unique_ptr<ThreadPool> pool_;

  std::optional<CaseTable> table_;
  std::optional<LintReport> lint_;
  std::optional<DependenceAnalysis> dependence_;
  std::map<Practice, CausalResult> causal_;
  std::optional<LogPractices> causal_logs_;  ///< Built with the first causal_ entry.
  std::map<std::pair<int, int>, EvalResult> cv_;  ///< (kind, classes).
  /// Guards stage_runs_ and fingerprint_ so stats() / manifest() are
  /// safe under concurrent readers while a stage runs. Taken a handful
  /// of times per stage request — never on a kernel hot path.
  mutable Mutex stats_mu_;
  /// Every stage request in request order — the one record stats(),
  /// the manifest's stages and cache map all read.
  std::vector<StageRun> stage_runs_ GUARDED_BY(stats_mu_);
  /// Lazy; reset with the data.
  mutable std::optional<std::uint64_t> fingerprint_ GUARDED_BY(stats_mu_);
};

}  // namespace mpa
