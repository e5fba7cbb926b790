#include "engine/session.hpp"

#include <algorithm>
#include <exception>
#include <numeric>
#include <set>
#include <string_view>

#include "config/dialect.hpp"
#include "io/dataset_io.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "telemetry/time.hpp"

namespace mpa {
namespace {

/// splitmix64 finalizer — decorrelates artifact tags into seeds.
std::uint64_t mix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// How a stage request was served; StageRun::source holds its name.
enum class StageSource : std::uint8_t { kMemo, kStore, kComputed };

const char* source_name(StageSource source) {
  static constexpr const char* kNames[] = {"memo", "store", "computed"};
  return kNames[static_cast<int>(source)];
}

/// What one (stage, source) record counts as: a CacheStats field, named
/// `key` in the manifest's cache map, and its mpa_session_* counter. A
/// null stage matches every stage; a record with no row (a computed
/// dependence) counts nowhere.
struct StageCount {
  const char* stage;
  StageSource source;
  const char* key;
  std::size_t AnalysisSession::CacheStats::*field;
  const char* counter;
};

using Stats = AnalysisSession::CacheStats;
constexpr StageCount kStageCounts[] = {
    {nullptr, StageSource::kMemo, "hits", &Stats::hits, "mpa_session_memo_hits_total"},
    {"case_table", StageSource::kComputed, "table_builds", &Stats::table_builds,
     "mpa_session_table_builds_total"},
    {"case_table", StageSource::kStore, "table_loads", &Stats::table_loads,
     "mpa_session_table_loads_total"},
    {"lint", StageSource::kComputed, "lint_runs", &Stats::lint_runs,
     "mpa_session_lint_runs_total"},
    {"lint", StageSource::kStore, "lint_loads", &Stats::lint_loads,
     "mpa_session_lint_loads_total"},
    {"causal", StageSource::kComputed, "causal_runs", &Stats::causal_runs,
     "mpa_session_causal_runs_total"},
    {"cv", StageSource::kComputed, "cv_runs", &Stats::cv_runs, "mpa_session_cv_runs_total"},
    {"online", StageSource::kComputed, "online_runs", &Stats::online_runs,
     "mpa_session_online_runs_total"},
    {"append", StageSource::kComputed, "appends", &Stats::appends, "mpa_session_appends_total"},
};

const StageCount* count_of(std::string_view stage, std::string_view source) {
  for (const StageCount& c : kStageCounts)
    if ((c.stage == nullptr || c.stage == stage) && source_name(c.source) == source) return &c;
  return nullptr;
}

/// CacheStats projected from the stage record.
Stats count_stages(const std::vector<StageRun>& runs) {
  Stats s;
  for (const StageRun& run : runs)
    if (const StageCount* c = count_of(run.stage, run.source)) ++(s.*c->field);
  return s;
}

/// The wall-time histogram a computed stage observes.
std::string stage_histogram(std::string_view stage) {
  return stage == "append" ? "mpa_ingest_seconds" : "mpa_stage_seconds_" + std::string(stage);
}

/// Pre-register the engine's full metric schema so every export
/// contains the same names, including zero-valued ones — consumers
/// (the CI schema check, dashboards) never see a shifting key set.
void register_engine_metrics() {
  auto& reg = obs::Registry::global();
  for (const StageCount& c : kStageCounts) reg.counter(c.counter);
  for (const char* name :
       {"mpa_session_cmi_pairs_total",
        "mpa_artifact_store_hits_total", "mpa_artifact_store_misses_total",
        "mpa_artifact_store_saves_total", "mpa_pool_jobs_total", "mpa_pool_tasks_total",
        "mpa_pool_inline_jobs_total", "mpa_pool_worker_joins_total",
        "mpa_pool_queue_wait_ns_total", "mpa_dataset_load_bytes_total"}) {
    reg.counter(name);
  }
  for (const char* name : kInferLayerCounters) reg.counter(name);
  for (const char* stage : {"case_table", "lint", "dependence", "causal", "cv", "online", "append"})
    reg.histogram(stage_histogram(stage));
  reg.histogram("mpa_dependence_pair_seconds");
  reg.histogram("mpa_dataset_load_seconds");
}

}  // namespace

/// Opened once per stage request; on close it writes every record of
/// that request: the StageRun, the "stage" log event, and the (stage,
/// source) counter. A computed scope also owns the stage span and reads
/// the clock once at open and once at close — that one interval is both
/// the stage histogram sample and StageRun::seconds. A store scope is
/// timed the same way without span or histogram; a memo scope reads no
/// clock. A scope unwound by an exception records nothing but its span.
class AnalysisSession::StageScope {
 public:
  StageScope(AnalysisSession& session, const char* stage, StageSource source)
      : session_(session), stage_(stage), source_(source) {
    if (source == StageSource::kComputed) span_.emplace(stage);
    if (source != StageSource::kMemo) t0_ns_ = obs::now_ns();
  }
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

  /// A store probe that missed: the computed scope that follows holds
  /// the request's record.
  void dismiss() { dismissed_ = true; }

  /// noexcept(false): a record that fails to allocate reaches the
  /// stage's caller. It cannot throw during unwinding — that returns
  /// first.
  ~StageScope() noexcept(false) {
    if (dismissed_ || std::uncaught_exceptions() > uncaught_) return;
    const double seconds =
        source_ == StageSource::kMemo ? 0 : static_cast<double>(obs::now_ns() - t0_ns_) * 1e-9;
    const char* source = source_name(source_);
    if (obs::enabled()) {
      auto& reg = obs::Registry::global();
      if (source_ == StageSource::kComputed)
        reg.histogram(stage_histogram(stage_)).observe(seconds);
      if (const StageCount* c = count_of(stage_, source)) reg.counter(c->counter).add(1);
    }
    {
      MutexLock lk(session_.stats_mu_);
      session_.stage_runs_.push_back(StageRun{stage_, source, seconds});
    }
    // Structural fields only: the event stream stays bit-identical across
    // thread counts and machines, so seconds live in the manifest alone.
    obs::LogEvent(obs::LogLevel::kInfo, "stage").str("stage", stage_).str("source", source);
  }

 private:
  AnalysisSession& session_;
  const char* stage_;
  StageSource source_;
  std::optional<obs::Span> span_;  ///< Destroyed after the records: the span covers them.
  std::uint64_t t0_ns_ = 0;
  int uncaught_ = std::uncaught_exceptions();
  bool dismissed_ = false;
};

AnalysisSession::AnalysisSession(Inventory inventory, SnapshotStore snapshots, TicketLog tickets,
                                 SessionOptions opts)
    : inventory_(std::move(inventory)),
      snapshots_(std::move(snapshots)),
      tickets_(std::move(tickets)),
      opts_(std::move(opts)),
      store_(opts_.artifact_dir),
      pool_(std::make_unique<ThreadPool>(opts_.threads > 0 ? opts_.threads
                                                           : ThreadPool::default_thread_count())) {
  if (obs::enabled()) register_engine_metrics();
  // The open event carries the session's data shape and seed, but not
  // the thread count: event content must be identical at any thread
  // count (the manifest records threads instead).
  obs::LogEvent(obs::LogLevel::kInfo, "session_open")
      .u64("networks", inventory_.num_networks())
      .u64("devices", inventory_.num_devices())
      .i64("months", opts_.inference.num_months)
      .u64("seed", opts_.seed);
}

AnalysisSession::AnalysisSession(AnalysisSession&& other) noexcept
    : inventory_(std::move(other.inventory_)),
      snapshots_(std::move(other.snapshots_)),
      tickets_(std::move(other.tickets_)),
      opts_(std::move(other.opts_)),
      store_(std::move(other.store_)),
      pool_(std::move(other.pool_)),
      table_(std::move(other.table_)),
      lint_(std::move(other.lint_)),
      dependence_(std::move(other.dependence_)),
      causal_(std::move(other.causal_)),
      causal_logs_(std::move(other.causal_logs_)),
      cv_(std::move(other.cv_)),
      stage_runs_(std::move(other.stage_runs_)),
      fingerprint_(other.fingerprint_) {}

AnalysisSession::~AnalysisSession() {
  // pool_ is null only in the moved-from shell, which must not publish
  // the stats (or the manifest) a second time.
  if (pool_ == nullptr) return;
  if (obs::enabled()) {
    const ThreadPool::Stats s = pool_->stats();
    auto& reg = obs::Registry::global();
    reg.counter("mpa_pool_jobs_total").add(s.jobs);
    reg.counter("mpa_pool_tasks_total").add(s.tasks);
    reg.counter("mpa_pool_inline_jobs_total").add(s.inline_jobs);
    reg.counter("mpa_pool_worker_joins_total").add(s.worker_joins);
    reg.counter("mpa_pool_queue_wait_ns_total").add(s.queue_wait_ns);
  }
  if (obs::log_enabled()) {
    // Structural pool counts only (thread-count-invariant); the
    // scheduling-dependent ones live in the metrics export.
    const ThreadPool::Stats s = pool_->stats();
    std::size_t stages = 0;
    {
      MutexLock lk(stats_mu_);
      stages = stage_runs_.size();
    }
    obs::LogEvent(obs::LogLevel::kInfo, "session_close")
        .u64("pool_jobs", s.jobs)
        .u64("pool_tasks", s.tasks)
        .u64("stages", stages);
  }
  // Keyed sessions leave their provenance beside the artifacts they
  // wrote; instrumented sessions additionally publish it for the CLI's
  // --manifest-out / report path. Unkeyed, uninstrumented sessions
  // skip both (the fingerprint hash is not free).
  const bool keyed = !opts_.artifact_key.empty() && store_.enabled();
  if (keyed || obs::enabled() || obs::log_enabled()) {
    RunManifest m = manifest();
    if (keyed) store_.save_manifest_json(opts_.artifact_key, m.to_json());
    if (obs::enabled() || obs::log_enabled()) set_last_run_manifest(std::move(m));
  }
}

AnalysisSession AnalysisSession::from_directory(const std::string& dir, SessionOptions opts) {
  const std::uint64_t t0 = obs::now_ns();
  std::uint64_t bytes_read = 0;
  DiskDataset data = load_dataset(dir, &bytes_read);
  if (obs::enabled()) {
    auto& reg = obs::Registry::global();
    reg.counter("mpa_dataset_load_bytes_total").add(bytes_read);
    reg.histogram("mpa_dataset_load_seconds")
        .observe(static_cast<double>(obs::now_ns() - t0) * 1e-9);
  }
  // Observation window implied by the data: the last month touched by
  // any ticket or snapshot.
  int months = 1;
  for (const auto& t : data.tickets.all()) months = std::max(months, month_of(t.created) + 1);
  for (const auto& dev : data.snapshots.devices())
    for (const auto& s : data.snapshots.for_device(dev))
      months = std::max(months, month_of(s.time) + 1);
  opts.inference.num_months = months;
  return AnalysisSession(std::move(data.inventory), std::move(data.snapshots),
                         std::move(data.tickets), std::move(opts));
}

Rng AnalysisSession::stream_for(std::uint64_t tag) const {
  return Rng(mix(opts_.seed ^ mix(tag)));
}

const CaseTable& AnalysisSession::case_table() {
  if (table_.has_value()) {
    StageScope memo(*this, "case_table", StageSource::kMemo);
    return *table_;
  }
  if (!opts_.artifact_key.empty()) {
    StageScope store(*this, "case_table", StageSource::kStore);
    if (auto cached = store_.load_case_table(opts_.artifact_key)) {
      table_ = std::move(*cached);
      return *table_;
    }
    store.dismiss();
  }
  StageScope computed(*this, "case_table", StageSource::kComputed);
  InferenceOptions iopts = opts_.inference;
  iopts.pool = pool_.get();
  table_ = infer_case_table(inventory_, snapshots_, tickets_, iopts);
  if (!opts_.artifact_key.empty()) store_.save_case_table(opts_.artifact_key, *table_);
  return *table_;
}

const LintReport& AnalysisSession::lint() {
  if (lint_.has_value()) {
    StageScope memo(*this, "lint", StageSource::kMemo);
    return *lint_;
  }
  if (!opts_.artifact_key.empty()) {
    StageScope store(*this, "lint", StageSource::kStore);
    if (auto cached = store_.load_lint_report(opts_.artifact_key)) {
      lint_ = std::move(*cached);
      return *lint_;
    }
    store.dismiss();
  }
  StageScope computed(*this, "lint", StageSource::kComputed);
  LintReport report;
  report.networks.resize(inventory_.networks().size());
  std::vector<std::size_t> every(report.networks.size());
  std::iota(every.begin(), every.end(), std::size_t{0});
  lint_networks(report, every);
  lint_ = std::move(report);
  if (!opts_.artifact_key.empty()) store_.save_lint_report(opts_.artifact_key, *lint_);
  return *lint_;
}

void AnalysisSession::lint_networks(LintReport& report, const std::vector<std::size_t>& indices) {
  // Per-task spans run on pool workers, whose thread-local span stack
  // is empty; adopt the calling stage's path explicitly so the fan-out
  // nests under it with deterministic names and counts at any thread
  // count.
  const std::string task_path =
      obs::enabled() ? obs::Tracer::current_path() + "/network" : std::string();
  // Pool workers have no installed request context either; adopt a
  // tag-only copy so per-task spans and events still carry
  // req_id/tenant (collection stays with the owning worker thread).
  const obs::RequestContext* req_ctx = obs::current_request_context();
  obs::RequestContext task_ctx = req_ctx != nullptr ? req_ctx->tag_only() : obs::RequestContext{};
  parallel_for(pool_.get(), indices.size(), [&](std::size_t i) {
    obs::ScopedRequestContext adopt(req_ctx != nullptr ? &task_ctx : nullptr);
    obs::Span task = obs::Span::with_path(task_path);
    const NetworkRecord& net = inventory_.networks()[indices[i]];
    NetworkLint& out = report.networks[indices[i]];
    out.network_id = net.network_id;
    std::vector<DeviceText> texts;
    for (const auto* d : inventory_.devices_in(net.network_id)) {
      const auto& snaps = snapshots_.for_device(d->device_id);
      if (snaps.empty()) continue;
      texts.push_back(DeviceText{d->device_id, snaps.back().text, dialect_of(d->vendor)});
    }
    out.num_devices = texts.size();
    out.diagnostics = lint_network_text(texts, opts_.inference.lint);
    obs::LogEvent(obs::LogLevel::kDebug, "lint_network")
        .str("network", out.network_id)
        .u64("findings", out.diagnostics.size());
  });
}

const DependenceAnalysis& AnalysisSession::dependence() {
  if (dependence_.has_value()) {
    StageScope memo(*this, "dependence", StageSource::kMemo);
    return *dependence_;
  }
  // The case table is a prerequisite, not part of this stage's cost:
  // materialize it before the scope opens so a cold dependence() call
  // reports dependence time, with any table build as a sibling span.
  const CaseTable& table = case_table();
  StageScope computed(*this, "dependence", StageSource::kComputed);
  DependenceOptions dopts;
  dopts.pool = pool_.get();
  dopts.record_pair_times = obs::enabled();
  dependence_.emplace(table, dopts);
  if (obs::enabled()) {
    auto& reg = obs::Registry::global();
    reg.counter("mpa_session_cmi_pairs_total")
        .add(static_cast<std::uint64_t>(dependence_->cmi_ranking().size()));
    auto& pair_hist = reg.histogram("mpa_dependence_pair_seconds");
    for (double s : dependence_->pair_compute_seconds()) pair_hist.observe(s);
  }
  return *dependence_;
}

const CausalResult& AnalysisSession::causal(Practice treatment) {
  if (const auto it = causal_.find(treatment); it != causal_.end()) {
    StageScope memo(*this, "causal", StageSource::kMemo);
    return it->second;
  }
  const CaseTable& table = case_table();
  StageScope computed(*this, "causal", StageSource::kComputed);
  CausalOptions copts = opts_.causal;
  copts.pool = pool_.get();
  if (!causal_logs_) causal_logs_.emplace(table);
  return causal_.emplace(treatment, causal_analysis(table, *causal_logs_, treatment, copts))
      .first->second;
}

const EvalResult& AnalysisSession::evaluate_cv(int num_classes, ModelKind kind) {
  const auto key = std::make_pair(static_cast<int>(kind), num_classes);
  if (const auto it = cv_.find(key); it != cv_.end()) {
    StageScope memo(*this, "cv", StageSource::kMemo);
    return it->second;
  }
  const CaseTable& table = case_table();
  StageScope computed(*this, "cv", StageSource::kComputed);
  ModelingOptions mopts;
  mopts.pool = pool_.get();
  Rng rng = stream_for(0x5cf00ULL + static_cast<std::uint64_t>(kind) * 64 +
                       static_cast<std::uint64_t>(num_classes));
  return cv_.emplace(key, evaluate_model_cv(table, num_classes, kind, rng, mopts)).first->second;
}

double AnalysisSession::online_accuracy(int num_classes, int history_m, ModelKind kind,
                                        int first_t, int last_t) {
  const CaseTable& table = case_table();
  StageScope computed(*this, "online", StageSource::kComputed);
  ModelingOptions mopts;
  mopts.pool = pool_.get();
  Rng rng = stream_for(0x0911eULL + static_cast<std::uint64_t>(kind) * 4096 +
                       static_cast<std::uint64_t>(num_classes) * 128 +
                       static_cast<std::uint64_t>(history_m));
  return online_prediction_accuracy(table, num_classes, history_m, kind, rng, first_t, last_t,
                                    mopts);
}

AnalysisSession::AppendResult AnalysisSession::append_month(const MonthDelta& delta) {
  // ---- Validate everything before mutating anything: on throw the
  // session (data, artifacts, stats) is exactly as it was. ----
  const int m = delta.month;
  require_data(m == opts_.inference.num_months,
               "append_month: out-of-order month " + std::to_string(m) + " (expected month " +
                   std::to_string(opts_.inference.num_months) + ")");
  const Timestamp m_start = month_start(m);
  const Timestamp m_end = month_start(m + 1);
  RecordChecker check(inventory_, "append_month", &snapshots_);
  for (const auto& s : delta.snapshots) {
    check.check_snapshot(s.device_id, s.time, s.login);
    require_data(s.time >= m_start && s.time < m_end,
                 "append_month: snapshot time " + std::to_string(s.time) +
                     " is outside month " + std::to_string(m) + " for device " + s.device_id);
  }
  for (const auto& t : delta.tickets) {
    check.check_ticket(t);
    require_data(t.created >= m_start && t.created < m_end,
                 "append_month: ticket created time " + std::to_string(t.created) +
                     " is outside month " + std::to_string(m) + " for ticket " + t.ticket_id);
  }

  StageScope computed(*this, "append", StageSource::kComputed);

  // ---- Ingest the raw records and advance the observation window. ----
  for (const auto& s : delta.snapshots) snapshots_.add(s);
  for (const auto& t : delta.tickets) tickets_.add(t);
  const int old_months = opts_.inference.num_months;
  opts_.inference.num_months = m + 1;
  {
    MutexLock lk(stats_mu_);
    fingerprint_.reset();  // The data identity changed.
  }

  AppendResult result;
  result.month = m;
  result.snapshots = delta.snapshots.size();
  result.tickets = delta.tickets.size();

  // Stale-state sweep: when an artifact is not resident we cannot
  // refresh it in place, so its persisted sidecars (case table, lint
  // report, manifest) must go — a later load pairing pre-append
  // artifacts with post-append data would be silently wrong. Resident
  // artifacts are refreshed and re-persisted below instead.
  const bool keyed = !opts_.artifact_key.empty() && store_.enabled();
  if (keyed && (!table_.has_value() || !lint_.has_value())) store_.remove(opts_.artifact_key);

  // ---- Case table: extend with the new month's rows only. ----
  if (table_.has_value()) {
    InferenceOptions iopts = opts_.inference;
    iopts.pool = pool_.get();
    const CaseTable tail = infer_case_table_tail(inventory_, snapshots_, tickets_, iopts, m);
    // Rows are network-major: every network owns one contiguous block
    // of old_months rows (inference emits a row for every month), and
    // the tail holds exactly one new row per network in the same
    // network order. Interleave positionally.
    const auto& networks = inventory_.networks();
    require(table_->size() == networks.size() * static_cast<std::size_t>(old_months) &&
                tail.size() == networks.size(),
            "append_month: case table is not network-major over the session's months");
    std::vector<Case> merged;
    merged.reserve(table_->size() + tail.size());
    for (std::size_t n = 0; n < networks.size(); ++n) {
      const std::size_t block = n * static_cast<std::size_t>(old_months);
      for (std::size_t r = 0; r < static_cast<std::size_t>(old_months); ++r)
        merged.push_back((*table_)[block + r]);
      merged.push_back(tail[n]);
    }
    table_ = CaseTable(std::move(merged));
    result.new_rows = tail.size();
    result.table_incremental = true;
    if (keyed) store_.save_case_table(opts_.artifact_key, *table_);
  }

  // ---- Lint: re-lint only networks the delta's snapshots touched
  // (latest-snapshot semantics — other networks' inputs are unchanged,
  // and each network's lint is a pure function of its own texts). ----
  if (lint_.has_value()) {
    std::vector<std::size_t> affected;
    {
      std::set<std::string> touched_networks;
      for (const auto& s : delta.snapshots)
        touched_networks.insert(inventory_.find_device(s.device_id)->network_id);
      const auto& networks = inventory_.networks();
      for (std::size_t n = 0; n < networks.size(); ++n)
        if (touched_networks.count(networks[n].network_id) != 0) affected.push_back(n);
    }
    lint_networks(*lint_, affected);
    result.lint_incremental = true;
    if (keyed) store_.save_lint_report(opts_.artifact_key, *lint_);
  }

  // ---- Dependence, causal and CV: dropped for a lazy rebuild. Each
  // depends on every row (the dependence bins are percentiles of the
  // whole table, §5.1.1, so a new month moves them), and has no sound
  // additive form. ----
  dependence_.reset();
  causal_.clear();
  causal_logs_.reset();
  cv_.clear();

  obs::LogEvent(obs::LogLevel::kInfo, "session_append")
      .i64("month", m)
      .u64("snapshots", result.snapshots)
      .u64("tickets", result.tickets)
      .u64("new_rows", result.new_rows)
      .boolean("table_incremental", result.table_incremental)
      .boolean("lint_incremental", result.lint_incremental);
  return result;
}

AnalysisSession::CacheStats AnalysisSession::stats() const {
  MutexLock lk(stats_mu_);
  return count_stages(stage_runs_);
}

RunManifest AnalysisSession::manifest() const {
  RunManifest m;
  // fingerprint() takes stats_mu_ itself; resolve it before the stats
  // snapshot below so the (non-recursive) mutex is never re-entered.
  m.dataset_fingerprint = fingerprint_hex(fingerprint());
  m.seed = opts_.seed;
  m.threads = pool_ != nullptr ? pool_->size() : 0;
  m.months = opts_.inference.num_months;
  m.networks = inventory_.num_networks();
  m.devices = inventory_.num_devices();
  m.snapshots = snapshots_.total_snapshots();
  m.tickets = tickets_.size();
  m.artifact_dir = opts_.artifact_dir;
  m.artifact_key = opts_.artifact_key;
  {
    MutexLock lk(stats_mu_);
    m.stages = stage_runs_;
  }
  const CacheStats counts = count_stages(m.stages);
  for (const StageCount& c : kStageCounts) m.cache[c.key] = counts.*c.field;
  if (obs::enabled()) m.counters = obs::Registry::global().counters_snapshot();
  return m;
}

std::uint64_t AnalysisSession::fingerprint() const {
  // Computed under the stats mutex: concurrent manifest() callers must
  // not race on the lazy optional. The hash itself is data-dependent
  // only, so holding the lock during it is merely conservative.
  MutexLock lk(stats_mu_);
  if (!fingerprint_) fingerprint_ = dataset_fingerprint(inventory_, snapshots_, tickets_);
  return *fingerprint_;
}

}  // namespace mpa
