#include "obs/window.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace mpa::obs {
namespace {

std::size_t status_slot(std::string_view status) {
  if (status == "ok") return 0;
  if (status == "rejected") return 1;
  if (status == "deadline_exceeded") return 2;
  return 3;  // error and anything unknown
}

}  // namespace

const std::vector<double>& window_ms_bounds() {
  static const std::vector<double> bounds = {0.1, 0.5, 1.0,   5.0,   10.0,  25.0,
                                             50.0, 100.0, 250.0, 500.0, 1000.0, 5000.0};
  return bounds;
}

WindowRegistry::WindowRegistry(WindowOptions opts) : opts_(std::move(opts)) {
  if (opts_.buckets == 0) opts_.buckets = 1;
  if (opts_.bucket_width_ns == 0) opts_.bucket_width_ns = 1;
}

WindowRegistry& WindowRegistry::global() {
  static WindowRegistry* registry = new WindowRegistry();
  return *registry;
}

void WindowRegistry::configure(WindowOptions opts) {
  MutexLock lk(mu_);
  opts_ = std::move(opts);
  if (opts_.buckets == 0) opts_.buckets = 1;
  if (opts_.bucket_width_ns == 0) opts_.bucket_width_ns = 1;
  series_.clear();
}

std::uint64_t WindowRegistry::now() const {
  return opts_.clock ? opts_.clock() : now_ns();
}

WindowRegistry::Bucket& WindowRegistry::bucket_for(Series& s, std::uint64_t epoch) {
  Bucket& b = s.ring[static_cast<std::size_t>(epoch % s.ring.size())];
  if (b.epoch.load(std::memory_order_acquire) != epoch) {
    MutexLock lk(s.rotate_mu);
    if (b.epoch.load(std::memory_order_relaxed) != epoch) {
      for (auto& c : b.by_status) c.store(0, std::memory_order_relaxed);
      b.queue.reset();
      b.service.reset();
      b.latency.reset();
      b.epoch.store(epoch, std::memory_order_release);
    }
  }
  return b;
}

void WindowRegistry::record(std::string_view tenant, std::string_view kind,
                            std::string_view status, double queue_ms, double service_ms,
                            double latency_ms) {
  const std::uint64_t epoch = now() / opts_.bucket_width_ns;
  Series* series = nullptr;
  {
    MutexLock lk(mu_);
    auto& slot = series_[{std::string(tenant), std::string(kind)}];
    if (slot == nullptr) slot = std::make_unique<Series>(opts_.buckets);
    series = slot.get();
  }
  Bucket& b = bucket_for(*series, epoch);
  b.by_status[status_slot(status)].fetch_add(1, std::memory_order_relaxed);
  b.queue.observe(queue_ms);
  b.service.observe(service_ms);
  b.latency.observe(latency_ms);
}

WindowRegistry::Snapshot WindowRegistry::snapshot() const {
  MutexLock lk(mu_);
  Snapshot snap;
  snap.window_seconds = static_cast<double>(opts_.buckets) *
                        static_cast<double>(opts_.bucket_width_ns) * 1e-9;
  const std::uint64_t current = now() / opts_.bucket_width_ns;
  const std::uint64_t min_epoch =
      current >= opts_.buckets - 1 ? current - (opts_.buckets - 1) : 0;
  for (const auto& [key, series] : series_) {
    SeriesWindow w;
    w.tenant = key.first;
    w.kind = key.second;
    // One histogram combined over the live buckets.
    struct Merged {
      std::vector<std::uint64_t> counts =
          std::vector<std::uint64_t>(window_ms_bounds().size() + 1, 0);
      double lo = std::numeric_limits<double>::infinity();
      double hi = -std::numeric_limits<double>::infinity();

      void add(const Histogram& h) {
        const std::vector<std::uint64_t> bucket = h.bucket_counts();
        for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += bucket[i];
        lo = std::min(lo, h.range().lo());
        hi = std::max(hi, h.range().hi());
      }
      double quantile(double q) const {
        return bounded_quantile(window_ms_bounds(), counts, lo, hi, q);
      }
    };
    Merged queue, service, latency;
    for (const Bucket& b : series->ring) {
      const std::uint64_t epoch = b.epoch.load(std::memory_order_acquire);
      if (epoch == kIdleEpoch || epoch < min_epoch || epoch > current) continue;
      w.ok += b.by_status[0].load(std::memory_order_relaxed);
      w.rejected += b.by_status[1].load(std::memory_order_relaxed);
      w.deadline_exceeded += b.by_status[2].load(std::memory_order_relaxed);
      w.error += b.by_status[3].load(std::memory_order_relaxed);
      queue.add(b.queue);
      service.add(b.service);
      latency.add(b.latency);
    }
    w.total = w.ok + w.rejected + w.deadline_exceeded + w.error;
    if (w.total == 0) continue;  // expired on an idle gap
    const double total = static_cast<double>(w.total);
    w.throughput_rps = snap.window_seconds > 0 ? total / snap.window_seconds : 0;
    w.ok_rate = static_cast<double>(w.ok) / total;
    w.reject_rate = static_cast<double>(w.rejected) / total;
    w.deadline_rate = static_cast<double>(w.deadline_exceeded) / total;
    w.error_rate = static_cast<double>(w.error) / total;
    w.queue_p50_ms = queue.quantile(0.5);
    w.queue_p90_ms = queue.quantile(0.9);
    w.queue_p99_ms = queue.quantile(0.99);
    w.service_p50_ms = service.quantile(0.5);
    w.service_p90_ms = service.quantile(0.9);
    w.service_p99_ms = service.quantile(0.99);
    w.latency_p50_ms = latency.quantile(0.5);
    w.latency_p90_ms = latency.quantile(0.9);
    w.latency_p99_ms = latency.quantile(0.99);
    snap.series.push_back(std::move(w));
  }
  return snap;
}

std::string WindowRegistry::to_json() const {
  const Snapshot snap = snapshot();
  std::ostringstream os;
  os << "{\"window_seconds\":" << json_number(snap.window_seconds) << ",\"series\":[";
  bool first = true;
  for (const SeriesWindow& w : snap.series) {
    if (!first) os << ',';
    first = false;
    os << "{\"tenant\":\"" << json_escape(w.tenant) << "\",\"kind\":\"" << json_escape(w.kind)
       << "\",\"total\":" << w.total << ",\"ok\":" << w.ok << ",\"rejected\":" << w.rejected
       << ",\"deadline_exceeded\":" << w.deadline_exceeded << ",\"error\":" << w.error
       << ",\"throughput_rps\":" << json_number(w.throughput_rps)
       << ",\"ok_rate\":" << json_number(w.ok_rate)
       << ",\"reject_rate\":" << json_number(w.reject_rate)
       << ",\"deadline_rate\":" << json_number(w.deadline_rate)
       << ",\"error_rate\":" << json_number(w.error_rate) << ",\"queue_ms\":{\"p50\":"
       << json_number(w.queue_p50_ms) << ",\"p90\":" << json_number(w.queue_p90_ms)
       << ",\"p99\":" << json_number(w.queue_p99_ms) << "},\"service_ms\":{\"p50\":"
       << json_number(w.service_p50_ms) << ",\"p90\":" << json_number(w.service_p90_ms)
       << ",\"p99\":" << json_number(w.service_p99_ms) << "},\"latency_ms\":{\"p50\":"
       << json_number(w.latency_p50_ms) << ",\"p90\":" << json_number(w.latency_p90_ms)
       << ",\"p99\":" << json_number(w.latency_p99_ms) << "}}";
  }
  os << "]}";
  return os.str();
}

std::string WindowRegistry::to_prometheus() const {
  const Snapshot snap = snapshot();
  std::ostringstream os;
  auto labels = [](const SeriesWindow& w, const std::string& extra = "") {
    return "{tenant=\"" + prometheus_label_value(w.tenant) + "\",kind=\"" +
           prometheus_label_value(w.kind) + "\"" + extra + "}";
  };
  os << "# TYPE mpa_window_requests_total gauge\n";
  static const char* const kStatusNames[] = {"ok", "rejected", "deadline_exceeded", "error"};
  for (const SeriesWindow& w : snap.series) {
    const std::uint64_t by_status[] = {w.ok, w.rejected, w.deadline_exceeded, w.error};
    for (std::size_t s = 0; s < 4; ++s) {
      os << "mpa_window_requests_total"
         << labels(w, std::string(",status=\"") + kStatusNames[s] + "\"") << ' '
         << by_status[s] << '\n';
    }
  }
  os << "# TYPE mpa_window_throughput_rps gauge\n";
  for (const SeriesWindow& w : snap.series) {
    os << "mpa_window_throughput_rps" << labels(w) << ' ' << json_number(w.throughput_rps)
       << '\n';
  }
  os << "# TYPE mpa_window_error_rate gauge\n";
  for (const SeriesWindow& w : snap.series) {
    os << "mpa_window_error_rate" << labels(w) << ' ' << json_number(w.error_rate) << '\n';
  }
  os << "# TYPE mpa_window_reject_rate gauge\n";
  for (const SeriesWindow& w : snap.series) {
    os << "mpa_window_reject_rate" << labels(w) << ' ' << json_number(w.reject_rate) << '\n';
  }
  os << "# TYPE mpa_window_deadline_rate gauge\n";
  for (const SeriesWindow& w : snap.series) {
    os << "mpa_window_deadline_rate" << labels(w) << ' ' << json_number(w.deadline_rate)
       << '\n';
  }
  static const char* const kQuantiles[] = {"0.5", "0.9", "0.99"};
  auto hist_block = [&](const char* name, auto member_p50, auto member_p90, auto member_p99) {
    os << "# TYPE " << name << " gauge\n";
    for (const SeriesWindow& w : snap.series) {
      const double qs[] = {w.*member_p50, w.*member_p90, w.*member_p99};
      for (std::size_t i = 0; i < 3; ++i) {
        os << name << labels(w, std::string(",quantile=\"") + kQuantiles[i] + "\"") << ' '
           << json_number(qs[i]) << '\n';
      }
    }
  };
  hist_block("mpa_window_queue_ms", &SeriesWindow::queue_p50_ms, &SeriesWindow::queue_p90_ms,
             &SeriesWindow::queue_p99_ms);
  hist_block("mpa_window_service_ms", &SeriesWindow::service_p50_ms,
             &SeriesWindow::service_p90_ms, &SeriesWindow::service_p99_ms);
  hist_block("mpa_window_latency_ms", &SeriesWindow::latency_p50_ms,
             &SeriesWindow::latency_p90_ms, &SeriesWindow::latency_p99_ms);
  return os.str();
}

std::string WindowRegistry::canonical_json() const {
  const Snapshot snap = snapshot();
  std::ostringstream os;
  os << "{\"series\":[";
  bool first = true;
  for (const SeriesWindow& w : snap.series) {
    if (!first) os << ',';
    first = false;
    os << "{\"tenant\":\"" << json_escape(w.tenant) << "\",\"kind\":\"" << json_escape(w.kind)
       << "\",\"total\":" << w.total << ",\"ok\":" << w.ok << ",\"rejected\":" << w.rejected
       << ",\"deadline_exceeded\":" << w.deadline_exceeded << ",\"error\":" << w.error << '}';
  }
  os << "]}";
  return os.str();
}

}  // namespace mpa::obs
