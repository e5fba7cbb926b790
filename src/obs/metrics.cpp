#include "obs/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <limits>
#include <sstream>

#include "util/json.hpp"

namespace mpa::obs {
namespace {

std::atomic<bool> g_enabled{false};

double bits_to_double(std::uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof d);
  return d;
}

std::uint64_t double_to_bits(double d) {
  std::uint64_t bits;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

void atomic_add_double(std::atomic<std::uint64_t>& bits, double delta) {
  std::uint64_t old = bits.load(std::memory_order_relaxed);
  while (true) {
    const std::uint64_t next = double_to_bits(bits_to_double(old) + delta);
    if (bits.compare_exchange_weak(old, next, std::memory_order_relaxed)) return;
  }
}

/// Moves the double in `bits` to `v` while `beyond(v, current)`: with
/// std::less a running minimum, with std::greater a running maximum.
template <typename Beyond>
void atomic_extend_double(std::atomic<std::uint64_t>& bits, double v, Beyond beyond) {
  std::uint64_t old = bits.load(std::memory_order_relaxed);
  while (beyond(v, bits_to_double(old)) &&
         !bits.compare_exchange_weak(old, double_to_bits(v), std::memory_order_relaxed)) {
  }
}

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

bool enabled() {
  return g_enabled.load(std::memory_order_relaxed);
}

void set_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t now_ns() {
  static const auto t0 = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - t0)
                                        .count());
}

void Gauge::set(double v) {
  bits_.store(double_to_bits(v), std::memory_order_relaxed);
}

double Gauge::value() const {
  return bits_to_double(bits_.load(std::memory_order_relaxed));
}

void Gauge::reset() {
  bits_.store(0, std::memory_order_relaxed);
}

SampleRange::SampleRange() : lo_bits_(double_to_bits(kInf)), hi_bits_(double_to_bits(-kInf)) {}

void SampleRange::observe(double v) {
  atomic_extend_double(lo_bits_, v, std::less<>());
  atomic_extend_double(hi_bits_, v, std::greater<>());
}

double SampleRange::lo() const {
  return bits_to_double(lo_bits_.load(std::memory_order_relaxed));
}

double SampleRange::hi() const {
  return bits_to_double(hi_bits_.load(std::memory_order_relaxed));
}

void SampleRange::reset() {
  lo_bits_.store(double_to_bits(kInf), std::memory_order_relaxed);
  hi_bits_.store(double_to_bits(-kInf), std::memory_order_relaxed);
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(new std::atomic<std::uint64_t>[bounds_.size() + 1]) {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::observe(double v) {
  range_.observe(v);
  std::size_t b = 0;
  while (b < bounds_.size() && v > bounds_[b]) ++b;
  buckets_[b].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add_double(sum_bits_, v);
}

double Histogram::sum() const {
  return bits_to_double(sum_bits_.load(std::memory_order_relaxed));
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = buckets_[i].load(std::memory_order_relaxed);
  return out;
}

double Histogram::quantile(double q) const {
  const double lo = range_.lo();
  const double hi = range_.hi();
  return bounded_quantile(bounds_, bucket_counts(), lo, hi, q);
}

double bounded_quantile(const std::vector<double>& bounds, std::vector<std::uint64_t> counts,
                        double lo, double hi, double q) {
  if (!(lo <= hi)) return quantile_from_buckets(bounds, counts, q);  // no sample yet
  // The largest sample is the +Inf bucket's upper edge: a rank there
  // interpolates toward it instead of stopping at the last bound.
  std::vector<double> edges = bounds;
  edges.push_back(std::max(hi, bounds.empty() ? hi : bounds.back()));
  counts.push_back(0);
  return std::clamp(quantile_from_buckets(edges, counts, q), lo, hi);
}

double quantile_from_buckets(const std::vector<double>& bounds,
                             const std::vector<std::uint64_t>& counts, double q) {
  const std::size_t n = std::min(counts.size(), bounds.size() + 1);
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < n; ++b) total += counts[b];
  if (total == 0) return 0;
  if (!(q >= 0)) q = 0;  // also catches NaN
  if (q > 1) q = 1;
  const double target = q * static_cast<double>(total);
  double cumulative = 0;
  for (std::size_t b = 0; b < n; ++b) {
    if (counts[b] == 0) continue;
    const double next = cumulative + static_cast<double>(counts[b]);
    if (next < target) {
      cumulative = next;
      continue;
    }
    // The +Inf bucket has no upper edge to interpolate toward: report
    // the highest finite bound (the best statement the buckets allow).
    if (b >= bounds.size()) return bounds.empty() ? 0 : bounds.back();
    const double lower = b == 0 ? 0 : bounds[b - 1];
    const double upper = bounds[b];
    const double frac = (target - cumulative) / static_cast<double>(counts[b]);
    return lower + (upper - lower) * frac;
  }
  return bounds.empty() ? 0 : bounds.back();
}

void Histogram::reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
  count_.store(0, std::memory_order_relaxed);
  sum_bits_.store(0, std::memory_order_relaxed);
  range_.reset();
}

const std::vector<double>& latency_buckets_seconds() {
  static const std::vector<double> buckets = {1e-6, 1e-5, 1e-4, 1e-3, 1e-2,
                                              0.1,  0.5,  1.0,  5.0,  30.0};
  return buckets;
}

std::string prometheus_label_value(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    if (c == '\\' || c == '"' || c == '\n') out += '\\';
    out += c == '\n' ? 'n' : c;
  }
  return out;
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(const std::string& name) {
  MutexLock lk(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  MutexLock lk(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name, const std::vector<double>& bounds) {
  MutexLock lk(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(bounds);
  return *slot;
}

std::map<std::string, std::uint64_t> Registry::counters_snapshot() const {
  MutexLock lk(mu_);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, c] : counters_) out[name] = c->value();
  return out;
}

std::string Registry::to_json() const {
  MutexLock lk(mu_);
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(name) << "\":" << c->value();
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(name) << "\":" << json_number(g->value());
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(name) << "\":{\"count\":" << h->count()
       << ",\"sum\":" << json_number(h->sum()) << ",\"p50\":" << json_number(h->quantile(0.5))
       << ",\"p90\":" << json_number(h->quantile(0.9))
       << ",\"p99\":" << json_number(h->quantile(0.99)) << ",\"buckets\":[";
    const auto counts = h->bucket_counts();
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      cumulative += counts[i];
      if (i != 0) os << ',';
      os << "{\"le\":";
      if (i < h->bounds().size()) {
        os << json_number(h->bounds()[i]);
      } else {
        os << "\"+Inf\"";
      }
      os << ",\"count\":" << cumulative << '}';
    }
    os << "]}";
  }
  os << "}}\n";
  return os.str();
}

std::string Registry::to_prometheus() const {
  MutexLock lk(mu_);
  std::ostringstream os;
  for (const auto& [name, c] : counters_) {
    os << "# TYPE " << name << " counter\n" << name << ' ' << c->value() << '\n';
  }
  for (const auto& [name, g] : gauges_) {
    os << "# TYPE " << name << " gauge\n" << name << ' ' << json_number(g->value()) << '\n';
  }
  for (const auto& [name, h] : histograms_) {
    os << "# TYPE " << name << " histogram\n";
    const auto counts = h->bucket_counts();
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      cumulative += counts[i];
      os << name << "_bucket{le=\"";
      if (i < h->bounds().size()) {
        os << json_number(h->bounds()[i]);
      } else {
        os << "+Inf";
      }
      os << "\"} " << cumulative << '\n';
    }
    os << name << "_sum " << json_number(h->sum()) << '\n'
       << name << "_count " << h->count() << '\n';
  }
  return os.str();
}

std::string Registry::to_text() const {
  MutexLock lk(mu_);
  std::ostringstream os;
  for (const auto& [name, c] : counters_) os << name << " = " << c->value() << '\n';
  for (const auto& [name, g] : gauges_) os << name << " = " << json_number(g->value()) << '\n';
  for (const auto& [name, h] : histograms_) {
    os << name << ": count=" << h->count() << " sum=" << json_number(h->sum())
       << "s p50=" << json_number(h->quantile(0.5)) << "s p90=" << json_number(h->quantile(0.9))
       << "s p99=" << json_number(h->quantile(0.99)) << "s\n";
  }
  return os.str();
}

void Registry::reset_values() {
  MutexLock lk(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

}  // namespace mpa::obs
