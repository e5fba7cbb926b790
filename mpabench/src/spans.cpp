#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <mutex>

#include "bench_math.hpp"

namespace mpabench {
namespace {

struct Entry {
  const char* name;
  SpanRec rec;
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::vector<Entry> g_spans;  // Guarded by g_mu.
thread_local int t_current = -1;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

}  // namespace

void spans_enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool spans_enabled() { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* name) {
  if (!spans_enabled()) return;
  const std::uint64_t t = now_ns();
  std::lock_guard<std::mutex> lk(g_mu);
  id_ = static_cast<int>(g_spans.size());
  g_spans.push_back(Entry{name, SpanRec{t_current, t, t}});
  t_current = id_;
}

Span::~Span() {
  if (id_ < 0) return;
  const std::uint64_t t = now_ns();
  std::lock_guard<std::mutex> lk(g_mu);
  g_spans[static_cast<std::size_t>(id_)].rec.end_ns = t;
  t_current = g_spans[static_cast<std::size_t>(id_)].rec.parent;
}

std::vector<LayerRow> layer_table() {
  std::lock_guard<std::mutex> lk(g_mu);
  std::vector<SpanRec> recs;
  recs.reserve(g_spans.size());
  for (const Entry& e : g_spans) recs.push_back(e.rec);
  const std::vector<std::uint64_t> self = self_times(recs);
  std::map<std::string, LayerRow> by_name;
  for (std::size_t i = 0; i < g_spans.size(); ++i) {
    LayerRow& row = by_name[g_spans[i].name];
    row.name = g_spans[i].name;
    ++row.count;
    row.total_s += static_cast<double>(recs[i].end_ns - recs[i].start_ns) * 1e-9;
    row.self_s += static_cast<double>(self[i]) * 1e-9;
  }
  std::vector<LayerRow> rows;
  for (auto& [name, row] : by_name) rows.push_back(row);
  std::stable_sort(rows.begin(), rows.end(),
                   [](const LayerRow& a, const LayerRow& b) { return a.self_s > b.self_s; });
  return rows;
}

double span_total_s(const std::string& name) {
  std::lock_guard<std::mutex> lk(g_mu);
  double total = 0;
  for (const Entry& e : g_spans)
    if (name == e.name) total += static_cast<double>(e.rec.end_ns - e.rec.start_ns) * 1e-9;
  return total;
}

std::uint64_t span_count(const std::string& name) {
  std::lock_guard<std::mutex> lk(g_mu);
  return static_cast<std::uint64_t>(std::count_if(
      g_spans.begin(), g_spans.end(), [&](const Entry& e) { return name == e.name; }));
}

void write_spans(const std::string& path) {
  std::lock_guard<std::mutex> lk(g_mu);
  std::ofstream f(path);
  f << "name,parent,start_ns,end_ns\n";
  for (const Entry& e : g_spans)
    f << e.name << ',' << e.rec.parent << ',' << e.rec.start_ns << ',' << e.rec.end_ns << '\n';
}

}  // namespace mpabench
