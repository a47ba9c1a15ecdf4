#include "obs/metrics.hpp"

#include <bit>
#include <cstdio>

namespace unigen::obs {

void Histogram::record_ns(std::uint64_t ns) {
  if (!enabled()) return;
  const int idx = std::min<int>(
      kBuckets - 1, static_cast<int>(std::bit_width(ns | 1)) - 1);
  buckets_[static_cast<std::size_t>(idx)].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_ns_.fetch_add(ns, std::memory_order_relaxed);
  std::uint64_t cur = max_ns_.load(std::memory_order_relaxed);
  while (ns > cur &&
         !max_ns_.compare_exchange_weak(cur, ns, std::memory_order_relaxed)) {
  }
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_ns_.store(0, std::memory_order_relaxed);
  max_ns_.store(0, std::memory_order_relaxed);
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\"schema_version\":1,\"counters\":{";
  char buf[192];
  bool first = true;
  for (const CounterRow& c : counters) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%llu", first ? "" : ",",
                  c.name.c_str(), static_cast<unsigned long long>(c.value));
    out += buf;
    first = false;
  }
  out += "},\"histograms\":{";
  first = true;
  for (const HistogramRow& h : histograms) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"count\":%llu,\"sum_ns\":%llu,\"max_ns\":%llu,"
                  "\"mean_seconds\":%.9f,\"buckets\":[",
                  first ? "" : ",", h.name.c_str(),
                  static_cast<unsigned long long>(h.count),
                  static_cast<unsigned long long>(h.sum_ns),
                  static_cast<unsigned long long>(h.max_ns),
                  h.mean_seconds());
    out += buf;
    bool bfirst = true;
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      const std::uint64_t n = h.buckets[static_cast<std::size_t>(b)];
      if (n == 0) continue;
      std::snprintf(buf, sizeof(buf), "%s[%d,%llu]", bfirst ? "" : ",", b,
                    static_cast<unsigned long long>(n));
      out += buf;
      bfirst = false;
    }
    out += "]}";
    first = false;
  }
  out += "}}";
  return out;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_)
    snap.counters.push_back({name, c->value()});
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramRow row;
    row.name = name;
    row.count = h->count();
    row.sum_ns = h->sum_ns();
    row.max_ns = h->max_ns();
    for (int b = 0; b < Histogram::kBuckets; ++b)
      row.buckets[static_cast<std::size_t>(b)] = h->bucket(b);
    snap.histograms.push_back(std::move(row));
  }
  return snap;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

MetricsRegistry& metrics() {
  static MetricsRegistry* reg = new MetricsRegistry();
  return *reg;
}

std::string metrics_json() { return metrics().snapshot().to_json(); }

bool write_metrics_json(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string text = metrics_json();
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace unigen::obs
