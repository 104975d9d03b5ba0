#include "obs/metrics.h"

#include <algorithm>
#include <bit>

namespace mde::obs {

namespace internal {
namespace {
/// Monotone per-thread index; threads map to shard cells round-robin, so
/// the first kMetricShards live threads are contention-free.
std::atomic<size_t> g_next_thread_index{0};
}  // namespace

size_t ThisThreadShard() {
  thread_local const size_t shard =
      g_next_thread_index.fetch_add(1, std::memory_order_relaxed) &
      (kMetricShards - 1);
  return shard;
}
}  // namespace internal

uint64_t Gauge::ToBits(double v) { return std::bit_cast<uint64_t>(v); }

double Gauge::FromBits(uint64_t b) { return std::bit_cast<double>(b); }

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), shards_(kMetricShards) {
  for (auto& s : shards_) {
    s.buckets = std::vector<std::atomic<uint64_t>>(bounds_.size() + 1);
  }
}

void Histogram::Observe(double v) {
  const size_t b = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  Shard& s = shards_[internal::ThisThreadShard()];
  s.buckets[b].fetch_add(1, std::memory_order_relaxed);
  s.count.fetch_add(1, std::memory_order_relaxed);
  // Accumulate the double sum with a CAS loop on the shard's bit cell;
  // contention is already divided across shards.
  uint64_t old = s.sum_bits.load(std::memory_order_relaxed);
  while (!s.sum_bits.compare_exchange_weak(
      old, std::bit_cast<uint64_t>(std::bit_cast<double>(old) + v),
      std::memory_order_relaxed)) {
  }
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> out(bounds_.size() + 1, 0);
  for (const auto& s : shards_) {
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] += s.buckets[i].load(std::memory_order_relaxed);
    }
  }
  return out;
}

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (const auto& s : shards_) {
    total += s.count.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Sum() const {
  double total = 0.0;
  for (const auto& s : shards_) {
    total += std::bit_cast<double>(s.sum_bits.load(std::memory_order_relaxed));
  }
  return total;
}

std::vector<double> ExponentialBounds(size_t n) {
  std::vector<double> out;
  out.reserve(n);
  double b = 1.0;
  for (size_t i = 0; i < n; ++i, b *= 2.0) out.push_back(b);
  return out;
}

Registry& Registry::Global() {
  // Leaked singleton: metric pointers cached in function-local statics at
  // call sites must outlive every other static destructor.
  static Registry* r = new Registry();
  return *r;
}

Counter* Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* Registry::histogram(const std::string& name,
                               std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(std::move(bounds));
  } else if (slot->bounds() != bounds) {
    // First registration wins; count the conflict so mismatched bucket
    // layouts at different call sites are visible instead of silent.
    // mu_ is non-recursive, so bump the counter via the map directly
    // rather than re-entering counter().
    auto& conflict = counters_["obs.histogram.bounds_conflict"];
    if (conflict == nullptr) conflict = std::make_unique<Counter>();
    conflict->Add(1);
  }
  return slot.get();
}

std::vector<MetricSnapshot> Registry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSnapshot> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    MetricSnapshot m;
    m.name = name;
    m.kind = MetricSnapshot::Kind::kCounter;
    m.value = static_cast<double>(c->Value());
    out.push_back(std::move(m));
  }
  for (const auto& [name, g] : gauges_) {
    MetricSnapshot m;
    m.name = name;
    m.kind = MetricSnapshot::Kind::kGauge;
    m.value = g->Value();
    out.push_back(std::move(m));
  }
  for (const auto& [name, h] : histograms_) {
    MetricSnapshot m;
    m.name = name;
    m.kind = MetricSnapshot::Kind::kHistogram;
    m.value = h->Sum();
    m.count = h->Count();
    m.bounds = h->bounds();
    m.buckets = h->BucketCounts();
    out.push_back(std::move(m));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

}  // namespace mde::obs
