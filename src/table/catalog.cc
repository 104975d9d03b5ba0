#include "table/catalog.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_set>

#include "obs/metrics.h"
#include "table/columnar.h"
#include "util/rng.h"

namespace mde::table {

namespace {

uint64_t HashDoubleBits(double d) {
  if (d == 0.0) d = 0.0;  // collapse -0.0 and +0.0
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d), "double is 64-bit");
  __builtin_memcpy(&bits, &d, sizeof(bits));
  return SplitMix64Hash(bits);
}

/// Distinct-count accumulator: exact up to ColumnStats::kDistinctExact
/// unique hashes, then a KMV (k-minimum-values) sketch — keep the k
/// smallest distinct hash values; with the k-th minimum at fraction U of
/// the hash space, the unseen population is about (k-1)/U.
class DistinctAcc {
 public:
  void Add(uint64_t h) {
    if (!overflow_) {
      exact_.insert(h);
      if (exact_.size() > ColumnStats::kDistinctExact) {
        for (uint64_t v : exact_) InsertKmv(v);
        exact_.clear();
        overflow_ = true;
      }
      return;
    }
    InsertKmv(h);
  }

  double Estimate() const {
    if (!overflow_) return static_cast<double>(exact_.size());
    const size_t k = kmv_.size();
    if (k < 2) return static_cast<double>(k);
    const double kth =
        static_cast<double>(*kmv_.rbegin()) / 18446744073709551616.0;  // 2^64
    if (kth <= 0.0) return static_cast<double>(k);
    return static_cast<double>(k - 1) / kth;
  }

 private:
  void InsertKmv(uint64_t h) {
    if (kmv_.size() == kKmv && h >= *kmv_.rbegin()) return;
    kmv_.insert(h);
    if (kmv_.size() > kKmv) kmv_.erase(std::prev(kmv_.end()));
  }

  static constexpr size_t kKmv = 1024;
  std::unordered_set<uint64_t> exact_;
  std::set<uint64_t> kmv_;  // k smallest distinct hashes, sorted
  bool overflow_ = false;
};

/// Numeric column pass shared by the int64/double/bool block layouts.
/// `value(i)` returns the row's value as double; `hash(i)` hashes the raw
/// representation (so int64 values beyond 2^53 still count as distinct).
template <typename ValueFn, typename HashFn>
void NumericPass(const Column& col, size_t n, ValueFn value, HashFn hash,
                 ColumnStats* s) {
  DistinctAcc distinct;
  size_t nulls = 0;
  bool first = true;
  double prev = 0.0;
  s->sorted_asc = true;
  s->sorted_desc = true;
  for (size_t i = 0; i < n; ++i) {
    if (!col.IsValid(i)) {
      ++nulls;
      continue;
    }
    const double v = value(i);
    if (first) {
      s->min = s->max = v;
      first = false;
    } else {
      s->min = std::min(s->min, v);
      s->max = std::max(s->max, v);
      if (v < prev) s->sorted_asc = false;
      if (v > prev) s->sorted_desc = false;
    }
    prev = v;
    distinct.Add(hash(i));
  }
  s->null_fraction = n == 0 ? 0.0 : static_cast<double>(nulls) / n;
  s->has_range = !first;
  s->distinct = distinct.Estimate();
  if (first) {
    s->sorted_asc = s->sorted_desc = false;
    return;
  }
  // Histogram: second pass, equi-width over [min, max]. Skipped for
  // constant columns (range selectivity degenerates to eq there anyway).
  if (s->min < s->max && col.type != DataType::kBool) {
    s->hist.assign(ColumnStats::kHistBuckets, 0);
    const double width = s->max - s->min;
    for (size_t i = 0; i < n; ++i) {
      if (!col.IsValid(i)) continue;
      const double v = value(i);
      size_t b = static_cast<size_t>((v - s->min) / width *
                                     ColumnStats::kHistBuckets);
      b = std::min(b, ColumnStats::kHistBuckets - 1);
      ++s->hist[b];
      ++s->hist_rows;
    }
  }
}

ColumnStats ComputeColumnStatsColumnar(const Column& col, size_t n) {
  ColumnStats s;
  s.type = col.type;
  switch (col.type) {
    case DataType::kInt64:
      NumericPass(
          col, n, [&](size_t i) { return static_cast<double>(col.i64[i]); },
          [&](size_t i) {
            return SplitMix64Hash(static_cast<uint64_t>(col.i64[i]));
          },
          &s);
      break;
    case DataType::kDouble:
      NumericPass(
          col, n, [&](size_t i) { return col.f64[i]; },
          [&](size_t i) { return HashDoubleBits(col.f64[i]); }, &s);
      break;
    case DataType::kBool:
      NumericPass(
          col, n, [&](size_t i) { return static_cast<double>(col.b8[i]); },
          [&](size_t i) { return SplitMix64Hash(col.b8[i]); }, &s);
      break;
    case DataType::kString: {
      // Satellite: the dictionary is the distinct structure — count used
      // codes with a bitset over the dictionary instead of materializing
      // or hashing strings. Exact, O(rows + dict).
      const size_t dict_size = col.dict != nullptr ? col.dict->size() : 0;
      std::vector<uint8_t> seen(dict_size, 0);
      size_t nulls = 0;
      size_t used = 0;
      bool first = true;
      uint32_t prev_code = 0;
      s.sorted_asc = s.sorted_desc = true;
      for (size_t i = 0; i < n; ++i) {
        if (!col.IsValid(i)) {
          ++nulls;
          continue;
        }
        const uint32_t c = col.codes[i];
        if (c < dict_size && !seen[c]) {
          seen[c] = 1;
          ++used;
        }
        if (!first && c != prev_code) {
          const int cmp = (*col.dict)[c].compare((*col.dict)[prev_code]);
          if (cmp < 0) s.sorted_asc = false;
          if (cmp > 0) s.sorted_desc = false;
        }
        prev_code = c;
        first = false;
      }
      s.null_fraction = n == 0 ? 0.0 : static_cast<double>(nulls) / n;
      s.distinct = static_cast<double>(used);
      if (first) s.sorted_asc = s.sorted_desc = false;
      break;
    }
    case DataType::kNull:
      s.null_fraction = n == 0 ? 0.0 : 1.0;
      break;
  }
  return s;
}

}  // namespace

const ColumnStats* TableStats::Find(const std::string& name) const {
  auto idx = schema.IndexOf(name);
  if (!idx.ok()) return nullptr;
  return &columns[idx.value()];
}

std::shared_ptr<const TableStats> ComputeTableStats(const Table& t) {
  auto stats = std::make_shared<TableStats>();
  stats->row_count = t.num_rows();
  stats->schema = t.schema();
  const size_t ncols = t.schema().num_columns();
  stats->columns.reserve(ncols);
  const auto columnar = t.ToColumnar().value();
  for (size_t c = 0; c < ncols; ++c) {
    stats->columns.push_back(
        ComputeColumnStatsColumnar(columnar->col(c), columnar->num_rows()));
  }
  MDE_OBS_COUNT("opt.catalog.stats_computed", 1);
  return stats;
}

Catalog& Catalog::Global() {
  static Catalog* c = new Catalog();
  return *c;
}

std::shared_ptr<const TableStats> Catalog::StatsFor(const Table& t) {
  if (auto cached = t.stats_cache()) return cached;
  auto stats = ComputeTableStats(t);
  t.set_stats_cache(stats);
  return stats;
}

void Catalog::RecordActual(const std::string& fingerprint,
                           double actual_rows) {
  size_t entries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    actuals_[fingerprint] = actual_rows;
    entries = actuals_.size();
  }
  MDE_OBS_COUNT("opt.feedback.records", 1);
  MDE_OBS_GAUGE_SET("opt.feedback.entries", static_cast<int64_t>(entries));
}

bool Catalog::LookupActual(const std::string& fingerprint,
                           double* rows) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = actuals_.find(fingerprint);
  if (it == actuals_.end()) return false;
  *rows = it->second;
  return true;
}

size_t Catalog::feedback_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return actuals_.size();
}

void Catalog::ClearFeedback() {
  std::lock_guard<std::mutex> lock(mu_);
  actuals_.clear();
}

}  // namespace mde::table
