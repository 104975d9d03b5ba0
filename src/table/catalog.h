#ifndef MDE_TABLE_CATALOG_H_
#define MDE_TABLE_CATALOG_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "table/table.h"
#include "table/value.h"
#include "util/status.h"

namespace mde::table {

/// Per-column statistics, computed in one pass over the cached columnar
/// blocks and memoized on the Table. The cost model (cost.h) turns these into
/// selectivity and cardinality estimates; the optimizer (optimizer.h) turns
/// those into predicate order, projection pruning, and join order.
struct ColumnStats {
  DataType type = DataType::kNull;
  /// Fraction of rows whose cell is null.
  double null_fraction = 0.0;
  /// Numeric range (int64/double/bool as 0/1). Valid when has_range.
  bool has_range = false;
  double min = 0.0;
  double max = 0.0;
  /// Estimated count of distinct non-null values. For dictionary-encoded
  /// string columns this is the dictionary cardinality (exact for the
  /// column the dictionary was built for, an upper bound after zero-copy
  /// gathers that share a superset dictionary). Numeric columns use an
  /// exact count up to kDistinctExact values and a KMV sketch beyond it.
  double distinct = 0.0;
  /// Non-null values appear in ascending / descending order (both set for
  /// constant columns). Useful as a sargability hint and kept per the
  /// classic catalog shape even though no operator exploits it yet.
  bool sorted_asc = false;
  bool sorted_desc = false;
  /// Small equi-width histogram over [min, max] for numeric columns
  /// (empty when the column is non-numeric, all-null, or constant).
  /// hist[i] counts non-null values in bucket i; buckets split [min, max]
  /// evenly, the last bucket closed on both sides.
  std::vector<uint64_t> hist;
  uint64_t hist_rows = 0;  // total non-null values binned into hist

  static constexpr size_t kHistBuckets = 16;
  /// Distinct counts up to this are exact; beyond it the KMV estimate
  /// takes over.
  static constexpr size_t kDistinctExact = 4096;
};

/// Table-level statistics: row count plus one ColumnStats per schema slot.
struct TableStats {
  size_t row_count = 0;
  Schema schema;
  std::vector<ColumnStats> columns;

  const ColumnStats* Find(const std::string& name) const;
};

/// Computes statistics for `t` from its columnar blocks when it converts
/// (one vectorized pass per column) or from the boxed rows otherwise.
/// Deterministic: the same table always produces the same stats.
std::shared_ptr<const TableStats> ComputeTableStats(const Table& t);

/// Process-wide statistics catalog. Two roles:
///
/// 1. *Base-table statistics*, memoized on the Table itself (the same
///    discipline as the cached ToColumnar conversion): the first StatsFor
///    call scans the table once, later calls are O(1). Mutating the table
///    drops the cache.
/// 2. *Execution feedback*: after a profiled ExecutePlan, the actual
///    row counts per plan node are folded back in, keyed by the node's
///    structural fingerprint (cost.h). The cost model consults these
///    actuals before its analytic estimates, so cardinality estimates
///    self-correct across a run — the "self-tuning" half of the paper's
///    query-optimization analogy.
class Catalog {
 public:
  static Catalog& Global();

  /// Memoized per-table statistics. Never fails: a table that cannot be
  /// scanned still yields a row count.
  std::shared_ptr<const TableStats> StatsFor(const Table& t);

  /// Records the observed output cardinality of a plan node
  /// (last-write-wins; plans are usually re-run unchanged, so the most
  /// recent actual is the best predictor).
  void RecordActual(const std::string& fingerprint, double actual_rows);

  /// Looks up a previously observed cardinality. Returns false on miss.
  bool LookupActual(const std::string& fingerprint, double* rows) const;

  size_t feedback_entries() const;

  /// Drops all execution feedback (tests; a long-lived process that
  /// reloads its data wholesale may also want a clean slate).
  void ClearFeedback();

 private:
  Catalog() = default;

  mutable std::mutex mu_;
  std::unordered_map<std::string, double> actuals_;
};

}  // namespace mde::table

#endif  // MDE_TABLE_CATALOG_H_
