#ifndef MDE_TABLE_TABLE_H_
#define MDE_TABLE_TABLE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "table/value.h"
#include "util/status.h"

namespace mde::table {

class ColumnarTable;
struct TableStats;

/// A named, typed column slot.
struct ColumnSpec {
  std::string name;
  DataType type;
};

/// Ordered set of named, typed columns. Name lookup is O(1) via an index
/// built at construction (IndexOf used to be a linear scan, which showed up
/// in every per-row hot loop that resolved columns late).
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<ColumnSpec> columns);

  size_t num_columns() const { return columns_.size(); }
  const ColumnSpec& column(size_t i) const { return columns_[i]; }
  const std::vector<ColumnSpec>& columns() const { return columns_; }

  /// Index of `name`, or error if absent.
  Result<size_t> IndexOf(const std::string& name) const;
  bool Has(const std::string& name) const;

  /// Concatenation for join outputs; duplicate names from the right side are
  /// prefixed with `right_prefix` (e.g. "r.").
  static Schema Concat(const Schema& left, const Schema& right,
                       const std::string& right_prefix);

  bool operator==(const Schema& other) const;

  std::string ToString() const;

 private:
  std::vector<ColumnSpec> columns_;
  std::unordered_map<std::string, size_t> index_;
};

using Row = std::vector<Value>;

/// Next value of the process-wide table content-version sequence. Every
/// Table starts at a fresh stamp and takes another on each mutation, so two
/// tables (or two mutation states of one table) never share a stamp unless
/// one was copied from the other unmutated.
uint64_t NextContentVersion();

namespace internal {

/// One lazily filled value that concurrent const readers may first-touch.
/// The first Fill builds the value under the slot's mutex; once filled,
/// ready() is one acquire load and get() a plain read. Copying a slot copies
/// the value only if it is filled (never one being built); a moved-from
/// slot is filled with the moved-from value. Set/Reset and moves need
/// exclusive access, like any non-const use.
template <typename T>
class LazySlot {
 public:
  LazySlot() = default;
  explicit LazySlot(T value) : value_(std::move(value)), ready_(true) {}
  LazySlot(const LazySlot& other) { *this = other; }
  LazySlot(LazySlot&& other) noexcept { *this = std::move(other); }
  LazySlot& operator=(const LazySlot& other) {
    if (this == &other) return *this;
    if (other.ready()) {
      Set(other.value_);
    } else {
      Reset();
    }
    return *this;
  }
  LazySlot& operator=(LazySlot&& other) noexcept {
    if (this == &other) return *this;
    value_ = std::move(other.value_);
    ready_.store(other.ready_.exchange(true, std::memory_order_relaxed),
                 std::memory_order_relaxed);
    return *this;
  }

  bool ready() const { return ready_.load(std::memory_order_acquire); }
  /// The value; only meaningful once ready() (or under exclusive access).
  const T& get() const { return value_; }
  T& mut() { return value_; }

  void Set(T value) {
    value_ = std::move(value);
    ready_.store(true, std::memory_order_relaxed);
  }
  void Reset() {
    value_ = T();
    ready_.store(false, std::memory_order_relaxed);
  }

  /// Fills the slot with `build(T&) -> bool` unless it is already filled;
  /// concurrent callers wait for the one that builds. A build that returns
  /// false must leave the value untouched; the slot stays empty and the
  /// next caller tries again.
  template <typename Build>
  void Fill(Build&& build) const {
    if (ready()) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (ready_.load(std::memory_order_relaxed)) return;
    if (build(value_)) ready_.store(true, std::memory_order_release);
  }

 private:
  mutable std::mutex mu_;  // serializes Fill
  mutable T value_{};
  mutable std::atomic<bool> ready_{false};
};

}  // namespace internal

/// In-memory relation. Rows are append-only through the public API;
/// operators produce new tables.
///
/// Invariant: every cell is null or holds exactly its column's declared
/// type. The constructor, Append and Set abort on a row that breaks it (the
/// same programmer-error contract as a wrong arity), so every Table
/// converts to columnar form and the columnar executor is the only one.
///
/// Storage: a Table is either row-backed (vector of boxed rows, as built by
/// Append) or columnar-backed — produced by the vectorized operator
/// pipeline (columnar.h / vec_ops.h), in which case it carries a shared
/// reference to the typed column blocks and materializes the boxed row view
/// LAZILY on first row access. The row API is thus a view/materialization
/// layer: pipelines that stay columnar (Query, plan execution, chained
/// operators) never pay for boxing. The lazy caches (boxed rows, columnar
/// conversion, statistics) fill under const accessors through
/// internal::LazySlot, so a const Table may be shared across threads and
/// first-touched from any of them; mutation needs exclusive access.
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema) : schema_(std::move(schema)) {}
  Table(Schema schema, std::vector<Row> rows);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const;
  const Row& row(size_t i) const;
  const std::vector<Row>& rows() const;

  /// Appends a row; aborts if its arity or a cell's type mismatches the
  /// schema. Detaches the columnar representation (the blocks are
  /// immutable).
  void Append(Row row);

  /// Pre-sizes the row storage (cardinality-estimate reserve in operators).
  void Reserve(size_t n);

  /// Value at (row, named column); error if the column is absent.
  Result<Value> At(size_t row, const std::string& column) const;

  /// In-place mutation used by the simulation layers that model agent state
  /// as rows (Indemics node updates, SimSQL versions mutate copies). Aborts
  /// if `v` is neither null nor of the column's declared type.
  void Set(size_t row, size_t col, Value v);

  /// The attached columnar representation, or nullptr for row-backed
  /// tables not yet converted by ToColumnar.
  const std::shared_ptr<const ColumnarTable>& columnar() const {
    return columnar_.ready() ? columnar_.get() : kNoColumnar;
  }

  /// Converts to a columnar representation and caches it on the table, so
  /// repeated scans of the same base table (plan execution, Query) convert
  /// once. O(1) when already attached. Never fails: the cell-type invariant
  /// makes every table convertible. Safe to call from concurrent readers;
  /// one of them converts.
  Result<std::shared_ptr<const ColumnarTable>> ToColumnar() const;

  /// Wraps a columnar table; the boxed row view is built on first access.
  static Table FromColumnar(std::shared_ptr<const ColumnarTable> cols);

  /// Memoized per-column statistics (catalog.h). Computed on first
  /// Catalog::StatsFor call and dropped by any mutation, the same
  /// discipline as the cached columnar conversion. The first set wins;
  /// later ones (a concurrent reader that computed them too) are ignored.
  const std::shared_ptr<const TableStats>& stats_cache() const {
    return stats_.ready() ? stats_.get() : kNoStats;
  }
  void set_stats_cache(std::shared_ptr<const TableStats> s) const {
    stats_.Fill([&s](std::shared_ptr<const TableStats>& slot) {
      slot = std::move(s);
      return true;
    });
  }

  /// Content-version stamp: process-unique for this table's current
  /// contents. Copies share the stamp (contents are equal at copy time);
  /// any mutation (Append / Set) takes a fresh stamp, and tables wrapped
  /// from the same ColumnarTable share its stamp. The plan-fingerprint
  /// feedback key (cost.h) salts scans with this, so execution actuals
  /// recorded against one contents state can never poison cardinality
  /// estimates after the table mutates — even when the row count happens
  /// to stay the same (a Set-heavy chain transition, say).
  uint64_t content_version() const { return content_version_; }

  /// Pretty-printed preview of up to `max_rows` rows.
  std::string ToString(size_t max_rows = 20) const;

 private:
  /// Materializes rows_ from columnar_ if not yet done.
  void EnsureRows() const;

  inline static const std::shared_ptr<const ColumnarTable> kNoColumnar{};
  inline static const std::shared_ptr<const TableStats> kNoStats{};

  Schema schema_;
  /// Filled from construction on row-backed tables; on columnar-backed ones
  /// empty until first row access materializes it.
  internal::LazySlot<std::vector<Row>> rows_{std::vector<Row>{}};
  /// Filled while columnar-backed; reset by any mutation; also a cache for
  /// ToColumnar on row-backed tables.
  internal::LazySlot<std::shared_ptr<const ColumnarTable>> columnar_;
  /// Memoized statistics; reset together with columnar_ on mutation.
  internal::LazySlot<std::shared_ptr<const TableStats>> stats_;
  /// See content_version().
  uint64_t content_version_ = NextContentVersion();
};

}  // namespace mde::table

#endif  // MDE_TABLE_TABLE_H_
