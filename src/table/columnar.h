#ifndef MDE_TABLE_COLUMNAR_H_
#define MDE_TABLE_COLUMNAR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "table/table.h"
#include "table/value.h"
#include "util/aligned.h"
#include "util/check.h"
#include "util/status.h"

namespace mde::table {

/// One typed column block: the values of a single column for every row of a
/// ColumnarTable, stored as a contiguous typed vector instead of boxed
/// `Value` variants. Strings are dictionary-encoded (codes into an interned,
/// first-appearance-ordered dictionary shared across derived tables), and
/// nulls live in a packed 64-bit validity bitmap (empty bitmap = no nulls).
///
/// Fields are public on purpose: the vectorized kernels in vec_ops.cc are
/// tight loops over these vectors, in the same SoA spirit as
/// mcdb::BundleTable's stochastic blocks.
struct Column {
  DataType type = DataType::kNull;
  size_t size = 0;

  /// Exactly one of these carries data, selected by `type`. The blocks are
  /// 64-byte aligned (AlignedVector) so the SIMD kernel layer's widest loads
  /// start cache-line aligned and a 64-row bitmap word always covers one
  /// cache line of doubles.
  AlignedVector<int64_t> i64;  // kInt64
  AlignedVector<double> f64;   // kDouble
  AlignedVector<uint8_t> b8;   // kBool (0/1)
  /// kString: codes[i] indexes *dict. The dictionary is deduplicated
  /// (interned), ordered by first appearance, and shared by shared_ptr so
  /// projections / joins / compactions reuse it at zero cost.
  AlignedVector<uint32_t> codes;
  std::shared_ptr<const std::vector<std::string>> dict;

  /// Packed validity bitmap: bit i set = row i non-null. Empty means every
  /// row is valid. Padding bits of the last word are zero.
  AlignedVector<uint64_t> valid;

  bool IsValid(size_t i) const {
    return valid.empty() || ((valid[i >> 6] >> (i & 63)) & 1u);
  }

  /// Boxes row i back into a Value (null-aware). Materialization path only;
  /// kernels read the typed vectors directly.
  Value ValueAt(size_t i) const;

  const std::string& StringAt(size_t i) const { return (*dict)[codes[i]]; }
};

/// Append-oriented builder for one column. Interns strings and tracks the
/// validity bitmap lazily (no bitmap is allocated until the first null).
class ColumnBuilder {
 public:
  explicit ColumnBuilder(DataType type);

  void Reserve(size_t n);
  size_t size() const { return col_.size; }

  void AppendNull();
  /// The typed numeric appends are inline for the common no-null column
  /// (per-row transitions append one value per draw); a column that has
  /// seen a null takes the out-of-line bitmap path.
  void AppendInt64(int64_t v) {
    MDE_CHECK(col_.type == DataType::kInt64);
    if (has_nulls_) return AppendInt64WithNulls(v);
    col_.i64.push_back(v);
    ++col_.size;
  }
  void AppendDouble(double v) {
    MDE_CHECK(col_.type == DataType::kDouble);
    if (has_nulls_) return AppendDoubleWithNulls(v);
    col_.f64.push_back(v);
    ++col_.size;
  }
  void AppendBool(bool v);
  void AppendString(const std::string& v);
  /// Boxed append: null always accepted; otherwise the Value's type must
  /// equal the column type (aborts on a mismatch, which the Table cell-type
  /// invariant rules out).
  void AppendValue(const Value& v);

  /// Finalizes (pads/shrinks the bitmap) and returns the column.
  std::shared_ptr<const Column> Finish();

 private:
  void AppendInt64WithNulls(int64_t v);
  void AppendDoubleWithNulls(double v);
  void MarkValid();
  void MarkNull();

  Column col_;
  std::shared_ptr<std::vector<std::string>> dict_;
  std::unordered_map<std::string, uint32_t> interned_;
  bool has_nulls_ = false;
};

/// Wraps a freshly built column block with `table.columnar` memory-pool
/// accounting (obs/mem.h): its directly-owned footprint is recorded as
/// allocated now and as freed when the last owner drops the block. Used by
/// ColumnBuilder::Finish and the vectorized operators' gather path.
std::shared_ptr<const Column> AccountColumnBlock(std::shared_ptr<Column> col);

/// Column-oriented relation: the storage representation behind the
/// vectorized operator suite (vec_ops.h), the engine's only executor.
/// Schemas are identical to Table schemas; Table::ToColumnar and
/// Table::FromColumnar convert between the two, and Table keeps a
/// shared_ptr back to the ColumnarTable it was materialized from so the
/// conversion is O(1) for tables produced by the columnar pipeline.
class ColumnarTable {
 public:
  ColumnarTable(Schema schema, std::vector<std::shared_ptr<const Column>> cols,
                size_t num_rows);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return cols_.size(); }
  /// Content-version stamp drawn from the same process-wide sequence as
  /// Table::content_version(); every Table wrapped over these blocks
  /// reports it, so repeated wraps share plan feedback (cost.h).
  uint64_t content_version() const { return content_version_; }
  const Column& col(size_t i) const { return *cols_[i]; }
  const std::shared_ptr<const Column>& col_ptr(size_t i) const {
    return cols_[i];
  }

  /// Boxes row i (materialization path).
  Row MaterializeRow(size_t i) const;

 private:
  Schema schema_;
  std::vector<std::shared_ptr<const Column>> cols_;
  size_t num_rows_ = 0;
  uint64_t content_version_ = NextContentVersion();
};

/// Builds a ColumnarTable column-by-column. Columns may be appended
/// independently (e.g. bulk-filled from a typed vector) or row-wise; Finish
/// checks that all columns have the same length.
class ColumnarTableBuilder {
 public:
  explicit ColumnarTableBuilder(Schema schema);

  void Reserve(size_t rows);
  ColumnBuilder& column(size_t i) { return builders_[i]; }
  size_t num_columns() const { return builders_.size(); }

  /// Replaces column i wholesale with an existing block (zero-copy column
  /// reuse across derived tables); the block's type must match the schema.
  void SetColumn(size_t i, std::shared_ptr<const Column> col);

  Result<std::shared_ptr<const ColumnarTable>> Finish();

 private:
  Schema schema_;
  std::vector<ColumnBuilder> builders_;
  std::vector<std::shared_ptr<const Column>> prebuilt_;
};

}  // namespace mde::table

#endif  // MDE_TABLE_COLUMNAR_H_
