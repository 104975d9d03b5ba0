#include "table/table.h"

#include <atomic>
#include <sstream>

#include "obs/context.h"
#include "obs/metrics.h"
#include "table/columnar.h"
#include "util/check.h"

namespace mde::table {

namespace {

std::shared_ptr<const ColumnarTable> ConvertRows(const Schema& schema,
                                                 const std::vector<Row>& rows) {
  std::vector<ColumnBuilder> builders;
  builders.reserve(schema.num_columns());
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    builders.emplace_back(schema.column(c).type);
    builders.back().Reserve(rows.size());
  }
  for (const Row& r : rows) {
    for (size_t c = 0; c < builders.size(); ++c) builders[c].AppendValue(r[c]);
  }
  std::vector<std::shared_ptr<const Column>> cols;
  cols.reserve(builders.size());
  for (auto& b : builders) cols.push_back(b.Finish());
  return std::make_shared<const ColumnarTable>(schema, std::move(cols),
                                               rows.size());
}

/// The cell-type invariant (table.h): aborts unless `v` is null or of
/// column `c`'s declared type.
void CheckCell(const Schema& schema, size_t c, const Value& v) {
  MDE_CHECK_MSG(v.is_null() || v.type() == schema.column(c).type,
                "cell type disagrees with declared column type");
}

void CheckRow(const Schema& schema, const Row& row) {
  MDE_CHECK_EQ(row.size(), schema.num_columns());
  for (size_t c = 0; c < row.size(); ++c) CheckCell(schema, c, row[c]);
}

}  // namespace

uint64_t NextContentVersion() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

Schema::Schema(std::vector<ColumnSpec> columns) : columns_(std::move(columns)) {
  index_.reserve(columns_.size());
  for (size_t i = 0; i < columns_.size(); ++i) {
    const bool inserted = index_.emplace(columns_[i].name, i).second;
    MDE_CHECK_MSG(inserted, "duplicate column name in schema");
  }
}

Result<size_t> Schema::IndexOf(const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) return Status::NotFound("column not found: " + name);
  return it->second;
}

bool Schema::Has(const std::string& name) const {
  return index_.count(name) > 0;
}

Schema Schema::Concat(const Schema& left, const Schema& right,
                      const std::string& right_prefix) {
  std::vector<ColumnSpec> cols = left.columns_;
  for (const auto& c : right.columns_) {
    std::string name = c.name;
    if (left.Has(name)) name = right_prefix + name;
    cols.push_back({std::move(name), c.type});
  }
  return Schema(std::move(cols));
}

bool Schema::operator==(const Schema& other) const {
  if (columns_.size() != other.columns_.size()) return false;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name != other.columns_[i].name ||
        columns_[i].type != other.columns_[i].type) {
      return false;
    }
  }
  return true;
}

std::string Schema::ToString() const {
  std::ostringstream os;
  os << "(";
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) os << ", ";
    os << columns_[i].name << " " << DataTypeName(columns_[i].type);
  }
  os << ")";
  return os.str();
}

Table::Table(Schema schema, std::vector<Row> rows)
    : schema_(std::move(schema)), rows_(std::move(rows)) {
  for (const Row& r : rows_.get()) CheckRow(schema_, r);
}

size_t Table::num_rows() const {
  // Row-backed tables always have rows_ filled; columnar-backed ones may
  // not yet, and then the blocks know the count.
  return rows_.ready() ? rows_.get().size() : columnar_.get()->num_rows();
}

void Table::EnsureRows() const {
  if (rows_.ready()) return;
  rows_.Fill([this](std::vector<Row>& rows) {
    const ColumnarTable& cols = *columnar_.get();
    const size_t n = cols.num_rows();
    rows.reserve(n);
    for (size_t i = 0; i < n; ++i) rows.push_back(cols.MaterializeRow(i));
    return true;
  });
}

const Row& Table::row(size_t i) const {
  EnsureRows();
  return rows_.get()[i];
}

const std::vector<Row>& Table::rows() const {
  EnsureRows();
  return rows_.get();
}

void Table::Append(Row row) {
  CheckRow(schema_, row);
  EnsureRows();
  columnar_.Reset();
  stats_.Reset();
  content_version_ = NextContentVersion();
  rows_.mut().push_back(std::move(row));
}

void Table::Reserve(size_t n) {
  EnsureRows();
  rows_.mut().reserve(n);
}

Result<Value> Table::At(size_t row, const std::string& column) const {
  MDE_CHECK_LT(row, num_rows());
  MDE_ASSIGN_OR_RETURN(size_t idx, schema_.IndexOf(column));
  if (!rows_.ready()) return columnar_.get()->col(idx).ValueAt(row);
  return rows_.get()[row][idx];
}

void Table::Set(size_t row, size_t col, Value v) {
  MDE_CHECK_LT(row, num_rows());
  MDE_CHECK_LT(col, schema_.num_columns());
  CheckCell(schema_, col, v);
  EnsureRows();
  columnar_.Reset();
  stats_.Reset();
  content_version_ = NextContentVersion();
  rows_.mut()[row][col] = std::move(v);
}

Result<std::shared_ptr<const ColumnarTable>> Table::ToColumnar() const {
  if (columnar_.ready()) {
    // A reused cached conversion is work the active query did NOT pay for;
    // the attribution row records how often each query rode the cache.
    MDE_OBS_COUNT("table.columnar_cache_hits", 1);
    MDE_OBS_ATTR_ADD(cache_hits, 1);
    return columnar_.get();
  }
  // Not yet converted, so row-backed: rows_ is the storage.
  columnar_.Fill([this](std::shared_ptr<const ColumnarTable>& slot) {
    slot = ConvertRows(schema_, rows_.get());
    return true;
  });
  return columnar_.get();
}

Table Table::FromColumnar(std::shared_ptr<const ColumnarTable> cols) {
  MDE_CHECK(cols != nullptr);
  Table t(cols->schema());
  // Tables wrapped from the same immutable blocks share one stamp, so
  // re-wrapping (SimSQL copies deterministic tables into every version)
  // keeps plan feedback applicable across the wraps.
  t.content_version_ = cols->content_version();
  t.columnar_.Set(std::move(cols));
  t.rows_.Reset();
  return t;
}

std::string Table::ToString(size_t max_rows) const {
  EnsureRows();
  const std::vector<Row>& rows = rows_.get();
  std::ostringstream os;
  os << schema_.ToString() << " [" << rows.size() << " rows]\n";
  const size_t n = std::min(max_rows, rows.size());
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < rows[i].size(); ++j) {
      if (j > 0) os << " | ";
      os << rows[i][j].ToString();
    }
    os << "\n";
  }
  if (n < rows.size()) os << "... (" << rows.size() - n << " more)\n";
  return os.str();
}

}  // namespace mde::table
