#include "table/columnar.h"

#include <algorithm>
#include <cassert>

#include "obs/mem.h"
#include "util/check.h"

namespace mde::table {

namespace {

/// Sets bit i of a packed bitmap sized for `n` bits.
void SetBit(AlignedVector<uint64_t>* bits, size_t i) {
  (*bits)[i >> 6] |= uint64_t{1} << (i & 63);
}

/// Debug-only check that a finished block's storage honours the 64-byte
/// alignment contract the SIMD kernels assume for cache-line-aligned
/// chunk starts. Compiled out under NDEBUG.
void AssertColumnAligned(const Column& c) {
#ifndef NDEBUG
  assert(c.i64.empty() || IsAligned(c.i64.data(), 64));
  assert(c.f64.empty() || IsAligned(c.f64.data(), 64));
  assert(c.b8.empty() || IsAligned(c.b8.data(), 64));
  assert(c.codes.empty() || IsAligned(c.codes.data(), 64));
  assert(c.valid.empty() || IsAligned(c.valid.data(), 64));
#else
  (void)c;
#endif
}

}  // namespace

Value Column::ValueAt(size_t i) const {
  if (!IsValid(i)) return Value();
  switch (type) {
    case DataType::kInt64:
      return Value(i64[i]);
    case DataType::kDouble:
      return Value(f64[i]);
    case DataType::kBool:
      return Value(b8[i] != 0);
    case DataType::kString:
      return Value((*dict)[codes[i]]);
    case DataType::kNull:
      return Value();
  }
  return Value();
}

ColumnBuilder::ColumnBuilder(DataType type) {
  col_.type = type;
  if (type == DataType::kString) {
    dict_ = std::make_shared<std::vector<std::string>>();
    col_.dict = dict_;
  }
}

void ColumnBuilder::Reserve(size_t n) {
  switch (col_.type) {
    case DataType::kInt64:
      col_.i64.reserve(n);
      break;
    case DataType::kDouble:
      col_.f64.reserve(n);
      break;
    case DataType::kBool:
      col_.b8.reserve(n);
      break;
    case DataType::kString:
      col_.codes.reserve(n);
      break;
    case DataType::kNull:
      break;
  }
}

void ColumnBuilder::MarkValid() {
  if (has_nulls_) SetBit(&col_.valid, col_.size);
  ++col_.size;
}

void ColumnBuilder::MarkNull() {
  if (!has_nulls_) {
    // First null: backfill the bitmap with "valid" for every prior row.
    has_nulls_ = true;
    col_.valid.assign((std::max<size_t>(col_.size + 1, 64) + 63) / 64, 0);
    for (size_t i = 0; i < col_.size; ++i) SetBit(&col_.valid, i);
  }
  ++col_.size;
}

void ColumnBuilder::AppendNull() {
  if (has_nulls_ && (col_.size >> 6) >= col_.valid.size()) {
    col_.valid.push_back(0);
  }
  switch (col_.type) {
    case DataType::kInt64:
      col_.i64.push_back(0);
      break;
    case DataType::kDouble:
      col_.f64.push_back(0.0);
      break;
    case DataType::kBool:
      col_.b8.push_back(0);
      break;
    case DataType::kString:
      col_.codes.push_back(0);
      break;
    case DataType::kNull:
      break;
  }
  MarkNull();
}

void ColumnBuilder::AppendInt64WithNulls(int64_t v) {
  if ((col_.size >> 6) >= col_.valid.size()) col_.valid.push_back(0);
  col_.i64.push_back(v);
  MarkValid();
}

void ColumnBuilder::AppendDoubleWithNulls(double v) {
  if ((col_.size >> 6) >= col_.valid.size()) col_.valid.push_back(0);
  col_.f64.push_back(v);
  MarkValid();
}

void ColumnBuilder::AppendBool(bool v) {
  MDE_CHECK(col_.type == DataType::kBool);
  if (has_nulls_ && (col_.size >> 6) >= col_.valid.size()) {
    col_.valid.push_back(0);
  }
  col_.b8.push_back(v ? 1 : 0);
  MarkValid();
}

void ColumnBuilder::AppendString(const std::string& v) {
  MDE_CHECK(col_.type == DataType::kString);
  if (has_nulls_ && (col_.size >> 6) >= col_.valid.size()) {
    col_.valid.push_back(0);
  }
  auto it = interned_.find(v);
  uint32_t code;
  if (it != interned_.end()) {
    code = it->second;
  } else {
    code = static_cast<uint32_t>(dict_->size());
    dict_->push_back(v);
    interned_.emplace(v, code);
  }
  col_.codes.push_back(code);
  MarkValid();
}

void ColumnBuilder::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  MDE_CHECK(v.type() == col_.type);
  switch (col_.type) {
    case DataType::kInt64:
      AppendInt64(v.AsInt());
      return;
    case DataType::kDouble:
      AppendDouble(v.AsDouble());
      return;
    case DataType::kBool:
      AppendBool(v.AsBool());
      return;
    case DataType::kString:
      AppendString(v.AsString());
      return;
    case DataType::kNull:
      return;
  }
}

namespace {

/// Directly-owned footprint of one column block. The string dictionary is
/// excluded: it is shared across columns/tables by shared_ptr, so charging
/// it to every holder would overstate the pool.
uint64_t ApproxColumnBytes(const Column& c) {
  uint64_t b = sizeof(Column);
  b += c.i64.capacity() * sizeof(int64_t);
  b += c.f64.capacity() * sizeof(double);
  b += c.b8.capacity() * sizeof(uint8_t);
  b += c.codes.capacity() * sizeof(uint32_t);
  b += c.valid.capacity() * sizeof(uint64_t);
  return b;
}

}  // namespace

std::shared_ptr<const Column> AccountColumnBlock(
    std::shared_ptr<Column> col) {
  // Account the block to the table.columnar pool for exactly as long as any
  // owner keeps it alive: alloc here, free in the shared_ptr deleter. The
  // pool handle is resolved once; each event is a relaxed fetch_add.
  static obs::MemPool pool("table.columnar");
  const uint64_t bytes = ApproxColumnBytes(*col);
  pool.RecordAlloc(bytes);
  const Column* raw = col.get();
  return std::shared_ptr<const Column>(
      raw, [col = std::move(col), bytes](const Column*) mutable {
        pool.RecordFree(bytes);
        col.reset();
      });
}

std::shared_ptr<const Column> ColumnBuilder::Finish() {
  if (!has_nulls_) col_.valid.clear();
  AssertColumnAligned(col_);
  return AccountColumnBlock(std::make_shared<Column>(std::move(col_)));
}

ColumnarTable::ColumnarTable(Schema schema,
                             std::vector<std::shared_ptr<const Column>> cols,
                             size_t num_rows)
    : schema_(std::move(schema)), cols_(std::move(cols)), num_rows_(num_rows) {
  MDE_CHECK_EQ(cols_.size(), schema_.num_columns());
  for (const auto& c : cols_) {
    MDE_CHECK(c != nullptr);
    MDE_CHECK_EQ(c->size, num_rows_);
  }
}

Row ColumnarTable::MaterializeRow(size_t i) const {
  Row r;
  r.reserve(cols_.size());
  for (const auto& c : cols_) r.push_back(c->ValueAt(i));
  return r;
}

ColumnarTableBuilder::ColumnarTableBuilder(Schema schema)
    : schema_(std::move(schema)) {
  builders_.reserve(schema_.num_columns());
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    builders_.emplace_back(schema_.column(c).type);
  }
  prebuilt_.resize(schema_.num_columns());
}

void ColumnarTableBuilder::Reserve(size_t rows) {
  for (auto& b : builders_) b.Reserve(rows);
}

void ColumnarTableBuilder::SetColumn(size_t i,
                                     std::shared_ptr<const Column> col) {
  MDE_CHECK_LT(i, prebuilt_.size());
  MDE_CHECK(col != nullptr && col->type == schema_.column(i).type);
  prebuilt_[i] = std::move(col);
}

Result<std::shared_ptr<const ColumnarTable>> ColumnarTableBuilder::Finish() {
  std::vector<std::shared_ptr<const Column>> cols(builders_.size());
  size_t rows = 0;
  for (size_t c = 0; c < builders_.size(); ++c) {
    cols[c] = prebuilt_[c] != nullptr ? prebuilt_[c] : builders_[c].Finish();
    if (c == 0) {
      rows = cols[c]->size;
    } else if (cols[c]->size != rows) {
      return Status::InvalidArgument(
          "ColumnarTableBuilder: columns have unequal lengths");
    }
  }
  return std::make_shared<const ColumnarTable>(schema_, std::move(cols), rows);
}

}  // namespace mde::table
