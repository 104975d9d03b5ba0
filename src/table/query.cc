#include "table/query.h"

#include <numeric>

namespace mde::table {

Query::Query(const Table& input)
    : batch_{input.ToColumnar().value(), {}, true} {}

Query& Query::Fail(Status status) {
  status_ = std::move(status);
  return *this;
}

Query& Query::Where(const std::string& column, CmpOp op, Value literal) {
  if (!status_.ok()) return *this;
  auto sel = VecFilter(*batch_.cols, batch_.whole ? nullptr : &batch_.sel,
                       column, op, literal, VecPool());
  if (!sel.ok()) return Fail(sel.status());
  batch_.sel = std::move(sel).value();
  batch_.whole = false;
  return *this;
}

Query& Query::Select(std::vector<std::string> columns) {
  if (!status_.ok()) return *this;
  auto res = VecProject(batch_, columns);
  if (!res.ok()) return Fail(res.status());
  batch_ = std::move(res).value();
  return *this;
}

Query& Query::Join(const Table& right, std::vector<std::string> left_keys,
                   std::vector<std::string> right_keys) {
  if (!status_.ok()) return *this;
  ColumnarBatch rb{right.ToColumnar().value(), {}, true};
  auto res = VecHashJoin(batch_, rb, left_keys, right_keys, VecPool());
  if (!res.ok()) return Fail(res.status());
  batch_ = ColumnarBatch{std::move(res).value(), {}, true};
  return *this;
}

Query& Query::GroupByAgg(std::vector<std::string> keys,
                         std::vector<AggSpec> aggs) {
  if (!status_.ok()) return *this;
  auto res = VecGroupBy(batch_, keys, aggs, VecPool());
  if (!res.ok()) return Fail(res.status());
  batch_ = ColumnarBatch{std::move(res).value(), {}, true};
  return *this;
}

Query& Query::CountStar(const std::string& as) {
  return GroupByAgg({}, {{AggKind::kCount, "", as}});
}

Query& Query::Sort(const std::vector<std::string>& columns,
                   const std::vector<bool>& descending) {
  if (!status_.ok()) return *this;
  auto res = VecOrderBy(batch_, columns, descending);
  if (!res.ok()) return Fail(res.status());
  batch_.sel = std::move(res).value();
  batch_.whole = false;
  return *this;
}

Query& Query::OrderByAsc(std::vector<std::string> columns) {
  return Sort(columns, {});
}

Query& Query::OrderByDesc(std::vector<std::string> columns) {
  return Sort(columns, std::vector<bool>(columns.size(), true));
}

Query& Query::Limit(size_t n) {
  if (!status_.ok()) return *this;
  const size_t keep = std::min(n, batch_.size());
  if (batch_.whole) {
    batch_.sel.resize(keep);
    std::iota(batch_.sel.begin(), batch_.sel.end(), 0);
    batch_.whole = false;
  } else {
    batch_.sel.resize(keep);
  }
  return *this;
}

Query& Query::Distinct() {
  if (!status_.ok()) return *this;
  batch_.sel = VecDistinct(batch_);
  batch_.whole = false;
  return *this;
}

Result<Table> Query::Execute() {
  if (!status_.ok()) return status_;
  return BatchToTable(batch_, VecPool());
}

Result<Value> Query::ExecuteScalar() {
  MDE_ASSIGN_OR_RETURN(Table t, Execute());
  if (t.num_rows() != 1 || t.schema().num_columns() != 1) {
    return Status::FailedPrecondition(
        "ExecuteScalar requires a 1x1 result, got " + t.schema().ToString());
  }
  return t.row(0)[0];
}

}  // namespace mde::table
