#include "table/ops.h"

namespace mde::table {

bool EvalCmp(const Value& v, CmpOp op, const Value& lit) {
  switch (op) {
    case CmpOp::kEq:
      return v.Equals(lit);
    case CmpOp::kNe:
      return !v.Equals(lit);
    case CmpOp::kLt:
      return v.LessThan(lit);
    case CmpOp::kLe:
      return v.LessThan(lit) || v.Equals(lit);
    case CmpOp::kGt:
      return lit.LessThan(v);
    case CmpOp::kGe:
      return lit.LessThan(v) || v.Equals(lit);
  }
  return false;
}

Result<RowPredicate> ColumnCompare(const Schema& schema,
                                   const std::string& column, CmpOp op,
                                   Value literal) {
  MDE_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(column));
  return RowPredicate([idx, op, lit = std::move(literal)](const Row& row) {
    const Value& v = row[idx];
    if (v.is_null() || lit.is_null()) return false;
    return EvalCmp(v, op, lit);
  });
}

Result<Table> Union(const Table& a, const Table& b) {
  if (!(a.schema() == b.schema())) {
    return Status::InvalidArgument("UNION schema mismatch: " +
                                   a.schema().ToString() + " vs " +
                                   b.schema().ToString());
  }
  Table out = a;
  out.Reserve(a.num_rows() + b.num_rows());
  for (const Row& r : b.rows()) out.Append(r);
  return out;
}

}  // namespace mde::table
