#ifndef MDE_TABLE_OPS_H_
#define MDE_TABLE_OPS_H_

#include <functional>
#include <string>

#include "table/table.h"
#include "util/status.h"

namespace mde::table {

/// Row predicate bound to a schema at build time so evaluation is a plain
/// index lookup.
using RowPredicate = std::function<bool(const Row&)>;

/// Comparison operators for column predicates.
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// Evaluates `v <op> lit` with the Value comparison semantics the
/// vectorized kernels implement (numeric coercion through double,
/// cross-type ranking). Nulls are the caller's concern: a predicate over a
/// null value or literal is false before this is consulted.
bool EvalCmp(const Value& v, CmpOp op, const Value& lit);

/// Builds a predicate `column <op> literal` resolved against `schema`, with
/// VecFilter's semantics (nulls never match).
Result<RowPredicate> ColumnCompare(const Schema& schema,
                                   const std::string& column, CmpOp op,
                                   Value literal);

/// Aggregate function kinds for VecGroupBy / Query::GroupByAgg.
enum class AggKind { kCount, kSum, kAvg, kMin, kMax };

/// One aggregate: `kind` over `column` (column ignored for kCount), output
/// column named `as`.
struct AggSpec {
  AggKind kind;
  std::string column;
  std::string as;
};

/// Bag union; schemas must match exactly.
Result<Table> Union(const Table& a, const Table& b);

}  // namespace mde::table

#endif  // MDE_TABLE_OPS_H_
