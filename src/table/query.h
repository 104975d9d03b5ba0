#ifndef MDE_TABLE_QUERY_H_
#define MDE_TABLE_QUERY_H_

#include <string>
#include <vector>

#include "table/ops.h"
#include "table/table.h"
#include "table/vec_ops.h"
#include "util/status.h"

namespace mde::table {

/// Fluent, SQL-flavoured query builder over Tables. Errors (unknown column,
/// schema mismatch) are deferred: the first failure poisons the chain and is
/// reported by Execute(). Example (the paper's Algorithm 1 condition):
///
///   auto n = Query(person)
///                .Where("age", CmpOp::kLe, 4)
///                .Join(infected, {"pid"}, {"pid"})
///                .CountStar("n_infected_preschool")
///                .Execute();
///
/// Execution: every step runs on the vectorized columnar operators
/// (vec_ops.h). Steps pass selection vectors between kernels over the
/// input's cached column blocks and only materialize at Execute().
class Query {
 public:
  explicit Query(const Table& input);

  /// sigma: column <op> literal.
  Query& Where(const std::string& column, CmpOp op, Value literal);
  /// pi.
  Query& Select(std::vector<std::string> columns);
  /// Equi hash join against `right`.
  Query& Join(const Table& right, std::vector<std::string> left_keys,
              std::vector<std::string> right_keys);
  /// gamma: group by keys with aggregates.
  Query& GroupByAgg(std::vector<std::string> keys, std::vector<AggSpec> aggs);
  /// Global COUNT(*) named `as` — produces a 1x1 table.
  Query& CountStar(const std::string& as);
  Query& OrderByAsc(std::vector<std::string> columns);
  Query& OrderByDesc(std::vector<std::string> columns);
  Query& Limit(size_t n);
  Query& Distinct();

  /// Runs the accumulated pipeline.
  Result<Table> Execute();

  /// Convenience: Execute and return the single scalar cell of a 1x1 result.
  Result<Value> ExecuteScalar();

 private:
  Query& Sort(const std::vector<std::string>& columns,
              const std::vector<bool>& descending);
  /// Records the chain's first error.
  Query& Fail(Status status);

  ColumnarBatch batch_;
  Status status_;
};

}  // namespace mde::table

#endif  // MDE_TABLE_QUERY_H_
