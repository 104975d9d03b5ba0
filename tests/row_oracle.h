#ifndef MDE_TESTS_ROW_ORACLE_H_
#define MDE_TESTS_ROW_ORACLE_H_

#include <string>
#include <vector>

#include "table/ops.h"
#include "table/table.h"
#include "util/status.h"

/// Row-at-a-time relational operators: the reference oracle the
/// differential tests compare the vectorized executor against. Each one is
/// the plainest loop over boxed rows with the engine's documented
/// semantics (nulls never match or join, strict same-type key equality,
/// stable sorts, first-appearance group and distinct order).
namespace mde::table::oracle {

/// sigma_p(t): rows of `t` satisfying `pred`.
Table Filter(const Table& t, const RowPredicate& pred);

/// pi_cols(t): named-column projection (errors on unknown columns).
Result<Table> Project(const Table& t, const std::vector<std::string>& columns);

/// Equi-join on left.column == right.column pairs using a hash table built
/// over the right input. Output schema is Concat(left, right, "r.").
Result<Table> HashJoin(const Table& left, const Table& right,
                       const std::vector<std::string>& left_keys,
                       const std::vector<std::string>& right_keys);

/// Hash group-by with the given key columns (may be empty: global
/// aggregate). Aggregate inputs must be numeric (except kCount).
Result<Table> GroupBy(const Table& t, const std::vector<std::string>& keys,
                      const std::vector<AggSpec>& aggs);

/// Sorts by the given columns ascending (descending when the matching
/// entry of `descending` is true; `descending` may be empty = all
/// ascending). Stable.
Result<Table> OrderBy(const Table& t, const std::vector<std::string>& columns,
                      std::vector<bool> descending = {});

/// Removes duplicate rows (strict variant equality).
Table Distinct(const Table& t);

/// First `n` rows.
Table Limit(const Table& t, size_t n);

/// Mean of the non-null cells of `column`; error when there are none.
Result<double> AvgColumn(const Table& t, const std::string& column);

}  // namespace mde::table::oracle

#endif  // MDE_TESTS_ROW_ORACLE_H_
