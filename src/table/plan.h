#ifndef MDE_TABLE_PLAN_H_
#define MDE_TABLE_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "table/ops.h"
#include "table/table.h"
#include "util/status.h"

namespace mde::table {

/// A small logical-plan layer with a classical rewrite optimizer. The
/// paper's Section 2.3 grounds simulation-run optimization in query
/// optimization ("the problem of simulation-experiment optimization
/// subsumes the problem of query optimization"); this is the query side of
/// that analogy: plans are built declaratively, an optimizer pushes
/// selections below joins, and the executor reports how many intermediate
/// rows each strategy touched.
class PlanNode;
using PlanPtr = std::shared_ptr<const PlanNode>;

/// A structured (and therefore optimizable) predicate: column <op> literal.
struct PlanPredicate {
  std::string column;
  CmpOp op = CmpOp::kEq;
  Value literal;
};

class PlanNode {
 public:
  enum class Kind { kScan, kFilter, kProject, kJoin };

  Kind kind() const { return kind_; }

  // --- constructors (free builders below) ---
  static PlanPtr Scan(const Table* table, std::string name);
  static PlanPtr Filter(PlanPtr child, std::vector<PlanPredicate> preds);
  static PlanPtr Project(PlanPtr child, std::vector<std::string> columns);
  /// Projection with output renaming: column i of the result is source
  /// column `columns[i]` under the name `aliases[i]`. The optimizer uses
  /// this to restore the exact as-written output schema after a join
  /// reorder changes which side gets the "r." duplicate prefix; the
  /// vectorized executor implements it as a zero-copy schema rewrap.
  static PlanPtr ProjectAs(PlanPtr child, std::vector<std::string> columns,
                           std::vector<std::string> aliases);
  static PlanPtr Join(PlanPtr left, PlanPtr right,
                      std::vector<std::string> left_keys,
                      std::vector<std::string> right_keys);

  // --- accessors used by the optimizer/executor ---
  const Table* table() const { return table_; }
  const std::string& name() const { return name_; }
  const PlanPtr& child() const { return child_; }
  const PlanPtr& left() const { return left_; }
  const PlanPtr& right() const { return right_; }
  const std::vector<PlanPredicate>& predicates() const { return preds_; }
  const std::vector<std::string>& columns() const { return columns_; }
  /// Output names for kProject, parallel to columns(); empty when the
  /// projection does not rename.
  const std::vector<std::string>& aliases() const { return aliases_; }
  const std::vector<std::string>& left_keys() const { return left_keys_; }
  const std::vector<std::string>& right_keys() const { return right_keys_; }

  /// The schema this node produces (resolved structurally).
  Result<Schema> OutputSchema() const;

 private:
  friend PlanPtr MakeNode(PlanNode&&);
  PlanNode() = default;

  Kind kind_ = Kind::kScan;
  const Table* table_ = nullptr;  // kScan
  std::string name_;              // kScan
  PlanPtr child_;                 // kFilter / kProject
  std::vector<PlanPredicate> preds_;
  std::vector<std::string> columns_;
  std::vector<std::string> aliases_;  // kProject renames (may be empty)
  PlanPtr left_, right_;          // kJoin
  std::vector<std::string> left_keys_, right_keys_;
};

/// Work counters from one plan execution.
struct ExecutionStats {
  /// Rows read from base tables.
  size_t rows_scanned = 0;
  /// Rows materialized by intermediate operators (filters, joins,
  /// projections) — the cost the optimizer minimizes.
  size_t intermediate_rows = 0;

  /// One operator's profile from an EXPLAIN ANALYZE run.
  struct NodeProfile {
    /// Rows the operator produced (for vectorized nodes, the selection
    /// cardinality — nothing is materialized until the plan root).
    size_t rows_out = 0;
    /// Inclusive wall time: this operator plus everything below it.
    double wall_ns = 0.0;
    /// Vectorized chunk count over the operator's input domain
    /// (ceil(rows / kVecGrain)).
    size_t chunks = 0;
    /// The optimizer's cardinality estimate for this node, or -1 when the
    /// plan was executed without estimation (no cost model consulted).
    /// Compared against rows_out by ExplainAnalyze and folded back into
    /// the catalog so the next run of the same (sub)plan estimates from
    /// observed actuals.
    double est_rows = -1.0;
  };
  /// Per-operator profiles indexed by the plan's pre-order position (node,
  /// then child — left before right for joins), so index i always refers to
  /// the same plan node. Filled whenever a stats pointer is passed to
  /// ExecutePlan; cleared at the start of each execution.
  std::vector<NodeProfile> nodes;
};

/// Executes a plan as written (no rewrites) on the vectorized columnar
/// operators (vec_ops.h): batches of shared column blocks and selection
/// vectors flow between operators, and only the root materializes.
Result<Table> ExecutePlan(const PlanPtr& plan, ExecutionStats* stats);

/// EXPLAIN ANALYZE: the operator tree annotated with the per-node profile
/// that ExecutePlan collected into `stats` — rows produced, inclusive wall
/// time and chunk counts, each node tagged "vec" for the columnar executor
/// that ran it. `plan` must be the same plan that produced `stats`.
std::string ExplainAnalyze(const PlanPtr& plan, const ExecutionStats& stats);

/// Cost-based optimization (optimizer.cc), four passes in order: selection
/// pushdown through projections and joins; join reordering of each join
/// cluster (exhaustive left-deep DP up to 6 relations, greedy up to 16,
/// as written above that), connected orders only, with a renaming
/// projection restoring the as-written schema; projection pushdown
/// narrowing scans to the columns consumed above; conjunctive predicates
/// ordered most selective first. Driven by the statistics catalog
/// (catalog.h) and cost model (cost.h). Returns a semantically equivalent
/// plan: same rows and output schema, row order preserved except across
/// join reorders (hash join output order is an implementation detail; use
/// order-insensitive comparison when asserting on reordered plans).
Result<PlanPtr> OptimizePlan(const PlanPtr& plan);

/// Pretty-printed operator tree for debugging / EXPLAIN output.
std::string ExplainPlan(const PlanPtr& plan);

}  // namespace mde::table

#endif  // MDE_TABLE_PLAN_H_
