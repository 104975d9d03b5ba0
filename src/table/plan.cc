#include "table/plan.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "obs/context.h"
#include "obs/trace.h"
#include "table/cost.h"
#include "table/vec_ops.h"
#include "util/check.h"

namespace mde::table {

PlanPtr MakeNode(PlanNode&& node) {
  return std::make_shared<const PlanNode>(std::move(node));
}

PlanPtr PlanNode::Scan(const Table* table, std::string name) {
  MDE_CHECK(table != nullptr);
  PlanNode n;
  n.kind_ = Kind::kScan;
  n.table_ = table;
  n.name_ = std::move(name);
  return MakeNode(std::move(n));
}

PlanPtr PlanNode::Filter(PlanPtr child, std::vector<PlanPredicate> preds) {
  MDE_CHECK(child != nullptr);
  PlanNode n;
  n.kind_ = Kind::kFilter;
  n.child_ = std::move(child);
  n.preds_ = std::move(preds);
  return MakeNode(std::move(n));
}

PlanPtr PlanNode::Project(PlanPtr child, std::vector<std::string> columns) {
  MDE_CHECK(child != nullptr);
  PlanNode n;
  n.kind_ = Kind::kProject;
  n.child_ = std::move(child);
  n.columns_ = std::move(columns);
  return MakeNode(std::move(n));
}

PlanPtr PlanNode::ProjectAs(PlanPtr child, std::vector<std::string> columns,
                            std::vector<std::string> aliases) {
  MDE_CHECK(child != nullptr);
  MDE_CHECK_EQ(columns.size(), aliases.size());
  PlanNode n;
  n.kind_ = Kind::kProject;
  n.child_ = std::move(child);
  n.columns_ = std::move(columns);
  n.aliases_ = std::move(aliases);
  return MakeNode(std::move(n));
}

PlanPtr PlanNode::Join(PlanPtr left, PlanPtr right,
                       std::vector<std::string> left_keys,
                       std::vector<std::string> right_keys) {
  MDE_CHECK(left != nullptr && right != nullptr);
  PlanNode n;
  n.kind_ = Kind::kJoin;
  n.left_ = std::move(left);
  n.right_ = std::move(right);
  n.left_keys_ = std::move(left_keys);
  n.right_keys_ = std::move(right_keys);
  return MakeNode(std::move(n));
}

Result<Schema> PlanNode::OutputSchema() const {
  switch (kind_) {
    case Kind::kScan:
      return table_->schema();
    case Kind::kFilter:
      return child_->OutputSchema();
    case Kind::kProject: {
      MDE_ASSIGN_OR_RETURN(Schema in, child_->OutputSchema());
      std::vector<ColumnSpec> cols;
      for (size_t i = 0; i < columns_.size(); ++i) {
        MDE_ASSIGN_OR_RETURN(size_t idx, in.IndexOf(columns_[i]));
        cols.push_back(
            {aliases_.empty() ? columns_[i] : aliases_[i],
             in.column(idx).type});
      }
      return Schema(std::move(cols));
    }
    case Kind::kJoin: {
      MDE_ASSIGN_OR_RETURN(Schema l, left_->OutputSchema());
      MDE_ASSIGN_OR_RETURN(Schema r, right_->OutputSchema());
      return Schema::Concat(l, r, "r.");
    }
  }
  return Status::Internal("unknown plan node");
}

namespace {

using ProfileClock = std::chrono::steady_clock;

/// Opens a NodeProfile slot for the node about to execute and returns its
/// pre-order index. Profiles are appended node-first, then children (left
/// before right).
size_t OpenProfile(ExecutionStats* stats) {
  const size_t index = stats->nodes.size();
  stats->nodes.emplace_back();
  return index;
}

Result<ColumnarBatch> ExecBatch(const PlanPtr& plan, ExecutionStats* stats,
                                ThreadPool* pool);

/// Vectorized executor: batches of shared column blocks + selection vectors
/// flow between operators; nothing is materialized until the plan root.
/// Stats count scanned base rows and the rows each intermediate operator
/// produced.
Result<ColumnarBatch> ExecBatchImpl(const PlanPtr& plan,
                                    ExecutionStats* stats, ThreadPool* pool) {
  switch (plan->kind()) {
    case PlanNode::Kind::kScan: {
      MDE_ASSIGN_OR_RETURN(auto cols, plan->table()->ToColumnar());
      if (stats != nullptr) stats->rows_scanned += cols->num_rows();
      return ColumnarBatch{std::move(cols), {}, true};
    }
    case PlanNode::Kind::kFilter: {
      MDE_ASSIGN_OR_RETURN(ColumnarBatch in,
                           ExecBatch(plan->child(), stats, pool));
      for (const PlanPredicate& p : plan->predicates()) {
        MDE_ASSIGN_OR_RETURN(
            SelVector sel,
            VecFilter(*in.cols, in.whole ? nullptr : &in.sel, p.column, p.op,
                      p.literal, pool));
        in.sel = std::move(sel);
        in.whole = false;
      }
      if (stats != nullptr) stats->intermediate_rows += in.size();
      return in;
    }
    case PlanNode::Kind::kProject: {
      MDE_ASSIGN_OR_RETURN(ColumnarBatch in,
                           ExecBatch(plan->child(), stats, pool));
      MDE_ASSIGN_OR_RETURN(ColumnarBatch out,
                           VecProject(in, plan->columns()));
      if (!plan->aliases().empty()) {
        // Renaming projection: rewrap the same column blocks under the
        // alias schema — zero copies, zero row work.
        std::vector<ColumnSpec> specs;
        std::vector<std::shared_ptr<const Column>> ptrs;
        specs.reserve(out.cols->num_columns());
        ptrs.reserve(out.cols->num_columns());
        for (size_t i = 0; i < out.cols->num_columns(); ++i) {
          specs.push_back(
              {plan->aliases()[i], out.cols->schema().column(i).type});
          ptrs.push_back(out.cols->col_ptr(i));
        }
        out.cols = std::make_shared<const ColumnarTable>(
            Schema(std::move(specs)), std::move(ptrs),
            out.cols->num_rows());
      }
      if (stats != nullptr) stats->intermediate_rows += out.size();
      return out;
    }
    case PlanNode::Kind::kJoin: {
      MDE_ASSIGN_OR_RETURN(ColumnarBatch l,
                           ExecBatch(plan->left(), stats, pool));
      MDE_ASSIGN_OR_RETURN(ColumnarBatch r,
                           ExecBatch(plan->right(), stats, pool));
      MDE_ASSIGN_OR_RETURN(
          auto cols,
          VecHashJoin(l, r, plan->left_keys(), plan->right_keys(), pool));
      if (stats != nullptr) stats->intermediate_rows += cols->num_rows();
      return ColumnarBatch{std::move(cols), {}, true};
    }
  }
  return Status::Internal("unknown plan node");
}

/// Profiling shim. The chunk count is derived from the operator's input
/// domain: the node's first child's output cardinality (pre-order puts that
/// child's profile at index + 1), or the scanned table itself for leaves.
Result<ColumnarBatch> ExecBatch(const PlanPtr& plan, ExecutionStats* stats,
                                ThreadPool* pool) {
  if (stats == nullptr) return ExecBatchImpl(plan, stats, pool);
  const size_t index = OpenProfile(stats);
  const auto t0 = ProfileClock::now();
  Result<ColumnarBatch> r = ExecBatchImpl(plan, stats, pool);
  ExecutionStats::NodeProfile& prof = stats->nodes[index];
  prof.wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          ProfileClock::now() - t0)
          .count());
  if (r.ok()) prof.rows_out = r.value().size();
  const size_t in_rows = plan->kind() == PlanNode::Kind::kScan
                             ? prof.rows_out
                             : stats->nodes[index + 1].rows_out;
  prof.chunks = (in_rows + kVecGrain - 1) / kVecGrain;
  return r;
}

}  // namespace

namespace {

/// Post-execution bookkeeping for profiled runs: annotate each profile
/// with the cost model's estimate (computed from the catalog state the
/// optimizer saw — feedback from THIS run is folded in afterwards), then
/// record the actuals so the next run of the same (sub)plans estimates
/// from observation.
void FeedbackProfiledRun(const PlanPtr& plan, ExecutionStats* stats) {
  CostModel model;
  AnnotateEstimates(plan, model, stats);
  RecordActuals(plan, *stats);
}

}  // namespace

Result<Table> ExecutePlan(const PlanPtr& plan, ExecutionStats* stats) {
  if (plan == nullptr) return Status::InvalidArgument("null plan");
  // Root of per-query attribution: every span, row count, and cpu-ns below
  // here — on any pool thread — lands on this plan's fingerprint.
  MDE_OBS_QUERY_SCOPE("table.query",
                      obs::FingerprintString(PlanFingerprint(plan)));
  MDE_TRACE_SPAN("plan.execute");
  if (stats != nullptr) stats->nodes.clear();
  ThreadPool* pool = VecPool();
  MDE_ASSIGN_OR_RETURN(ColumnarBatch batch, ExecBatch(plan, stats, pool));
  Table out = BatchToTable(batch, pool);
  if (stats != nullptr) FeedbackProfiledRun(plan, stats);
  return out;
}

namespace {

const char* CmpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

/// Prints the operator label shared by EXPLAIN and EXPLAIN ANALYZE:
/// "Scan(name)", "Filter(a = 1 AND b < 2)", "Project(x, y)",
/// "HashJoin(k=k)".
void PrintNodeLabel(const PlanPtr& plan, std::ostringstream* os) {
  switch (plan->kind()) {
    case PlanNode::Kind::kScan:
      *os << "Scan(" << plan->name() << ")";
      break;
    case PlanNode::Kind::kFilter: {
      *os << "Filter(";
      for (size_t i = 0; i < plan->predicates().size(); ++i) {
        if (i > 0) *os << " AND ";
        const auto& p = plan->predicates()[i];
        *os << p.column << " " << CmpName(p.op) << " "
            << p.literal.ToString();
      }
      *os << ")";
      break;
    }
    case PlanNode::Kind::kProject: {
      *os << "Project(";
      for (size_t i = 0; i < plan->columns().size(); ++i) {
        if (i > 0) *os << ", ";
        *os << plan->columns()[i];
        if (!plan->aliases().empty() &&
            plan->aliases()[i] != plan->columns()[i]) {
          *os << " AS " << plan->aliases()[i];
        }
      }
      *os << ")";
      break;
    }
    case PlanNode::Kind::kJoin: {
      *os << "HashJoin(";
      for (size_t i = 0; i < plan->left_keys().size(); ++i) {
        if (i > 0) *os << ", ";
        *os << plan->left_keys()[i] << "=" << plan->right_keys()[i];
      }
      *os << ")";
      break;
    }
  }
}

void ExplainRec(const PlanPtr& plan, int depth, std::ostringstream* os) {
  for (int i = 0; i < depth; ++i) *os << "  ";
  PrintNodeLabel(plan, os);
  *os << "\n";
  switch (plan->kind()) {
    case PlanNode::Kind::kScan:
      break;
    case PlanNode::Kind::kFilter:
    case PlanNode::Kind::kProject:
      ExplainRec(plan->child(), depth + 1, os);
      break;
    case PlanNode::Kind::kJoin:
      ExplainRec(plan->left(), depth + 1, os);
      ExplainRec(plan->right(), depth + 1, os);
      break;
  }
}

std::string FormatNanos(double ns) {
  char buf[32];
  if (ns < 1e3) {
    std::snprintf(buf, sizeof(buf), "%.0fns", ns);
  } else if (ns < 1e6) {
    std::snprintf(buf, sizeof(buf), "%.1fus", ns / 1e3);
  } else if (ns < 1e9) {
    std::snprintf(buf, sizeof(buf), "%.1fms", ns / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", ns / 1e9);
  }
  return buf;
}

size_t CountNodes(const PlanPtr& plan) {
  switch (plan->kind()) {
    case PlanNode::Kind::kScan:
      return 1;
    case PlanNode::Kind::kFilter:
    case PlanNode::Kind::kProject:
      return 1 + CountNodes(plan->child());
    case PlanNode::Kind::kJoin:
      return 1 + CountNodes(plan->left()) + CountNodes(plan->right());
  }
  return 1;
}

/// Sum of the children's inclusive wall times for the node whose profile
/// sits at `index` (children follow in pre-order, offset by subtree size).
double ChildrenInclusiveNs(const PlanPtr& plan, const ExecutionStats& stats,
                           size_t index) {
  double ns = 0.0;
  size_t ci = index + 1;
  auto add = [&](const PlanPtr& child) {
    if (ci < stats.nodes.size()) ns += stats.nodes[ci].wall_ns;
    ci += CountNodes(child);
  };
  switch (plan->kind()) {
    case PlanNode::Kind::kScan:
      break;
    case PlanNode::Kind::kFilter:
    case PlanNode::Kind::kProject:
      add(plan->child());
      break;
    case PlanNode::Kind::kJoin:
      add(plan->left());
      add(plan->right());
      break;
  }
  return ns;
}

/// Walks the tree in the executor's pre-order, consuming one profile per
/// node from `*next`. Renders actual rows next to the optimizer's
/// estimate (when the run was estimated), inclusive wall time, and self
/// time (inclusive minus children — where the time was actually spent).
void AnalyzeRec(const PlanPtr& plan, const ExecutionStats& stats, int depth,
                size_t* next, std::ostringstream* os) {
  for (int i = 0; i < depth; ++i) *os << "  ";
  PrintNodeLabel(plan, os);
  if (*next < stats.nodes.size()) {
    const size_t index = (*next)++;
    const ExecutionStats::NodeProfile& p = stats.nodes[index];
    *os << " [rows=" << p.rows_out;
    if (p.est_rows >= 0.0) {
      *os << " est=" << static_cast<long long>(std::llround(p.est_rows));
    }
    const double self_ns =
        std::max(0.0, p.wall_ns - ChildrenInclusiveNs(plan, stats, index));
    *os << " time=" << FormatNanos(p.wall_ns)
        << " self=" << FormatNanos(self_ns);
    *os << " chunks=" << p.chunks << " vec]";
  } else {
    *os << " [no profile]";
  }
  *os << "\n";
  switch (plan->kind()) {
    case PlanNode::Kind::kScan:
      break;
    case PlanNode::Kind::kFilter:
    case PlanNode::Kind::kProject:
      AnalyzeRec(plan->child(), stats, depth + 1, next, os);
      break;
    case PlanNode::Kind::kJoin:
      AnalyzeRec(plan->left(), stats, depth + 1, next, os);
      AnalyzeRec(plan->right(), stats, depth + 1, next, os);
      break;
  }
}

}  // namespace

std::string ExplainPlan(const PlanPtr& plan) {
  std::ostringstream os;
  ExplainRec(plan, 0, &os);
  return os.str();
}

std::string ExplainAnalyze(const PlanPtr& plan, const ExecutionStats& stats) {
  std::ostringstream os;
  size_t next = 0;
  AnalyzeRec(plan, stats, 0, &next, &os);
  return os.str();
}

}  // namespace mde::table
