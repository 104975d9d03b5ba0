#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "table/cost.h"
#include "table/plan.h"
#include "util/check.h"

namespace mde::table {

namespace {

/// Rebuilds a filter/projection node over a new child, preserving kind and
/// renames.
PlanPtr RebuildUnary(const PlanPtr& node, PlanPtr child) {
  if (node->kind() == PlanNode::Kind::kFilter) {
    return PlanNode::Filter(std::move(child), node->predicates());
  }
  if (node->aliases().empty()) {
    return PlanNode::Project(std::move(child), node->columns());
  }
  return PlanNode::ProjectAs(std::move(child), node->columns(),
                             node->aliases());
}

// ---------------------------------------------------------------------------
// Pass 1: selection pushdown (the original OptimizePlan rewrite).
// ---------------------------------------------------------------------------

/// Attempts to sink `preds` into `node`. Predicates that cannot sink are
/// returned in `left_over` to be applied above `node`.
Result<PlanPtr> SinkPredicates(const PlanPtr& node,
                               std::vector<PlanPredicate> preds,
                               std::vector<PlanPredicate>* left_over) {
  if (preds.empty()) return node;
  switch (node->kind()) {
    case PlanNode::Kind::kFilter: {
      // Merge into the existing filter, then recurse below it.
      std::vector<PlanPredicate> merged = node->predicates();
      merged.insert(merged.end(), preds.begin(), preds.end());
      std::vector<PlanPredicate> deeper_left_over;
      MDE_ASSIGN_OR_RETURN(
          PlanPtr child,
          SinkPredicates(node->child(), merged, &deeper_left_over));
      if (deeper_left_over.empty()) return child;
      return PlanNode::Filter(child, std::move(deeper_left_over));
    }
    case PlanNode::Kind::kScan: {
      // Deepest point: apply all predicates here.
      return PlanNode::Filter(node, std::move(preds));
    }
    case PlanNode::Kind::kProject: {
      // A predicate slides below the projection iff its column survives
      // it — the check is against the projection's OUTPUT, never the child
      // schema, or sinking would quietly legalize a predicate on a column
      // the projection dropped. Renaming projections map the output alias
      // back to its source.
      const auto& aliases = node->aliases();
      const auto& out_names = aliases.empty() ? node->columns() : aliases;
      std::vector<PlanPredicate> sinkable, stuck;
      for (auto& p : preds) {
        auto it = std::find(out_names.begin(), out_names.end(), p.column);
        if (it != out_names.end()) {
          p.column = node->columns()[it - out_names.begin()];
          sinkable.push_back(std::move(p));
        } else {
          stuck.push_back(std::move(p));
        }
      }
      // Columns removed by the projection cannot be referenced above it
      // either, so "stuck" predicates are errors; report them.
      if (!stuck.empty()) {
        return Status::InvalidArgument("predicate column not found: " +
                                       stuck[0].column);
      }
      std::vector<PlanPredicate> deeper;
      MDE_ASSIGN_OR_RETURN(PlanPtr child,
                           SinkPredicates(node->child(), sinkable, &deeper));
      if (!deeper.empty()) child = PlanNode::Filter(child, deeper);
      return RebuildUnary(node, std::move(child));
    }
    case PlanNode::Kind::kJoin: {
      MDE_ASSIGN_OR_RETURN(Schema ls, node->left()->OutputSchema());
      MDE_ASSIGN_OR_RETURN(Schema rs, node->right()->OutputSchema());
      std::vector<PlanPredicate> to_left, to_right;
      for (auto& p : preds) {
        if (ls.Has(p.column)) {
          to_left.push_back(std::move(p));
        } else if (rs.Has(p.column)) {
          // Unambiguous right-side column (possibly exposed as "r.x"
          // above the join, but referenced here by its base name).
          to_right.push_back(std::move(p));
        } else if (p.column.rfind("r.", 0) == 0 &&
                   rs.Has(p.column.substr(2))) {
          PlanPredicate stripped = std::move(p);
          stripped.column = stripped.column.substr(2);
          to_right.push_back(std::move(stripped));
        } else {
          left_over->push_back(std::move(p));
        }
      }
      std::vector<PlanPredicate> dummy_l, dummy_r;
      PlanPtr new_left = node->left();
      PlanPtr new_right = node->right();
      if (!to_left.empty()) {
        MDE_ASSIGN_OR_RETURN(new_left,
                             SinkPredicates(new_left, to_left, &dummy_l));
      }
      if (!to_right.empty()) {
        MDE_ASSIGN_OR_RETURN(new_right,
                             SinkPredicates(new_right, to_right, &dummy_r));
      }
      MDE_CHECK(dummy_l.empty() && dummy_r.empty());
      return PlanNode::Join(new_left, new_right, node->left_keys(),
                            node->right_keys());
    }
  }
  return Status::Internal("unknown plan node");
}

Result<PlanPtr> PushSelections(const PlanPtr& plan) {
  switch (plan->kind()) {
    case PlanNode::Kind::kScan:
      return plan;
    case PlanNode::Kind::kFilter: {
      MDE_ASSIGN_OR_RETURN(PlanPtr child, PushSelections(plan->child()));
      std::vector<PlanPredicate> left_over;
      MDE_ASSIGN_OR_RETURN(
          PlanPtr sunk,
          SinkPredicates(child, plan->predicates(), &left_over));
      if (left_over.empty()) return sunk;
      return PlanNode::Filter(sunk, std::move(left_over));
    }
    case PlanNode::Kind::kProject: {
      MDE_ASSIGN_OR_RETURN(PlanPtr child, PushSelections(plan->child()));
      return RebuildUnary(plan, std::move(child));
    }
    case PlanNode::Kind::kJoin: {
      MDE_ASSIGN_OR_RETURN(PlanPtr l, PushSelections(plan->left()));
      MDE_ASSIGN_OR_RETURN(PlanPtr r, PushSelections(plan->right()));
      return PlanNode::Join(l, r, plan->left_keys(), plan->right_keys());
    }
  }
  return Status::Internal("unknown plan node");
}

// ---------------------------------------------------------------------------
// Pass 2: join reordering.
//
// Each maximal cluster of adjacent kJoin nodes is flattened into its
// relations (the non-join subtrees underneath) and the equi-join edges
// connecting them, a left-deep order is searched (exhaustive DP up to
// kDpMaxRelations, greedy above) over connected extensions only, and the
// winner is rebuilt. Because Schema::Concat prefixes duplicate right-side
// names with "r.", a different order can change output names/positions;
// a ProjectAs wrapper restores the exact as-written schema, tracked via
// positional provenance (relation, column) through the cluster.
// ---------------------------------------------------------------------------

/// Clusters up to this many relations get the exhaustive DP search.
constexpr size_t kDpMaxRelations = 6;
/// Clusters larger than this are left as written (search space guard;
/// greedy handles everything up to here).
constexpr size_t kMaxRelations = 16;

struct RelRef {
  size_t rel = 0;  // index into the cluster's relation list
  size_t col = 0;  // column index in that relation's output schema
  bool operator==(const RelRef& o) const {
    return rel == o.rel && col == o.col;
  }
};

struct JoinEdge {
  RelRef a, b;
};

struct SubTree {
  Schema schema;
  std::vector<RelRef> prov;  // output position -> source (relation, column)
};

/// Concat with the join renaming rule, refusing (instead of aborting)
/// when the combined names collide — e.g. the left side already exposes
/// "r.x" while the right side brings another "x".
std::optional<Schema> TryConcat(const Schema& left, const Schema& right) {
  std::unordered_set<std::string> names;
  std::vector<ColumnSpec> cols;
  cols.reserve(left.num_columns() + right.num_columns());
  for (const auto& c : left.columns()) {
    if (!names.insert(c.name).second) return std::nullopt;
    cols.push_back(c);
  }
  for (const auto& c : right.columns()) {
    std::string name = left.Has(c.name) ? "r." + c.name : c.name;
    if (!names.insert(name).second) return std::nullopt;
    cols.push_back({std::move(name), c.type});
  }
  return Schema(std::move(cols));
}

void CollectRelations(const PlanPtr& node, std::vector<PlanPtr>* rels) {
  if (node->kind() == PlanNode::Kind::kJoin) {
    CollectRelations(node->left(), rels);
    CollectRelations(node->right(), rels);
    return;
  }
  rels->push_back(node);
}

/// Resolves the original cluster tree bottom-up: per-subtree schema and
/// provenance, plus the join edges in relation/column coordinates.
/// `next_rel` walks the relation list in the same left-to-right order
/// CollectRelations produced.
Result<SubTree> ResolveCluster(const PlanPtr& node,
                               const std::vector<Schema>& rel_schemas,
                               size_t* next_rel,
                               std::vector<JoinEdge>* edges) {
  if (node->kind() != PlanNode::Kind::kJoin) {
    SubTree s;
    s.schema = rel_schemas[*next_rel];
    s.prov.reserve(s.schema.num_columns());
    for (size_t j = 0; j < s.schema.num_columns(); ++j) {
      s.prov.push_back({*next_rel, j});
    }
    ++*next_rel;
    return s;
  }
  MDE_ASSIGN_OR_RETURN(
      SubTree l, ResolveCluster(node->left(), rel_schemas, next_rel, edges));
  MDE_ASSIGN_OR_RETURN(
      SubTree r, ResolveCluster(node->right(), rel_schemas, next_rel, edges));
  if (node->left_keys().empty()) {
    return Status::InvalidArgument("join without keys");
  }
  for (size_t i = 0; i < node->left_keys().size(); ++i) {
    MDE_ASSIGN_OR_RETURN(size_t li, l.schema.IndexOf(node->left_keys()[i]));
    MDE_ASSIGN_OR_RETURN(size_t ri, r.schema.IndexOf(node->right_keys()[i]));
    edges->push_back({l.prov[li], r.prov[ri]});
  }
  auto combined = TryConcat(l.schema, r.schema);
  if (!combined.has_value()) {
    return Status::InvalidArgument("join output name collision");
  }
  SubTree out;
  out.schema = std::move(*combined);
  out.prov = std::move(l.prov);
  out.prov.insert(out.prov.end(), r.prov.begin(), r.prov.end());
  return out;
}

/// Rebuilds the original join structure over (possibly rewritten)
/// relations, preserving shape and keys.
PlanPtr RebuildCluster(const PlanPtr& node, const std::vector<PlanPtr>& rels,
                       size_t* next_rel) {
  if (node->kind() != PlanNode::Kind::kJoin) return rels[(*next_rel)++];
  PlanPtr l = RebuildCluster(node->left(), rels, next_rel);
  PlanPtr r = RebuildCluster(node->right(), rels, next_rel);
  return PlanNode::Join(std::move(l), std::move(r), node->left_keys(),
                        node->right_keys());
}

bool IsLeftDeep(const PlanPtr& node) {
  if (node->kind() != PlanNode::Kind::kJoin) return true;
  if (node->right()->kind() == PlanNode::Kind::kJoin) return false;
  return IsLeftDeep(node->left());
}

/// Shared cardinality/cost folding for a left-deep join sequence. The
/// formulas mirror CostModel: per-edge selectivity 1/max(ndv, ndv), hash
/// join cost = build(1.5 * right) + probe(left) + output.
class OrderSearch {
 public:
  OrderSearch(std::vector<double> rel_rows, std::vector<double> rel_cost,
              const std::vector<double>& edge_ndv_a,
              const std::vector<double>& edge_ndv_b,
              const std::vector<JoinEdge>& edges)
      : rows_(std::move(rel_rows)),
        cost_(std::move(rel_cost)),
        edges_(edges) {
    sel_.reserve(edges_.size());
    for (size_t e = 0; e < edges_.size(); ++e) {
      sel_.push_back(1.0 / std::max({edge_ndv_a[e], edge_ndv_b[e], 1.0}));
    }
  }

  size_t n() const { return rows_.size(); }

  /// Combined selectivity of all edges connecting `m` to the set in
  /// `in_acc`. Returns -1 when no edge connects (cross product).
  double ConnectSel(const std::vector<char>& in_acc, size_t m) const {
    double sel = 1.0;
    bool any = false;
    for (size_t e = 0; e < edges_.size(); ++e) {
      const JoinEdge& ed = edges_[e];
      const bool fwd = in_acc[ed.a.rel] && ed.b.rel == m;
      const bool rev = in_acc[ed.b.rel] && ed.a.rel == m;
      if (!fwd && !rev) continue;
      any = true;
      sel *= sel_[e];
    }
    return any ? sel : -1.0;
  }

  /// Folds a full order to its (rows, cost); returns false if the order
  /// needs a cross product.
  bool SequenceCost(const std::vector<size_t>& order, double* out_cost) const {
    std::vector<char> in_acc(n(), 0);
    double rows = rows_[order[0]];
    double cost = cost_[order[0]];
    in_acc[order[0]] = 1;
    for (size_t k = 1; k < order.size(); ++k) {
      const size_t m = order[k];
      const double sel = ConnectSel(in_acc, m);
      if (sel < 0.0) return false;
      const double out_rows = rows * rows_[m] * sel;
      cost += cost_[m] + 1.5 * rows_[m] + rows + out_rows;
      rows = out_rows;
      in_acc[m] = 1;
    }
    *out_cost = cost;
    return true;
  }

  /// Exhaustive left-deep DP over connected subsets. Returns the best
  /// order, or nullopt when the join graph is disconnected.
  std::optional<std::vector<size_t>> Dp() const {
    const size_t full = (size_t{1} << n()) - 1;
    struct Entry {
      double rows = 0.0, cost = 0.0;
      int last = -1, prev = -1;
      bool valid = false;
    };
    std::vector<Entry> best(full + 1);
    for (size_t i = 0; i < n(); ++i) {
      Entry& e = best[size_t{1} << i];
      e.rows = rows_[i];
      e.cost = cost_[i];
      e.last = static_cast<int>(i);
      e.valid = true;
    }
    for (size_t mask = 1; mask <= full; ++mask) {
      if ((mask & (mask - 1)) == 0) continue;  // singletons seeded above
      Entry& cur = best[mask];
      for (size_t m = 0; m < n(); ++m) {
        if (!(mask & (size_t{1} << m))) continue;
        const size_t prev = mask ^ (size_t{1} << m);
        if (!best[prev].valid) continue;
        std::vector<char> in_acc(n(), 0);
        for (size_t i = 0; i < n(); ++i) {
          if (prev & (size_t{1} << i)) in_acc[i] = 1;
        }
        const double sel = ConnectSel(in_acc, m);
        if (sel < 0.0) continue;
        const double out_rows = best[prev].rows * rows_[m] * sel;
        const double cost = best[prev].cost + cost_[m] + 1.5 * rows_[m] +
                            best[prev].rows + out_rows;
        if (!cur.valid || cost < cur.cost) {
          cur.rows = out_rows;
          cur.cost = cost;
          cur.last = static_cast<int>(m);
          cur.prev = static_cast<int>(prev);
          cur.valid = true;
        }
      }
    }
    if (!best[full].valid) return std::nullopt;
    std::vector<size_t> order;
    size_t mask = full;
    while (best[mask].prev >= 0) {
      order.push_back(static_cast<size_t>(best[mask].last));
      mask = static_cast<size_t>(best[mask].prev);
    }
    order.push_back(static_cast<size_t>(best[mask].last));
    std::reverse(order.begin(), order.end());
    return order;
  }

  /// Greedy chaining for clusters too large for the DP: cheapest
  /// connected start pair, then always the connected extension with the
  /// lowest step cost. Deterministic tie-breaks (smallest index).
  std::optional<std::vector<size_t>> Greedy() const {
    std::vector<size_t> order;
    std::vector<char> in_acc(n(), 0);
    double bst = -1.0;
    size_t bi = 0, bj = 0;
    for (size_t i = 0; i < n(); ++i) {
      for (size_t j = 0; j < n(); ++j) {
        if (i == j) continue;
        std::vector<char> solo(n(), 0);
        solo[i] = 1;
        const double sel = ConnectSel(solo, j);
        if (sel < 0.0) continue;
        const double out_rows = rows_[i] * rows_[j] * sel;
        const double cost =
            cost_[i] + cost_[j] + 1.5 * rows_[j] + rows_[i] + out_rows;
        if (bst < 0.0 || cost < bst) {
          bst = cost;
          bi = i;
          bj = j;
        }
      }
    }
    if (bst < 0.0) return std::nullopt;
    order = {bi, bj};
    in_acc[bi] = in_acc[bj] = 1;
    double rows;
    {
      std::vector<char> solo(n(), 0);
      solo[bi] = 1;
      rows = rows_[bi] * rows_[bj] * ConnectSel(solo, bj);
    }
    while (order.size() < n()) {
      double step_best = -1.0;
      size_t pick = 0;
      double pick_rows = 0.0;
      for (size_t m = 0; m < n(); ++m) {
        if (in_acc[m]) continue;
        const double sel = ConnectSel(in_acc, m);
        if (sel < 0.0) continue;
        const double out_rows = rows * rows_[m] * sel;
        const double cost = cost_[m] + 1.5 * rows_[m] + rows + out_rows;
        if (step_best < 0.0 || cost < step_best) {
          step_best = cost;
          pick = m;
          pick_rows = out_rows;
        }
      }
      if (step_best < 0.0) return std::nullopt;  // disconnected remainder
      order.push_back(pick);
      in_acc[pick] = 1;
      rows = pick_rows;
    }
    return order;
  }

 private:
  std::vector<double> rows_, cost_;
  const std::vector<JoinEdge>& edges_;
  std::vector<double> sel_;
};

Result<PlanPtr> ReorderRec(const PlanPtr& node, CostModel* model);

/// Reorders one maximal join cluster rooted at `root`. Any structural
/// obstacle (keyless join, untraceable key, name collision, disconnected
/// graph) keeps the original order; only a strictly cheaper connected
/// order is adopted.
Result<PlanPtr> ReorderCluster(const PlanPtr& root, CostModel* model) {
  std::vector<PlanPtr> rels_orig;
  CollectRelations(root, &rels_orig);
  const size_t n = rels_orig.size();

  // Optimize below the cluster first (nested clusters under projections).
  std::vector<PlanPtr> rels;
  rels.reserve(n);
  for (const PlanPtr& r : rels_orig) {
    MDE_ASSIGN_OR_RETURN(PlanPtr rr, ReorderRec(r, model));
    rels.push_back(std::move(rr));
  }
  size_t next_rel = 0;
  if (n < 2 || n > kMaxRelations) {
    return RebuildCluster(root, rels, &next_rel);
  }

  std::vector<Schema> rel_schemas;
  rel_schemas.reserve(n);
  for (const PlanPtr& r : rels) {
    auto s = r->OutputSchema();
    if (!s.ok()) return RebuildCluster(root, rels, &next_rel);
    rel_schemas.push_back(std::move(s).value());
  }

  std::vector<JoinEdge> edges;
  auto resolved = ResolveCluster(root, rel_schemas, &next_rel, &edges);
  next_rel = 0;
  if (!resolved.ok()) return RebuildCluster(root, rels, &next_rel);
  const SubTree& orig = resolved.value();

  std::vector<double> rel_rows(n), rel_cost(n);
  for (size_t i = 0; i < n; ++i) {
    rel_rows[i] = model->EstimateRows(rels[i]);
    rel_cost[i] = model->EstimateCost(rels[i]);
  }
  auto ndv = [&](const RelRef& ref) {
    const std::string& name = rel_schemas[ref.rel].column(ref.col).name;
    const ColumnStats* s = model->FindColumnStats(rels[ref.rel], name);
    if (s != nullptr && s->distinct > 0.0) return std::max(s->distinct, 1.0);
    return std::max(rel_rows[ref.rel], 1.0);
  };
  std::vector<double> ndv_a, ndv_b;
  ndv_a.reserve(edges.size());
  ndv_b.reserve(edges.size());
  for (const JoinEdge& e : edges) {
    ndv_a.push_back(ndv(e.a));
    ndv_b.push_back(ndv(e.b));
  }
  OrderSearch search(rel_rows, rel_cost, ndv_a, ndv_b, edges);

  std::optional<std::vector<size_t>> order =
      n <= kDpMaxRelations ? search.Dp() : search.Greedy();
  if (!order.has_value()) return RebuildCluster(root, rels, &next_rel);

  double cand_cost = 0.0;
  if (!search.SequenceCost(*order, &cand_cost)) {
    return RebuildCluster(root, rels, &next_rel);
  }
  // Cost of keeping the as-written order, measured with the same folding
  // when the original is left-deep (the common case); EstimateCost
  // otherwise.
  double orig_cost = 0.0;
  bool have_orig_cost = false;
  std::vector<size_t> identity(n);
  for (size_t i = 0; i < n; ++i) identity[i] = i;
  if (IsLeftDeep(root)) {
    if (*order == identity) return RebuildCluster(root, rels, &next_rel);
    have_orig_cost = search.SequenceCost(identity, &orig_cost);
  }
  if (!have_orig_cost) orig_cost = model->EstimateCost(root);
  if (!(cand_cost < orig_cost * 0.999)) {
    return RebuildCluster(root, rels, &next_rel);
  }

  // Build the chosen left-deep order, tracking schema + provenance.
  PlanPtr acc = rels[(*order)[0]];
  Schema acc_schema = rel_schemas[(*order)[0]];
  std::vector<RelRef> acc_prov;
  for (size_t j = 0; j < acc_schema.num_columns(); ++j) {
    acc_prov.push_back({(*order)[0], j});
  }
  std::vector<char> in_acc(n, 0);
  in_acc[(*order)[0]] = 1;
  for (size_t k = 1; k < order->size(); ++k) {
    const size_t m = (*order)[k];
    std::vector<std::pair<std::string, std::string>> key_pairs;
    for (const JoinEdge& e : edges) {
      RelRef acc_ref, m_ref;
      if (in_acc[e.a.rel] && e.b.rel == m) {
        acc_ref = e.a;
        m_ref = e.b;
      } else if (in_acc[e.b.rel] && e.a.rel == m) {
        acc_ref = e.b;
        m_ref = e.a;
      } else {
        continue;
      }
      size_t acc_pos = acc_prov.size();
      for (size_t p = 0; p < acc_prov.size(); ++p) {
        if (acc_prov[p] == acc_ref) {
          acc_pos = p;
          break;
        }
      }
      if (acc_pos == acc_prov.size()) {
        return RebuildCluster(root, rels, &next_rel);
      }
      key_pairs.emplace_back(acc_schema.column(acc_pos).name,
                             rel_schemas[m].column(m_ref.col).name);
    }
    std::sort(key_pairs.begin(), key_pairs.end());
    key_pairs.erase(std::unique(key_pairs.begin(), key_pairs.end()),
                    key_pairs.end());
    if (key_pairs.empty()) return RebuildCluster(root, rels, &next_rel);
    auto combined = TryConcat(acc_schema, rel_schemas[m]);
    if (!combined.has_value()) return RebuildCluster(root, rels, &next_rel);
    std::vector<std::string> lk, rk;
    lk.reserve(key_pairs.size());
    rk.reserve(key_pairs.size());
    for (auto& kp : key_pairs) {
      lk.push_back(std::move(kp.first));
      rk.push_back(std::move(kp.second));
    }
    acc = PlanNode::Join(std::move(acc), rels[m], std::move(lk),
                         std::move(rk));
    acc_schema = std::move(*combined);
    for (size_t j = 0; j < rel_schemas[m].num_columns(); ++j) {
      acc_prov.push_back({m, j});
    }
    in_acc[m] = 1;
  }

  // Restore the exact as-written output schema (names and positions) with
  // a renaming projection — zero-copy on the vectorized path. Skipped
  // when the new order happens to produce it already.
  std::unordered_map<uint64_t, size_t> cand_pos;
  cand_pos.reserve(acc_prov.size());
  for (size_t p = 0; p < acc_prov.size(); ++p) {
    cand_pos[(uint64_t{acc_prov[p].rel} << 32) | acc_prov[p].col] = p;
  }
  std::vector<std::string> cols, aliases;
  cols.reserve(orig.prov.size());
  aliases.reserve(orig.prov.size());
  bool identical = acc_schema.num_columns() == orig.schema.num_columns();
  bool renames = false;
  for (size_t p = 0; p < orig.prov.size(); ++p) {
    auto it =
        cand_pos.find((uint64_t{orig.prov[p].rel} << 32) | orig.prov[p].col);
    if (it == cand_pos.end()) return RebuildCluster(root, rels, &next_rel);
    const std::string& cand_name = acc_schema.column(it->second).name;
    const std::string& orig_name = orig.schema.column(p).name;
    if (it->second != p || cand_name != orig_name) identical = false;
    if (cand_name != orig_name) renames = true;
    cols.push_back(cand_name);
    aliases.push_back(orig_name);
  }
  MDE_OBS_COUNT("opt.joins_reordered", 1);
  if (identical) return acc;
  if (!renames) return PlanNode::Project(std::move(acc), std::move(cols));
  return PlanNode::ProjectAs(std::move(acc), std::move(cols),
                             std::move(aliases));
}

Result<PlanPtr> ReorderRec(const PlanPtr& node, CostModel* model) {
  switch (node->kind()) {
    case PlanNode::Kind::kScan:
      return node;
    case PlanNode::Kind::kFilter:
    case PlanNode::Kind::kProject: {
      MDE_ASSIGN_OR_RETURN(PlanPtr child, ReorderRec(node->child(), model));
      return RebuildUnary(node, std::move(child));
    }
    case PlanNode::Kind::kJoin:
      return ReorderCluster(node, model);
  }
  return Status::Internal("unknown plan node");
}

// ---------------------------------------------------------------------------
// Pass 3: projection pushdown. Under an explicit projection, each subtree
// is narrowed to the columns actually consumed above it; scans get an
// inserted Project so joins gather fewer blocks. Conservative guard: a
// left-side join column whose name also appears on the right is kept even
// if unused, because dropping it would change the right column's "r."
// rename.
// ---------------------------------------------------------------------------

using NameSet = std::unordered_set<std::string>;

Result<PlanPtr> Prune(const PlanPtr& node, const NameSet& required);

Result<PlanPtr> PushProjections(const PlanPtr& plan) {
  switch (plan->kind()) {
    case PlanNode::Kind::kScan:
      return plan;
    case PlanNode::Kind::kProject: {
      MDE_ASSIGN_OR_RETURN(Schema out, plan->OutputSchema());
      NameSet required;
      for (const auto& c : out.columns()) required.insert(c.name);
      return Prune(plan, required);
    }
    case PlanNode::Kind::kFilter: {
      MDE_ASSIGN_OR_RETURN(PlanPtr child, PushProjections(plan->child()));
      return RebuildUnary(plan, std::move(child));
    }
    case PlanNode::Kind::kJoin: {
      MDE_ASSIGN_OR_RETURN(PlanPtr l, PushProjections(plan->left()));
      MDE_ASSIGN_OR_RETURN(PlanPtr r, PushProjections(plan->right()));
      return PlanNode::Join(l, r, plan->left_keys(), plan->right_keys());
    }
  }
  return Status::Internal("unknown plan node");
}

/// Narrows `node` so its output covers `required` (names in node's output
/// schema). Relative column order is preserved, so names above stay valid.
Result<PlanPtr> Prune(const PlanPtr& node, const NameSet& required) {
  switch (node->kind()) {
    case PlanNode::Kind::kScan: {
      const Schema& s = node->table()->schema();
      std::vector<std::string> keep;
      for (const auto& c : s.columns()) {
        if (required.count(c.name)) keep.push_back(c.name);
      }
      if (keep.empty() || keep.size() == s.num_columns()) return node;
      MDE_OBS_COUNT("opt.scans_narrowed", 1);
      return PlanNode::Project(node, std::move(keep));
    }
    case PlanNode::Kind::kFilter: {
      NameSet child_req = required;
      for (const auto& p : node->predicates()) child_req.insert(p.column);
      MDE_ASSIGN_OR_RETURN(PlanPtr child, Prune(node->child(), child_req));
      return PlanNode::Filter(std::move(child), node->predicates());
    }
    case PlanNode::Kind::kProject: {
      const auto& cols = node->columns();
      const auto& aliases = node->aliases();
      std::vector<std::string> keep_cols, keep_aliases;
      NameSet child_req;
      for (size_t i = 0; i < cols.size(); ++i) {
        const std::string& out_name = aliases.empty() ? cols[i] : aliases[i];
        if (!required.count(out_name)) continue;
        keep_cols.push_back(cols[i]);
        if (!aliases.empty()) keep_aliases.push_back(aliases[i]);
        child_req.insert(cols[i]);
      }
      if (keep_cols.empty()) return node;  // keep as-is over a 0-col drop
      MDE_ASSIGN_OR_RETURN(PlanPtr child, Prune(node->child(), child_req));
      if (keep_aliases.empty()) {
        return PlanNode::Project(std::move(child), std::move(keep_cols));
      }
      return PlanNode::ProjectAs(std::move(child), std::move(keep_cols),
                                 std::move(keep_aliases));
    }
    case PlanNode::Kind::kJoin: {
      MDE_ASSIGN_OR_RETURN(Schema ls, node->left()->OutputSchema());
      MDE_ASSIGN_OR_RETURN(Schema rs, node->right()->OutputSchema());
      NameSet left_req, right_req;
      for (const auto& c : ls.columns()) {
        // Keep left duplicates of right-side names: dropping one would
        // flip the right column's "r." rename.
        if (required.count(c.name) || rs.Has(c.name)) {
          left_req.insert(c.name);
        }
      }
      for (const auto& k : node->left_keys()) left_req.insert(k);
      for (const auto& c : rs.columns()) {
        const std::string out_name =
            ls.Has(c.name) ? "r." + c.name : c.name;
        if (required.count(out_name)) right_req.insert(c.name);
      }
      for (const auto& k : node->right_keys()) right_req.insert(k);
      MDE_ASSIGN_OR_RETURN(PlanPtr l, Prune(node->left(), left_req));
      MDE_ASSIGN_OR_RETURN(PlanPtr r, Prune(node->right(), right_req));
      return PlanNode::Join(std::move(l), std::move(r), node->left_keys(),
                            node->right_keys());
    }
  }
  return Status::Internal("unknown plan node");
}

// ---------------------------------------------------------------------------
// Pass 4: predicate ordering — most selective first, so each later
// predicate in a conjunctive filter scans a shorter selection vector.
// Stable (original order breaks ties), so equal-selectivity plans are
// untouched.
// ---------------------------------------------------------------------------

Result<PlanPtr> OrderPredicates(const PlanPtr& plan, CostModel* model) {
  switch (plan->kind()) {
    case PlanNode::Kind::kScan:
      return plan;
    case PlanNode::Kind::kProject: {
      MDE_ASSIGN_OR_RETURN(PlanPtr child,
                           OrderPredicates(plan->child(), model));
      return RebuildUnary(plan, std::move(child));
    }
    case PlanNode::Kind::kJoin: {
      MDE_ASSIGN_OR_RETURN(PlanPtr l, OrderPredicates(plan->left(), model));
      MDE_ASSIGN_OR_RETURN(PlanPtr r, OrderPredicates(plan->right(), model));
      return PlanNode::Join(l, r, plan->left_keys(), plan->right_keys());
    }
    case PlanNode::Kind::kFilter: {
      MDE_ASSIGN_OR_RETURN(PlanPtr child,
                           OrderPredicates(plan->child(), model));
      const auto& preds = plan->predicates();
      std::vector<std::pair<double, size_t>> ranked;
      ranked.reserve(preds.size());
      for (size_t i = 0; i < preds.size(); ++i) {
        ranked.emplace_back(model->PredicateSelectivity(child, preds[i]), i);
      }
      std::stable_sort(ranked.begin(), ranked.end(),
                       [](const auto& a, const auto& b) {
                         return a.first < b.first;
                       });
      std::vector<PlanPredicate> ordered;
      ordered.reserve(preds.size());
      bool changed = false;
      for (size_t i = 0; i < ranked.size(); ++i) {
        if (ranked[i].second != i) changed = true;
        ordered.push_back(preds[ranked[i].second]);
      }
      if (changed) MDE_OBS_COUNT("opt.predicates_reordered", 1);
      return PlanNode::Filter(std::move(child), std::move(ordered));
    }
  }
  return Status::Internal("unknown plan node");
}

}  // namespace

Result<PlanPtr> OptimizePlan(const PlanPtr& plan) {
  if (plan == nullptr) return Status::InvalidArgument("null plan");
  MDE_ASSIGN_OR_RETURN(PlanPtr p, PushSelections(plan));
  {
    // Fresh model per pass: its memos key on node identity, and nodes
    // discarded between passes could alias new allocations.
    CostModel model;
    MDE_ASSIGN_OR_RETURN(p, ReorderRec(p, &model));
  }
  MDE_ASSIGN_OR_RETURN(p, PushProjections(p));
  CostModel model;
  MDE_ASSIGN_OR_RETURN(p, OrderPredicates(p, &model));
  MDE_OBS_COUNT("opt.plans_optimized", 1);
  return p;
}

}  // namespace mde::table
