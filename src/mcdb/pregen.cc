#include "mcdb/pregen.h"

#include <algorithm>
#include <utility>

#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "table/catalog.h"
#include "table/cost.h"
#include "table/vec_ops.h"

namespace mde::mcdb {

namespace {

/// Surviving outer-row indices (ascending) under the conjunction of
/// `preds`, via the vectorized filter over the table's cached columnar
/// blocks. VecFilter shares ColumnCompare's comparison semantics, so the
/// set — and therefore the generated bundle — equals FilterDet's.
Result<table::SelVector> SurvivingRows(
    const table::Table& outer,
    const std::vector<table::PlanPredicate>& preds, ThreadPool* pool) {
  const auto columnar = outer.ToColumnar().value();
  table::SelVector sel;
  bool have_sel = false;
  for (const auto& p : preds) {
    MDE_ASSIGN_OR_RETURN(
        table::SelVector next,
        table::VecFilter(*columnar, have_sel ? &sel : nullptr, p.column, p.op,
                         p.literal, pool));
    sel = std::move(next);
    have_sel = true;
    if (sel.empty()) break;
  }
  return sel;
}

}  // namespace

Result<BundleTable> GenerateBundlesWhere(
    const MonteCarloDb& db, const StochasticTableSpec& spec,
    const std::string& attr_name, size_t num_reps, uint64_t seed,
    std::vector<table::PlanPredicate> det_preds, ThreadPool* pool,
    PregenReport* report) {
  // Opened before predicate evaluation so the pre-generation filter's row
  // counts attribute to this query, not to no one.
  MDE_OBS_QUERY_SCOPE(
      "mcdb.generate_where",
      obs::FingerprintMix(
          obs::FingerprintString(spec.outer_table + "/" + attr_name),
          num_reps * 1000003 + det_preds.size()));
  MDE_TRACE_SPAN("mcdb.pregen_plan");
  const table::Table* outer = db.FindTable(spec.outer_table);
  if (outer == nullptr) {
    return Status::NotFound("FOR EACH table not found: " + spec.outer_table);
  }
  const size_t n = outer->num_rows();
  if (det_preds.empty()) {
    if (report != nullptr) *report = {n, n, 0, 0};
    return internal::GenerateBundlesImpl(db, spec, attr_name, num_reps, seed,
                                         pool, nullptr);
  }

  // Most-selective-first: each predicate's catalog selectivity against the
  // outer scan decides evaluation order, so the chained filter narrows its
  // selection vector as early as possible. A pure cost decision — the
  // surviving conjunction is order-independent.
  {
    const table::PlanPtr scan = table::PlanNode::Scan(outer, spec.outer_table);
    table::CostModel model;
    std::vector<std::pair<double, size_t>> order;
    order.reserve(det_preds.size());
    for (size_t i = 0; i < det_preds.size(); ++i) {
      order.emplace_back(model.PredicateSelectivity(scan, det_preds[i]), i);
    }
    std::stable_sort(order.begin(), order.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    std::vector<table::PlanPredicate> sorted;
    sorted.reserve(det_preds.size());
    for (const auto& [sel, i] : order) sorted.push_back(det_preds[i]);
    det_preds = std::move(sorted);
  }

  MDE_ASSIGN_OR_RETURN(table::SelVector keep,
                       SurvivingRows(*outer, det_preds, pool));
  const size_t m = keep.size();
  MDE_OBS_COUNT("mcdb.pregen.rows_pruned", n - m);
  MDE_OBS_COUNT("mcdb.pregen.draws_saved", (n - m) * num_reps);
  if (report != nullptr) *report = {n, m, n - m, (n - m) * num_reps};
  return internal::GenerateBundlesImpl(db, spec, attr_name, num_reps, seed,
                                       pool, &keep);
}

}  // namespace mde::mcdb
