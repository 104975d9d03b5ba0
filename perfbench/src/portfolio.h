#ifndef PERFBENCH_PORTFOLIO_H_
#define PERFBENCH_PORTFOLIO_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "serve/server.h"
#include "simsql/simsql.h"

/// The portfolio Monte Carlo query served by the serve workloads, after
/// the demo model in tools/mde_serve.cc. PRICES is a random-walk chain
/// table (one row per asset); POSITIONS is deterministic. One replication
/// of the "pv" query simulates each held asset's price `horizon` steps
/// forward at volatility `vol` and returns the portfolio value.
namespace perfbench {

struct PortfolioModel {
  /// Rows in the PRICES chain table.
  size_t assets = 16;
  /// Rows in POSITIONS; position i holds asset `position_assets[i]`.
  std::vector<int64_t> position_assets;
  /// true: PRICES is built column by column and each transition writes one
  /// fresh price block while sharing the asset-id block (the layout of the
  /// simsql walker chain). false: row-at-a-time, as in the demo tool.
  bool columnar = false;
};

/// The demo model: 16 assets, one position per asset, row-built prices.
PortfolioModel DemoModel();

/// `assets` columnar price rows and `positions` held assets spread over
/// them by `seed`.
PortfolioModel WideModel(size_t assets, size_t positions, uint64_t seed);

/// Builds the chain database for `model`. The chain's randomness comes
/// from the serving Server's seed, not from here.
mde::simsql::MarkovChainDb MakePortfolioDb(const PortfolioModel& model);

/// The "pv" query (params: vol, horizon). Reads tables only through their
/// immutable columnar blocks when they have them, so concurrent sessions
/// never trigger the row view's lazy materialization.
mde::serve::McQuerySpec PortfolioValueQuery();

}  // namespace perfbench

#endif  // PERFBENCH_PORTFOLIO_H_
