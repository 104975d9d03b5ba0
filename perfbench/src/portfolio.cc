#include "portfolio.h"

#include <map>
#include <memory>
#include <string>
#include <utility>

#include "spans.h"
#include "table/columnar.h"
#include "table/table.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using mde::Result;
using mde::Rng;
using mde::simsql::DatabaseState;
using mde::table::DataType;
using mde::table::Schema;
using mde::table::Table;
using mde::table::Value;

Schema PriceSchema() {
  return Schema({{"ASSET", DataType::kInt64}, {"PRICE", DataType::kDouble}});
}

double InitialPrice(size_t asset, Rng& rng) {
  return 80.0 + 5.0 * static_cast<double>(asset % 16) + rng.NextDouble();
}

/// One row-built price version (the demo tool's layout).
Table RowPrices(size_t assets, const Table* prev, Rng& rng) {
  Table t{PriceSchema()};
  for (size_t i = 0; i < assets; ++i) {
    const double p = prev == nullptr
                         ? InitialPrice(i, rng)
                         : prev->row(i)[1].AsDouble() + (rng.NextDouble() - 0.5);
    t.Append({Value(static_cast<int64_t>(i)), Value(p)});
  }
  return t;
}

/// One column-built price version: a fresh price block; the asset-id block
/// is shared with the previous version.
Result<Table> ColumnarPrices(size_t assets, const Table* prev, Rng& rng) {
  mde::table::ColumnarTableBuilder b{PriceSchema()};
  if (prev == nullptr) {
    b.Reserve(assets);
    for (size_t i = 0; i < assets; ++i) {
      b.column(0).AppendInt64(static_cast<int64_t>(i));
      b.column(1).AppendDouble(InitialPrice(i, rng));
    }
  } else {
    const auto& old = prev->columnar();
    b.SetColumn(0, old->col_ptr(0));
    const double* price = old->col(1).f64.data();
    b.column(1).Reserve(assets);
    for (size_t i = 0; i < assets; ++i) {
      b.column(1).AppendDouble(price[i] + (rng.NextDouble() - 0.5));
    }
  }
  MDE_ASSIGN_OR_RETURN(auto cols, b.Finish());
  return Table::FromColumnar(std::move(cols));
}

/// Typed read access to one column of a version's table: the immutable
/// columnar block when the table has one (safe to share across sessions),
/// else the row view (row-built tables are fully materialized).
class ColumnReader {
 public:
  ColumnReader(const Table& t, size_t col) : table_(t), col_(col) {
    if (t.columnar() != nullptr) block_ = &t.columnar()->col(col);
  }
  double F64(size_t i) const {
    return block_ != nullptr ? block_->f64[i] : table_.row(i)[col_].AsDouble();
  }
  int64_t I64(size_t i) const {
    return block_ != nullptr ? block_->i64[i] : table_.row(i)[col_].AsInt();
  }

 private:
  const Table& table_;
  size_t col_;
  const mde::table::Column* block_ = nullptr;
};

double Param(const std::map<std::string, double>& params, const char* name,
             double fallback) {
  const auto it = params.find(name);
  return it == params.end() ? fallback : it->second;
}

}  // namespace

PortfolioModel DemoModel() {
  PortfolioModel m;
  m.assets = 16;
  for (int64_t i = 0; i < 16; ++i) m.position_assets.push_back(i);
  m.columnar = false;
  return m;
}

PortfolioModel WideModel(size_t assets, size_t positions, uint64_t seed) {
  PortfolioModel m;
  m.assets = assets;
  m.columnar = true;
  // Evenly spread, seed-rotated, so every position holds a distinct asset.
  Rng rng(seed ^ 0x9057f011u);
  const size_t offset = rng.NextBounded(assets);
  const size_t step = assets / positions;
  for (size_t i = 0; i < positions; ++i) {
    m.position_assets.push_back(
        static_cast<int64_t>((offset + i * step) % assets));
  }
  return m;
}

mde::simsql::MarkovChainDb MakePortfolioDb(const PortfolioModel& model) {
  mde::simsql::MarkovChainDb db;
  Table pos{Schema({{"ASSET", DataType::kInt64}, {"QTY", DataType::kDouble}})};
  for (size_t i = 0; i < model.position_assets.size(); ++i) {
    pos.Append({Value(model.position_assets[i]),
                Value(1.0 + static_cast<double>(i % 5))});
  }
  (void)db.AddDeterministic("POSITIONS", std::move(pos));

  mde::simsql::ChainTableSpec spec;
  spec.name = "PRICES";
  const size_t assets = model.assets;
  const bool columnar = model.columnar;
  spec.init = [assets, columnar](const DatabaseState&,
                                 Rng& rng) -> Result<Table> {
    if (columnar) return ColumnarPrices(assets, nullptr, rng);
    return RowPrices(assets, nullptr, rng);
  };
  spec.transition = [assets, columnar](const DatabaseState& prev,
                                       const DatabaseState&,
                                       Rng& rng) -> Result<Table> {
    ScopedSpan span("chain.transition", Layer::kSimsql);
    const Table& old = prev.at("PRICES");
    if (columnar) return ColumnarPrices(assets, &old, rng);
    return RowPrices(assets, &old, rng);
  };
  (void)db.AddChainTable(std::move(spec));
  return db;
}

mde::serve::McQuerySpec PortfolioValueQuery() {
  mde::serve::McQuerySpec spec;
  spec.name = "pv";
  spec.eval = [](const DatabaseState& state,
                 const std::map<std::string, double>& params,
                 Rng& rng) -> Result<double> {
    // One replication of a Monte Carlo query: the VG-function role of MCDB.
    ScopedSpan span("pv.eval", Layer::kMcdb);
    const double vol = Param(params, "vol", 1.0);
    const int horizon = static_cast<int>(Param(params, "horizon", 8.0));
    const Table& pos = state.at("POSITIONS");
    const ColumnReader asset(pos, 0);
    const ColumnReader qty(pos, 1);
    const ColumnReader price(state.at("PRICES"), 1);
    double total = 0.0;
    for (size_t i = 0; i < pos.num_rows(); ++i) {
      double p = price.F64(static_cast<size_t>(asset.I64(i)));
      for (int h = 0; h < horizon; ++h) {
        p += (rng.NextDouble() - 0.5) * vol;
      }
      total += p * qty.F64(i);
    }
    return total;
  };
  return spec;
}

}  // namespace perfbench
