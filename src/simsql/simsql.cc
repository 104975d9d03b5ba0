#include "simsql/simsql.h"

#include <unordered_set>

#include "ckpt/fault.h"
#include "ckpt/snapshot.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/stat.h"
#include "obs/trace.h"
#include "util/stats.h"

namespace mde::simsql {

namespace {

/// Cell-exact table serialization for checkpoints: schema (names + declared
/// types), then every cell as a runtime-type tag + payload. Doubles travel
/// as IEEE-754 bits, so a restored chain state is bit-identical.
void PutValue(ckpt::SectionWriter* s, const table::Value& v) {
  s->PutU8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case table::DataType::kNull:
      break;
    case table::DataType::kBool:
      s->PutBool(v.AsBool());
      break;
    case table::DataType::kInt64:
      s->PutI64(v.AsInt());
      break;
    case table::DataType::kDouble:
      s->PutDouble(v.AsDouble());
      break;
    case table::DataType::kString:
      s->PutString(v.AsString());
      break;
  }
}

/// Reads a column's declared type byte; an unknown value fails the reader.
table::DataType TakeType(ckpt::SectionReader* s) {
  const uint8_t type = s->U8();
  if (type > static_cast<uint8_t>(table::DataType::kString)) {
    s->Fail("unknown column type");
  }
  return static_cast<table::DataType>(type);
}

/// Reads one cell of a column declared `type`. A non-null tag that is not
/// the column's type fails the reader: the Table cell-type invariant would
/// abort on such a cell.
table::Value TakeValue(ckpt::SectionReader* s, table::DataType type) {
  const uint8_t tag = s->U8();
  if (tag == static_cast<uint8_t>(table::DataType::kNull)) return {};
  if (tag != static_cast<uint8_t>(type)) {
    s->Fail("cell type disagrees with its column");
    return {};
  }
  switch (type) {
    case table::DataType::kBool:
      return table::Value(s->Bool());
    case table::DataType::kInt64:
      return table::Value(s->I64());
    case table::DataType::kDouble:
      return table::Value(s->Double());
    case table::DataType::kString:
      return table::Value(s->String());
    case table::DataType::kNull:
      break;
  }
  return {};
}

void PutTable(ckpt::SectionWriter* s, const table::Table& t) {
  const table::Schema& schema = t.schema();
  s->PutU32(static_cast<uint32_t>(schema.num_columns()));
  for (const table::ColumnSpec& c : schema.columns()) {
    s->PutString(c.name);
    s->PutU8(static_cast<uint8_t>(c.type));
  }
  s->PutU64(t.num_rows());
  for (size_t i = 0; i < t.num_rows(); ++i) {
    for (const table::Value& v : t.row(i)) PutValue(s, v);
  }
}

/// Reads a table written by PutTable. Every count is checked against the
/// bytes left before anything is reserved or built, so a crafted snapshot
/// fails the reader instead of aborting or exhausting memory.
table::Table TakeTable(ckpt::SectionReader* s) {
  const uint32_t ncols = s->U32();
  // A column spec takes at least 5 bytes: name length and type.
  if (ncols > s->remaining() / 5) {
    s->Fail("column count exceeds section");
    return {};
  }
  std::vector<table::ColumnSpec> cols;
  cols.reserve(ncols);
  std::unordered_set<std::string> names;
  for (uint32_t c = 0; c < ncols && s->status().ok(); ++c) {
    std::string name = s->String();
    const table::DataType type = TakeType(s);
    if (!names.insert(name).second) s->Fail("duplicate column name");
    cols.push_back({std::move(name), type});
  }
  if (!s->status().ok()) return {};
  table::Table t{table::Schema(std::move(cols))};
  const table::Schema& schema = t.schema();
  const uint64_t nrows = s->U64();
  // A row takes at least one tag byte per column; a zero-column table's
  // row count has no bytes to bound it, so it must be zero.
  if (nrows > 0 && (ncols == 0 || nrows > s->remaining() / ncols)) {
    s->Fail("row count exceeds section");
    return {};
  }
  for (uint64_t r = 0; r < nrows && s->status().ok(); ++r) {
    table::Row row;
    row.reserve(ncols);
    for (uint32_t c = 0; c < ncols; ++c) {
      row.push_back(TakeValue(s, schema.column(c).type));
    }
    if (s->status().ok()) t.Append(std::move(row));
  }
  return t;
}

void PutState(ckpt::SectionWriter* s, const DatabaseState& state) {
  s->PutU32(static_cast<uint32_t>(state.size()));
  for (const auto& [name, t] : state) {
    s->PutString(name);
    PutTable(s, t);
  }
}

DatabaseState TakeState(ckpt::SectionReader* s) {
  DatabaseState state;
  const uint32_t n = s->U32();
  for (uint32_t i = 0; i < n && s->status().ok(); ++i) {
    std::string name = s->String();
    state.emplace(std::move(name), TakeTable(s));
  }
  return state;
}

}  // namespace

Status MarkovChainDb::AddDeterministic(const std::string& name,
                                       table::Table t) {
  if (deterministic_.count(name) > 0) {
    return Status::AlreadyExists("table exists: " + name);
  }
  // Re-wrap as columnar so the per-step state copies in Run() share
  // immutable column blocks instead of deep-copying boxed rows.
  deterministic_.emplace(name,
                         table::Table::FromColumnar(t.ToColumnar().value()));
  return Status::OK();
}

Status MarkovChainDb::AddChainTable(ChainTableSpec spec) {
  if (deterministic_.count(spec.name) > 0) {
    return Status::AlreadyExists("table exists: " + spec.name);
  }
  for (const auto& s : specs_) {
    if (s.name == spec.name) {
      return Status::AlreadyExists("chain table exists: " + spec.name);
    }
  }
  if (!spec.init || !spec.transition) {
    return Status::InvalidArgument("chain table needs init and transition");
  }
  specs_.push_back(std::move(spec));
  return Status::OK();
}

Result<DatabaseState> MarkovChainDb::Run(size_t steps, uint64_t seed,
                                         uint64_t rep,
                                         const Observer& observer) {
  MDE_TRACE_SPAN("simsql.run");
  history_.clear();
  const uint64_t run_start_ns = obs::NowNanos();
  ChainRunner runner(*this, steps, seed, rep, observer);
  while (!runner.Done()) MDE_RETURN_NOT_OK(runner.StepOnce());
  MDE_ASSIGN_OR_RETURN(DatabaseState final_state, runner.Finish());
  // Chain throughput for this Run: the sampled time series shows step-rate
  // collapse (e.g. a transition that grows its table) long before a
  // wall-clock budget trips.
  const double secs =
      static_cast<double>(obs::NowNanos() - run_start_ns) * 1e-9;
  if (steps > 0 && secs > 0.0) {
    MDE_OBS_GAUGE_SET("simsql.steps_per_sec",
                      static_cast<double>(steps) / secs);
  }
  return final_state;
}

ChainRunner::ChainRunner(MarkovChainDb& db, size_t steps, uint64_t seed,
                         uint64_t rep, MarkovChainDb::Observer observer)
    : db_(db),
      steps_(steps),
      observer_(std::move(observer)),
      rng_(Rng::Substream(seed, rep)) {
  uint64_t fp = obs::FingerprintString("simsql.chain");
  for (const auto& spec : db_.specs_) {
    fp = obs::FingerprintMix(fp, obs::FingerprintString(spec.name));
  }
  fp = obs::FingerprintMix(fp, steps);
  fp = obs::FingerprintMix(fp, seed);
  fingerprint_ = obs::FingerprintMix(fp, rep);
}

Status ChainRunner::StepOnce() {
  if (Done()) {
    return Status::FailedPrecondition("simsql: chain already realized");
  }
  // Per-step attribution root: inner table queries issued by transitions
  // adopt this chain's context.
  MDE_OBS_QUERY_SCOPE("simsql.chain", fingerprint_);
  // Before any mutation: a fault here leaves state_/rng_ exactly at the
  // previous version boundary.
  MDE_FAULT_POINT("simsql.version");
  const size_t version = next_version_;
  DatabaseState next = db_.deterministic_;
  if (version == 0) {
    for (const auto& spec : db_.specs_) {
      MDE_ASSIGN_OR_RETURN(table::Table t, spec.init(next, rng_));
      next.erase(spec.name);
      next.emplace(spec.name, std::move(t));
    }
  } else {
    MDE_TRACE_SPAN("simsql.step");
    MDE_OBS_COUNT("simsql.steps", 1);
    for (const auto& spec : db_.specs_) {
      MDE_ASSIGN_OR_RETURN(table::Table t,
                           spec.transition(state_, next, rng_));
      next.erase(spec.name);
      next.emplace(spec.name, std::move(t));
      MDE_OBS_COUNT("simsql.chain_tables", 1);
    }
  }
  state_ = std::move(next);
  if (observer_) MDE_RETURN_NOT_OK(observer_(version, state_));
  if (db_.history_limit_ > 0) {
    history_.push_back(state_);
    if (history_.size() > db_.history_limit_) history_.erase(history_.begin());
  }
  ++next_version_;
  return Status::OK();
}

Result<std::string> ChainRunner::Save() const {
  ckpt::SnapshotWriter snap(engine_name());
  ckpt::SectionWriter* c = snap.AddSection("cursor");
  c->PutU64(next_version_);
  c->PutU64(steps_);
  c->PutRngState(rng_.state());
  PutState(snap.AddSection("state"), state_);
  ckpt::SectionWriter* h = snap.AddSection("history");
  h->PutU32(static_cast<uint32_t>(history_.size()));
  for (const DatabaseState& s : history_) PutState(h, s);
  return snap.Finish();
}

Status ChainRunner::Restore(const std::string& snapshot) {
  MDE_ASSIGN_OR_RETURN(ckpt::SnapshotReader snap,
                       ckpt::SnapshotReader::Parse(snapshot));
  if (snap.engine() != engine_name()) {
    return Status::InvalidArgument("checkpoint is for engine '" +
                                   snap.engine() + "', not simsql");
  }
  MDE_ASSIGN_OR_RETURN(ckpt::SectionReader c, snap.section("cursor"));
  const uint64_t version = c.U64();
  const uint64_t steps = c.U64();
  const Rng::State rng_state = c.RngState();
  MDE_RETURN_NOT_OK(c.ExpectEnd());
  if (steps != steps_) {
    return Status::InvalidArgument(
        "simsql checkpoint is for a different chain length");
  }
  MDE_ASSIGN_OR_RETURN(ckpt::SectionReader st, snap.section("state"));
  DatabaseState state = TakeState(&st);
  MDE_RETURN_NOT_OK(st.ExpectEnd());
  MDE_ASSIGN_OR_RETURN(ckpt::SectionReader h, snap.section("history"));
  std::vector<DatabaseState> history;
  const uint32_t nh = h.U32();
  for (uint32_t i = 0; i < nh && h.status().ok(); ++i) {
    history.push_back(TakeState(&h));
  }
  MDE_RETURN_NOT_OK(h.ExpectEnd());
  next_version_ = version;
  rng_.set_state(rng_state);
  state_ = std::move(state);
  history_ = std::move(history);
  return Status::OK();
}

Result<DatabaseState> ChainRunner::Finish() {
  if (!Done()) {
    return Status::FailedPrecondition("simsql: chain not fully realized");
  }
  db_.history_ = std::move(history_);
  history_.clear();
  return state_;
}

Result<std::vector<double>> MonteCarloChain(
    MarkovChainDb& db, size_t steps, size_t reps, uint64_t seed,
    const std::function<Result<double>(const DatabaseState&)>& query) {
  std::vector<double> samples;
  samples.reserve(reps);
  // Chain-diagnostics monitors: running CLT half-width and P² quantile
  // sketches over the replication samples, published as gauges so the
  // Sampler's time series shows the estimate tightening rep by rep.
  RunningStat ci;
  obs::P2Quantile q50(0.5);
  obs::P2Quantile q95(0.95);
  for (size_t rep = 0; rep < reps; ++rep) {
    Result<DatabaseState> final_state = db.Run(steps, seed, rep);
    if (!final_state.ok()) {
      MDE_OBS_COUNT("simsql.mc.reps_failed", 1);
      return final_state.status();
    }
    Result<double> v = query(final_state.value());
    if (!v.ok()) {
      MDE_OBS_COUNT("simsql.mc.reps_failed", 1);
      return v.status();
    }
    samples.push_back(v.value());
    MDE_OBS_COUNT("simsql.mc.reps", 1);
    ci.Add(v.value());
    if (ci.count() >= 2) {
      MDE_OBS_GAUGE_SET("simsql.mc.ci_halfwidth", ci.half_width());
    }
    MDE_OBS_GAUGE_SET("simsql.mc.ci_halfwidth.n", ci.count());
    q50.Add(v.value());
    q95.Add(v.value());
    MDE_OBS_GAUGE_SET("simsql.mc.q50", q50.Value());
    MDE_OBS_GAUGE_SET("simsql.mc.q95", q95.Value());
  }
  return samples;
}

}  // namespace mde::simsql
