#include "row_oracle.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

namespace mde::table::oracle {

Table Filter(const Table& t, const RowPredicate& pred) {
  Table out(t.schema());
  out.Reserve(t.num_rows());
  for (const Row& r : t.rows()) {
    if (pred(r)) out.Append(r);
  }
  return out;
}

Result<Table> Project(const Table& t,
                      const std::vector<std::string>& columns) {
  std::vector<size_t> idx;
  std::vector<ColumnSpec> cols;
  idx.reserve(columns.size());
  for (const auto& name : columns) {
    MDE_ASSIGN_OR_RETURN(size_t i, t.schema().IndexOf(name));
    idx.push_back(i);
    cols.push_back(t.schema().column(i));
  }
  Table out{Schema(std::move(cols))};
  out.Reserve(t.num_rows());
  for (const Row& r : t.rows()) {
    Row nr;
    nr.reserve(idx.size());
    for (size_t i : idx) nr.push_back(r[i]);
    out.Append(std::move(nr));
  }
  return out;
}

namespace {

struct KeyHash {
  size_t operator()(const std::vector<Value>& key) const {
    size_t h = 0x811c9dc5;
    for (const Value& v : key) h = h * 1099511628211ULL ^ v.Hash();
    return h;
  }
};

struct KeyEq {
  bool operator()(const std::vector<Value>& a,
                  const std::vector<Value>& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!(a[i] == b[i])) return false;
    }
    return true;
  }
};

std::vector<Value> ExtractKey(const Row& row, const std::vector<size_t>& idx) {
  std::vector<Value> key;
  key.reserve(idx.size());
  for (size_t i : idx) key.push_back(row[i]);
  return key;
}

struct AggState {
  size_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
};

}  // namespace

Result<Table> HashJoin(const Table& left, const Table& right,
                       const std::vector<std::string>& left_keys,
                       const std::vector<std::string>& right_keys) {
  if (left_keys.size() != right_keys.size() || left_keys.empty()) {
    return Status::InvalidArgument("join keys must be non-empty and paired");
  }
  std::vector<size_t> li, ri;
  for (const auto& k : left_keys) {
    MDE_ASSIGN_OR_RETURN(size_t i, left.schema().IndexOf(k));
    li.push_back(i);
  }
  for (const auto& k : right_keys) {
    MDE_ASSIGN_OR_RETURN(size_t i, right.schema().IndexOf(k));
    ri.push_back(i);
  }
  std::unordered_map<std::vector<Value>, std::vector<size_t>, KeyHash, KeyEq>
      index;
  index.reserve(right.num_rows());
  for (size_t r = 0; r < right.num_rows(); ++r) {
    std::vector<Value> key = ExtractKey(right.row(r), ri);
    bool has_null = false;
    for (const Value& v : key) has_null |= v.is_null();
    if (!has_null) index[std::move(key)].push_back(r);
  }
  Table out{Schema::Concat(left.schema(), right.schema(), "r.")};
  out.Reserve(left.num_rows());  // one-match-per-left-row estimate
  for (const Row& lrow : left.rows()) {
    std::vector<Value> key = ExtractKey(lrow, li);
    bool has_null = false;
    for (const Value& v : key) has_null |= v.is_null();
    if (has_null) continue;
    auto it = index.find(key);
    if (it == index.end()) continue;
    for (size_t r : it->second) {
      Row nr = lrow;
      const Row& rrow = right.row(r);
      nr.insert(nr.end(), rrow.begin(), rrow.end());
      out.Append(std::move(nr));
    }
  }
  return out;
}

Result<Table> GroupBy(const Table& t, const std::vector<std::string>& keys,
                      const std::vector<AggSpec>& aggs) {
  std::vector<size_t> key_idx;
  for (const auto& k : keys) {
    MDE_ASSIGN_OR_RETURN(size_t i, t.schema().IndexOf(k));
    key_idx.push_back(i);
  }
  std::vector<size_t> agg_idx(aggs.size(), 0);
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].kind != AggKind::kCount) {
      MDE_ASSIGN_OR_RETURN(size_t i, t.schema().IndexOf(aggs[a].column));
      const DataType dt = t.schema().column(i).type;
      if (dt != DataType::kInt64 && dt != DataType::kDouble) {
        return Status::InvalidArgument("aggregate over non-numeric column: " +
                                       aggs[a].column);
      }
      agg_idx[a] = i;
    }
  }

  // Key -> group number; groups are kept by number in first-appearance
  // order, so a key unequal to itself (NaN) is a group of its own.
  std::unordered_map<std::vector<Value>, size_t, KeyHash, KeyEq> groups;
  groups.reserve(std::min<size_t>(t.num_rows(), 1024));
  std::vector<std::vector<Value>> group_keys;
  std::vector<std::vector<AggState>> group_states;
  for (const Row& r : t.rows()) {
    std::vector<Value> key = ExtractKey(r, key_idx);
    auto it = groups.find(key);
    if (it == groups.end()) {
      it = groups.emplace(key, group_keys.size()).first;
      group_keys.push_back(std::move(key));
      group_states.emplace_back(aggs.size());
    }
    std::vector<AggState>& states = group_states[it->second];
    for (size_t a = 0; a < aggs.size(); ++a) {
      AggState& st = states[a];
      if (aggs[a].kind == AggKind::kCount) {
        ++st.count;
        continue;
      }
      const Value& v = r[agg_idx[a]];
      if (v.is_null()) continue;
      const double x = v.AsDouble();
      ++st.count;
      st.sum += x;
      st.min = std::min(st.min, x);
      st.max = std::max(st.max, x);
    }
  }

  std::vector<ColumnSpec> out_cols;
  for (size_t i : key_idx) out_cols.push_back(t.schema().column(i));
  for (const auto& a : aggs) {
    DataType dt = a.kind == AggKind::kCount ? DataType::kInt64
                                            : DataType::kDouble;
    out_cols.push_back({a.as, dt});
  }
  Table out{Schema(std::move(out_cols))};
  out.Reserve(group_keys.size());
  for (size_t g = 0; g < group_keys.size(); ++g) {
    const auto& states = group_states[g];
    Row r = group_keys[g];
    for (size_t a = 0; a < aggs.size(); ++a) {
      const AggState& st = states[a];
      switch (aggs[a].kind) {
        case AggKind::kCount:
          r.push_back(static_cast<int64_t>(st.count));
          break;
        case AggKind::kSum:
          r.push_back(st.sum);
          break;
        case AggKind::kAvg:
          r.push_back(st.count > 0 ? st.sum / static_cast<double>(st.count)
                                   : Value());
          break;
        case AggKind::kMin:
          r.push_back(st.count > 0 ? Value(st.min) : Value());
          break;
        case AggKind::kMax:
          r.push_back(st.count > 0 ? Value(st.max) : Value());
          break;
      }
    }
    out.Append(std::move(r));
  }
  return out;
}

Result<Table> OrderBy(const Table& t, const std::vector<std::string>& columns,
                      std::vector<bool> descending) {
  std::vector<size_t> idx;
  for (const auto& c : columns) {
    MDE_ASSIGN_OR_RETURN(size_t i, t.schema().IndexOf(c));
    idx.push_back(i);
  }
  if (descending.empty()) descending.assign(columns.size(), false);
  if (descending.size() != columns.size()) {
    return Status::InvalidArgument("descending flags arity mismatch");
  }
  std::vector<Row> rows = t.rows();
  std::stable_sort(rows.begin(), rows.end(),
                   [&](const Row& a, const Row& b) {
                     for (size_t k = 0; k < idx.size(); ++k) {
                       const Value& va = a[idx[k]];
                       const Value& vb = b[idx[k]];
                       if (va.LessThan(vb)) return !descending[k];
                       if (vb.LessThan(va)) {
                         return static_cast<bool>(descending[k]);
                       }
                     }
                     return false;
                   });
  return Table(t.schema(), std::move(rows));
}

Table Distinct(const Table& t) {
  std::unordered_map<std::vector<Value>, bool, KeyHash, KeyEq> seen;
  seen.reserve(t.num_rows());
  Table out(t.schema());
  out.Reserve(t.num_rows());
  for (const Row& r : t.rows()) {
    if (seen.emplace(r, true).second) out.Append(r);
  }
  return out;
}

Table Limit(const Table& t, size_t n) {
  Table out(t.schema());
  out.Reserve(std::min(n, t.num_rows()));
  for (size_t i = 0; i < std::min(n, t.num_rows()); ++i) out.Append(t.row(i));
  return out;
}

Result<double> AvgColumn(const Table& t, const std::string& column) {
  MDE_ASSIGN_OR_RETURN(size_t i, t.schema().IndexOf(column));
  double s = 0.0;
  size_t n = 0;
  for (const Row& r : t.rows()) {
    if (!r[i].is_null()) {
      s += r[i].AsDouble();
      ++n;
    }
  }
  if (n == 0) return Status::FailedPrecondition("AVG over empty column");
  return s / static_cast<double>(n);
}

}  // namespace mde::table::oracle
