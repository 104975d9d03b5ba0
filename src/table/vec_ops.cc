#include "table/vec_ops.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <utility>

#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "simd/simd.h"
#include "table/key_index.h"
#include "util/check.h"
#include "util/rng.h"

namespace mde::table {

namespace {

using internal::KeyIndex;
using internal::kNone;

std::atomic<ThreadPool*> g_vec_pool{nullptr};

size_t NumChunksFor(size_t n) { return (n + kVecGrain - 1) / kVecGrain; }

/// Runs fn(chunk, begin, end) over the fixed kVecGrain chunking — on the
/// pool when one is attached, otherwise serially over the SAME chunks in
/// ascending order, so both paths see identical chunk boundaries.
template <typename Fn>
void RunChunks(ThreadPool* pool, size_t n, Fn&& fn) {
  if (n == 0) return;
  if (pool != nullptr) {
    pool->ParallelForChunks(n, kVecGrain, fn);
    return;
  }
  const size_t chunks = NumChunksFor(n);
  for (size_t c = 0; c < chunks; ++c) {
    fn(c, c * kVecGrain, std::min(n, (c + 1) * kVecGrain));
  }
}

/// Evaluates `pred(row)` over the batch domain (selection or all rows),
/// collecting matching row indices in ascending order. Chunk-parallel;
/// per-chunk outputs are concatenated in chunk order, so the result is
/// independent of thread count.
template <typename Pred>
SelVector CollectMatches(size_t domain, const SelVector* sel, ThreadPool* pool,
                         Pred pred) {
  std::vector<SelVector> parts(NumChunksFor(domain));
  RunChunks(pool, domain, [&](size_t c, size_t b, size_t e) {
    SelVector& out = parts[c];
    out.reserve(e - b);
    if (sel != nullptr) {
      for (size_t j = b; j < e; ++j) {
        const uint32_t r = (*sel)[j];
        if (pred(r)) out.push_back(r);
      }
    } else {
      for (size_t j = b; j < e; ++j) {
        const uint32_t r = static_cast<uint32_t>(j);
        if (pred(r)) out.push_back(r);
      }
    }
  });
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  SelVector out;
  out.reserve(total);
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

/// Numeric filter: both sides compare as double, exactly like
/// Value::Equals/LessThan (int64 coerces through AsDouble, so values beyond
/// 2^53 collapse the same way on both paths).
template <typename Get>
SelVector FilterNumeric(size_t domain, const SelVector* sel, ThreadPool* pool,
                        const Column& c, Get get, CmpOp op, double lit) {
  switch (op) {
    case CmpOp::kEq:
      return CollectMatches(domain, sel, pool, [&c, get, lit](uint32_t r) {
        return c.IsValid(r) && get(r) == lit;
      });
    case CmpOp::kNe:
      return CollectMatches(domain, sel, pool, [&c, get, lit](uint32_t r) {
        return c.IsValid(r) && get(r) != lit;
      });
    case CmpOp::kLt:
      return CollectMatches(domain, sel, pool, [&c, get, lit](uint32_t r) {
        return c.IsValid(r) && get(r) < lit;
      });
    case CmpOp::kLe:
      return CollectMatches(domain, sel, pool, [&c, get, lit](uint32_t r) {
        return c.IsValid(r) && get(r) <= lit;
      });
    case CmpOp::kGt:
      return CollectMatches(domain, sel, pool, [&c, get, lit](uint32_t r) {
        return c.IsValid(r) && get(r) > lit;
      });
    case CmpOp::kGe:
      return CollectMatches(domain, sel, pool, [&c, get, lit](uint32_t r) {
        return c.IsValid(r) && get(r) >= lit;
      });
  }
  return {};
}

/// CmpOp and simd::Cmp enumerate the predicates in the same order with the
/// same semantics (C++ operators on double; kNe true on NaN).
simd::Cmp ToSimdCmp(CmpOp op) { return static_cast<simd::Cmp>(op); }

/// Dense (no selection vector) filter driver: per kVecGrain chunk a kernel
/// writes the predicate bitmap, validity words are ANDed in (kVecGrain is a
/// multiple of 64, so a chunk owns whole bitmap words), and BitmapToSel
/// compacts the set bits into the chunk's part of the selection. Chunk parts
/// concatenate in chunk order, so the result is byte-identical to the
/// scalar row loop for every dispatch tier and thread count.
template <typename Kernel>
SelVector CollectMatchesDense(size_t n, const Column& c, ThreadPool* pool,
                              Kernel kernel) {
  std::vector<SelVector> parts(NumChunksFor(n));
  const bool has_nulls = !c.valid.empty();
  RunChunks(pool, n, [&](size_t ck, size_t b, size_t e) {
    const size_t len = e - b;
    const size_t nwords = (len + 63) / 64;
    uint64_t words[kVecGrain / 64];
    kernel(b, len, words);
    if (has_nulls) {
      simd::AndWords(words, c.valid.data() + (b >> 6), nwords, words);
    }
    SelVector& out = parts[ck];
    out.resize(simd::PopcountWords(words, nwords));
    simd::BitmapToSel(words, nwords, static_cast<uint32_t>(b), out.data());
  });
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  SelVector out;
  out.reserve(total);
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

/// All-rows kernel (padding bits of the tail word zero): the dense form of
/// the "every non-null cell matches" filters.
void AllOnesBitmap(size_t len, uint64_t* words) {
  const size_t nwords = (len + 63) / 64;
  for (size_t w = 0; w < nwords; ++w) words[w] = ~uint64_t{0};
  if (len % 64 != 0) words[nwords - 1] = (uint64_t{1} << (len % 64)) - 1;
}

/// The int64 set {x : double(x) op lit} for the numeric filter. double() is
/// monotone over int64, so the set is a contiguous range [lo, hi] (possibly
/// empty, possibly complemented for kNe) — which turns the mixed
/// int64-compared-as-double predicate into pure integer compares.
struct I64CmpRange {
  int64_t lo = 1;
  int64_t hi = 0;  // lo > hi: empty range
  bool negate = false;
};

/// Smallest x with pred(x) true, where pred is monotone (all-false prefix,
/// all-true suffix). Returns false when pred is false everywhere.
template <typename Pred>
bool FirstTrueI64(Pred pred, int64_t* out) {
  int64_t hi = std::numeric_limits<int64_t>::max();
  if (!pred(hi)) return false;
  int64_t lo = std::numeric_limits<int64_t>::min();
  if (pred(lo)) {
    *out = lo;
    return true;
  }
  // Invariant: !pred(lo) && pred(hi). The unsigned difference is exact for
  // lo < hi even across the full int64 span.
  while (static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) > 1) {
    const int64_t mid =
        lo + static_cast<int64_t>(
                 (static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo)) / 2);
    (pred(mid) ? hi : lo) = mid;
  }
  *out = hi;
  return true;
}

I64CmpRange RangeForI64Cmp(CmpOp op, double lit) {
  I64CmpRange r;
  if (std::isnan(lit)) {
    // x op NaN is false for every op except !=, which is always true.
    if (op == CmpOp::kNe) r.negate = true;  // empty range, complemented
    return r;
  }
  const auto ge = [lit](int64_t x) { return static_cast<double>(x) >= lit; };
  const auto gt = [lit](int64_t x) { return static_cast<double>(x) > lit; };
  int64_t first_ge = 0, first_gt = 0;
  const bool has_ge = FirstTrueI64(ge, &first_ge);
  const bool has_gt = FirstTrueI64(gt, &first_gt);
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  switch (op) {
    case CmpOp::kEq:
    case CmpOp::kNe:
      if (!has_ge) return r;  // nothing reaches lit
      r.lo = first_ge;
      r.hi = has_gt ? first_gt - 1 : kMax;
      r.negate = op == CmpOp::kNe;
      return r;
    case CmpOp::kLt:
      if (!has_ge) {
        r.lo = kMin;
        r.hi = kMax;
        return r;  // everything is < lit
      }
      if (first_ge == kMin) return r;  // nothing is < lit
      r.lo = kMin;
      r.hi = first_ge - 1;
      return r;
    case CmpOp::kLe:
      if (!has_gt) {
        r.lo = kMin;
        r.hi = kMax;
        return r;
      }
      if (first_gt == kMin) return r;
      r.lo = kMin;
      r.hi = first_gt - 1;
      return r;
    case CmpOp::kGt:
      if (!has_gt) return r;
      r.lo = first_gt;
      r.hi = kMax;
      return r;
    case CmpOp::kGe:
      if (!has_ge) return r;
      r.lo = first_ge;
      r.hi = kMax;
      return r;
  }
  return r;
}

bool CmpStrings(const std::string& a, CmpOp op, const std::string& b) {
  switch (op) {
    case CmpOp::kEq:
      return a == b;
    case CmpOp::kNe:
      return a != b;
    case CmpOp::kLt:
      return a < b;
    case CmpOp::kLe:
      return a <= b;
    case CmpOp::kGt:
      return a > b;
    case CmpOp::kGe:
      return a >= b;
  }
  return false;
}

/// Gathers `sel` out of `c` into a fresh contiguous column. String
/// dictionaries are shared, not rebuilt (the gathered dict may be a
/// superset of the codes in use — harmless). kVecGrain is a multiple of 64,
/// so parallel chunks own disjoint validity-bitmap words.
std::shared_ptr<const Column> GatherColumn(const Column& c,
                                           const SelVector& sel,
                                           ThreadPool* pool) {
  auto out = std::make_shared<Column>();
  out->type = c.type;
  const size_t n = sel.size();
  out->size = n;
  // The typed block is sized without zeroing (AlignedVector): the chunk
  // loop below writes every slot, so the workers first-touch it. Only the
  // validity bitmap, which is OR-ed into, starts from explicit zeros.
  switch (c.type) {
    case DataType::kInt64:
      out->i64.resize(n);
      break;
    case DataType::kDouble:
      out->f64.resize(n);
      break;
    case DataType::kBool:
      out->b8.resize(n);
      break;
    case DataType::kString:
      out->codes.resize(n);
      out->dict = c.dict;
      break;
    case DataType::kNull:
      break;
  }
  const bool has_nulls = !c.valid.empty();
  if (has_nulls) out->valid.assign((n + 63) / 64, 0);
  // The typed blocks come from AlignedVector: cache-line-aligned starts for
  // the kernels that scan them later.
  assert(out->i64.empty() || IsAligned(out->i64.data(), 64));
  assert(out->f64.empty() || IsAligned(out->f64.data(), 64));
  assert(out->valid.empty() || IsAligned(out->valid.data(), 64));
  RunChunks(pool, n, [&](size_t, size_t b, size_t e) {
    switch (c.type) {
      case DataType::kInt64:
        for (size_t j = b; j < e; ++j) out->i64[j] = c.i64[sel[j]];
        break;
      case DataType::kDouble:
        for (size_t j = b; j < e; ++j) out->f64[j] = c.f64[sel[j]];
        break;
      case DataType::kBool:
        for (size_t j = b; j < e; ++j) out->b8[j] = c.b8[sel[j]];
        break;
      case DataType::kString:
        for (size_t j = b; j < e; ++j) out->codes[j] = c.codes[sel[j]];
        break;
      case DataType::kNull:
        break;
    }
    if (has_nulls) {
      for (size_t j = b; j < e; ++j) {
        if (c.IsValid(sel[j])) out->valid[j >> 6] |= uint64_t{1} << (j & 63);
      }
    }
  });
  return AccountColumnBlock(std::move(out));
}

/// A key column prepared for hashing: strings get a per-dictionary-code
/// content hash so keys from tables with different dictionaries agree.
struct KeyCol {
  const Column* col;
  std::vector<uint64_t> code_hash;
};

KeyCol MakeKeyCol(const Column& c) {
  KeyCol k{&c, {}};
  if (c.type == DataType::kString) {
    const auto& dict = *c.dict;
    k.code_hash.resize(dict.size());
    std::hash<std::string> h;
    for (size_t i = 0; i < dict.size(); ++i) k.code_hash[i] = h(dict[i]);
  }
  return k;
}

uint32_t RowAt(const ColumnarBatch& b, size_t j) {
  return b.whole ? static_cast<uint32_t>(j) : b.sel[j];
}

/// Rows hashed per block in ForEachHashedRow: their hashes stay in L1.
constexpr size_t kHashBlock = 256;
constexpr uint64_t kNullCellHash = 0x9b1f;

/// Calls fn(j, r, h) for each j in [b, e) in order, where r = RowAt(in, j)
/// and h is the hash of row r's key ks. Hashes are computed kHashBlock rows
/// at a time, one key column at a time with its type dispatched once, so
/// the rows' hashes are independent work. Nulls hash alike, -0.0 hashes as
/// +0.0 (they compare equal), and a string hashes its content.
template <typename Fn>
void ForEachHashedRow(const std::vector<KeyCol>& ks, const ColumnarBatch& in,
                      size_t b, size_t e, Fn&& fn) {
  uint64_t h[kHashBlock];
  for (size_t hb = b; hb < e; hb += kHashBlock) {
    const size_t n = std::min(e - hb, kHashBlock);
    std::fill(h, h + n, uint64_t{0x811c9dc5});
    for (const KeyCol& k : ks) {
      const Column& c = *k.col;
      const auto mix = [&](auto cell) {
        if (c.valid.empty()) {
          for (size_t i = 0; i < n; ++i) {
            h[i] = h[i] * 1099511628211ULL ^ cell(RowAt(in, hb + i));
          }
          return;
        }
        for (size_t i = 0; i < n; ++i) {
          const uint32_t r = RowAt(in, hb + i);
          h[i] = h[i] * 1099511628211ULL ^
                 (c.IsValid(r) ? cell(r) : kNullCellHash);
        }
      };
      switch (c.type) {
        case DataType::kInt64:
          mix([&](uint32_t r) {
            return SplitMix64Hash(static_cast<uint64_t>(c.i64[r]));
          });
          break;
        case DataType::kDouble:
          mix([&](uint32_t r) {
            const double d = c.f64[r] == 0.0 ? 0.0 : c.f64[r];
            uint64_t bits;
            std::memcpy(&bits, &d, sizeof(bits));
            return SplitMix64Hash(bits);
          });
          break;
        case DataType::kBool:
          mix([&](uint32_t r) -> uint64_t { return c.b8[r] ? 0x51 : 0x52; });
          break;
        case DataType::kString:
          mix([&](uint32_t r) { return k.code_hash[c.codes[r]]; });
          break;
        case DataType::kNull:
          mix([](uint32_t) { return kNullCellHash; });
          break;
      }
    }
    for (size_t i = 0; i < n; ++i) fn(hb + i, RowAt(in, hb + i), h[i]);
  }
}

/// Strict variant equality between cells of two SAME-TYPED columns: nulls
/// equal nulls (grouping semantics), doubles by IEEE == (so NaN != NaN and
/// -0.0 == +0.0, exactly like Value::operator==).
bool CellEq(const KeyCol& ka, uint32_t ra, const KeyCol& kb, uint32_t rb) {
  const Column& a = *ka.col;
  const Column& b = *kb.col;
  const bool va = a.IsValid(ra);
  const bool vb = b.IsValid(rb);
  if (!va || !vb) return va == vb;
  switch (a.type) {
    case DataType::kInt64:
      return a.i64[ra] == b.i64[rb];
    case DataType::kDouble:
      return a.f64[ra] == b.f64[rb];
    case DataType::kBool:
      return a.b8[ra] == b.b8[rb];
    case DataType::kString:
      return a.dict == b.dict ? a.codes[ra] == b.codes[rb]
                              : a.StringAt(ra) == b.StringAt(rb);
    case DataType::kNull:
      return true;
  }
  return false;
}

bool RowKeyEq(const std::vector<KeyCol>& a, uint32_t ra,
              const std::vector<KeyCol>& b, uint32_t rb) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (!CellEq(a[i], ra, b[i], rb)) return false;
  }
  return true;
}

bool AnyNull(const std::vector<KeyCol>& ks, uint32_t r) {
  for (const auto& k : ks) {
    if (!k.col->IsValid(r)) return true;
  }
  return false;
}

/// Build rows grouped by key: group g's rows are rows[begin[g]..begin[g+1])
/// in build order (CSR). `gid[i]` is the group of build row `build[i]`.
struct GroupRows {
  std::vector<uint32_t> begin;
  SelVector rows;

  GroupRows(const SelVector& build, const std::vector<uint32_t>& gid,
            size_t ngroups)
      : begin(ngroups + 1, 0), rows(build.size()) {
    for (uint32_t g : gid) ++begin[g + 1];
    for (size_t g = 0; g < ngroups; ++g) begin[g + 1] += begin[g];
    std::vector<uint32_t> next(begin.begin(), begin.end() - 1);
    for (size_t i = 0; i < build.size(); ++i) rows[next[gid[i]]++] = build[i];
  }
};

/// One probe chunk's matches: left row l[i] joins right row r[i].
struct JoinPart {
  AlignedVector<uint32_t> l, r;

  void Add(uint32_t lr, uint32_t rr) {
    l.push_back(lr);
    r.push_back(rr);
  }
};

/// Concatenates the per-chunk matches in chunk order (left-major) and
/// gathers the joined columns.
std::shared_ptr<const ColumnarTable> GatherJoin(
    const ColumnarTable& L, const ColumnarTable& R, Schema out_schema,
    const std::vector<JoinPart>& parts, ThreadPool* pool) {
  size_t total = 0;
  for (const auto& p : parts) total += p.l.size();
  SelVector lsel, rsel;
  lsel.reserve(total);
  rsel.reserve(total);
  for (const auto& p : parts) {
    lsel.insert(lsel.end(), p.l.begin(), p.l.end());
    rsel.insert(rsel.end(), p.r.begin(), p.r.end());
  }
  std::vector<std::shared_ptr<const Column>> out_cols;
  out_cols.reserve(L.num_columns() + R.num_columns());
  for (size_t i = 0; i < L.num_columns(); ++i) {
    out_cols.push_back(GatherColumn(L.col(i), lsel, pool));
  }
  for (size_t i = 0; i < R.num_columns(); ++i) {
    out_cols.push_back(GatherColumn(R.col(i), rsel, pool));
  }
  return std::make_shared<const ColumnarTable>(std::move(out_schema),
                                               std::move(out_cols), total);
}

/// A dense int64 index spans at most this many 4-byte slots per build key:
/// half the memory of the join's key index (16-byte slots, a quarter full).
constexpr uint64_t kDenseSlotsPerKey = 8;

/// Single int64 key join over unique, dense build keys: their span (max -
/// min, taken in unsigned arithmetic, so exact over all of int64) is under
/// kDenseSlotsPerKey x their count. slot[key - min] holds the key's build
/// row, and each probe is a clamped load and a conditional advance of the
/// output cursor, with no branch per row. Returns false, having written no
/// output, when the build keys are sparse or repeat; JoinGeneral takes
/// those.
bool JoinDenseUniqueInt64(const ColumnarBatch& left, const Column& lc,
                          const ColumnarBatch& right, const Column& rc,
                          ThreadPool* pool, std::vector<JoinPart>* parts) {
  size_t nkeys = 0;
  int64_t lo = std::numeric_limits<int64_t>::max();
  int64_t hi = std::numeric_limits<int64_t>::min();
  for (size_t j = 0; j < right.size(); ++j) {
    const uint32_t r = RowAt(right, j);
    if (!rc.IsValid(r)) continue;
    ++nkeys;
    lo = std::min(lo, rc.i64[r]);
    hi = std::max(hi, rc.i64[r]);
  }
  if (nkeys == 0) return true;  // only null build keys: nothing joins
  const uint64_t base = static_cast<uint64_t>(lo);
  const uint64_t span = static_cast<uint64_t>(hi) - base;
  if (span >= kDenseSlotsPerKey * nkeys) return false;

  // slot[span + 1] stays empty (kNone), the target of every probe key
  // outside [lo, hi].
  std::vector<uint32_t> slot(span + 2, kNone);
  for (size_t j = 0; j < right.size(); ++j) {
    const uint32_t r = RowAt(right, j);
    if (!rc.IsValid(r)) continue;
    uint32_t& s = slot[static_cast<uint64_t>(rc.i64[r]) - base];
    if (s != kNone) return false;
    s = r;
  }

  // A null left key reads some slot and is masked out.
  const int64_t* lkeys = lc.i64.data();
  const uint64_t* lvalid = lc.valid.empty() ? nullptr : lc.valid.data();
  RunChunks(pool, left.size(), [&](size_t c, size_t b, size_t e) {
    JoinPart& out = (*parts)[c];
    out.l.resize(e - b);
    out.r.resize(e - b);
    uint32_t* ol = out.l.data();
    uint32_t* orow = out.r.data();
    size_t k = 0;
    for (size_t j = b; j < e; ++j) {
      const uint32_t lr = RowAt(left, j);
      const uint64_t off = static_cast<uint64_t>(lkeys[lr]) - base;
      const uint32_t rr = slot[std::min(off, span + 1)];
      ol[k] = lr;
      orow[k] = rr;
      uint32_t hit = rr != kNone;
      if (lvalid != nullptr) hit &= (lvalid[lr >> 6] >> (lr & 63)) & 1;
      k += hit;
    }
    out.l.resize(k);
    out.r.resize(k);
  });
  return true;
}

/// Any key list: KeyIndex tagged by the row key hash, with strict row
/// equality against each group's first row. Build rows with a null key can
/// never match and stay out of the build, so a null left key finds no group
/// (CellEq never equates null and value); a build key unequal to itself
/// (NaN) gets a group without a slot, which no probe reaches.
void JoinGeneral(const ColumnarBatch& left, const std::vector<KeyCol>& lk,
                 const ColumnarBatch& right, const std::vector<KeyCol>& rk,
                 ThreadPool* pool, std::vector<JoinPart>* parts) {
  SelVector build;
  std::vector<uint32_t> gid;
  // At most a quarter full: each left row probes it, and most misses then
  // end at their home slot.
  KeyIndex index(2 * right.size());
  ForEachHashedRow(rk, right, 0, right.size(),
                   [&](size_t, uint32_t r, uint64_t h) {
                     if (AnyNull(rk, r)) return;
                     build.push_back(r);
                     gid.push_back(index.FindOrAdd(h, r, [&](uint32_t f) {
                       return RowKeyEq(rk, r, rk, f);
                     }));
                   });
  const GroupRows groups(build, gid, index.num_groups());
  RunChunks(pool, left.size(), [&](size_t c, size_t b, size_t e) {
    JoinPart& out = (*parts)[c];
    ForEachHashedRow(lk, left, b, e, [&](size_t, uint32_t lr, uint64_t h) {
      const uint32_t g =
          index.Find(h, [&](uint32_t f) { return RowKeyEq(lk, lr, rk, f); });
      if (g == kNone) return;
      for (uint32_t k = groups.begin[g]; k < groups.begin[g + 1]; ++k) {
        out.Add(lr, groups.rows[k]);
      }
    });
  });
}

/// Per-group, per-aggregate accumulator.
struct AggState {
  size_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
};

std::shared_ptr<const ColumnarTable> EmptyLike(const Schema& schema) {
  ColumnarTableBuilder b(schema);
  auto r = b.Finish();
  MDE_CHECK(r.ok());
  return std::move(r).value();
}

}  // namespace

void SetVecPool(ThreadPool* pool) {
  g_vec_pool.store(pool, std::memory_order_release);
}

ThreadPool* VecPool() { return g_vec_pool.load(std::memory_order_acquire); }

Table BatchToTable(const ColumnarBatch& batch, ThreadPool* pool) {
  if (batch.whole) return Table::FromColumnar(batch.cols);
  return Table::FromColumnar(VecCompact(*batch.cols, batch.sel, pool));
}

std::shared_ptr<const ColumnarTable> VecCompact(const ColumnarTable& t,
                                                const SelVector& sel,
                                                ThreadPool* pool) {
  MDE_TRACE_SPAN("vec.compact");
  MDE_OBS_COUNT("vec.compact.rows_out", sel.size());
  MDE_OBS_ATTR_ADD(rows_out, sel.size());
  std::vector<std::shared_ptr<const Column>> cols;
  cols.reserve(t.num_columns());
  for (size_t i = 0; i < t.num_columns(); ++i) {
    cols.push_back(GatherColumn(t.col(i), sel, pool));
  }
  return std::make_shared<const ColumnarTable>(t.schema(), std::move(cols),
                                               sel.size());
}

namespace {

Result<SelVector> VecFilterImpl(const ColumnarTable& t, const SelVector* sel,
                                const std::string& column, CmpOp op,
                                const Value& literal, ThreadPool* pool) {
  MDE_ASSIGN_OR_RETURN(size_t idx, t.schema().IndexOf(column));
  if (literal.is_null()) return SelVector{};  // null literal matches nothing
  const Column& c = t.col(idx);
  const size_t domain = sel != nullptr ? sel->size() : t.num_rows();

  const DataType lt = literal.type();
  const bool col_num =
      c.type == DataType::kInt64 || c.type == DataType::kDouble;
  const bool lit_num = lt == DataType::kInt64 || lt == DataType::kDouble;
  if (col_num && lit_num) {
    const double lit = literal.AsDouble();
    if (c.type == DataType::kInt64) {
      const int64_t* data = c.i64.data();
      if (sel == nullptr) {
        const I64CmpRange rr = RangeForI64Cmp(op, lit);
        return CollectMatchesDense(
            domain, c, pool,
            [data, rr](size_t b, size_t len, uint64_t* words) {
              simd::CmpI64RangeBitmap(data + b, len, rr.lo, rr.hi, rr.negate,
                                      words);
            });
      }
      return FilterNumeric(
          domain, sel, pool, c,
          [data](uint32_t r) { return static_cast<double>(data[r]); }, op,
          lit);
    }
    const double* data = c.f64.data();
    if (sel == nullptr) {
      const simd::Cmp sop = ToSimdCmp(op);
      return CollectMatchesDense(
          domain, c, pool, [data, sop, lit](size_t b, size_t len,
                                            uint64_t* words) {
            simd::CmpF64Bitmap(data + b, len, sop, lit, words);
          });
    }
    return FilterNumeric(
        domain, sel, pool, c, [data](uint32_t r) { return data[r]; }, op, lit);
  }
  if (c.type == DataType::kString && lt == DataType::kString) {
    const auto& dict = *c.dict;
    const std::string& ls = literal.AsString();
    const uint32_t* codes_eq = c.codes.data();
    if (op == CmpOp::kEq || op == CmpOp::kNe) {
      // Equality never needs string comparisons per row OR per entry:
      // resolve the literal to its (unique, interned) dictionary code
      // once, then the filter is a pure integer compare on the code
      // block — on both the dense and the selection-vector paths.
      const bool negate = op == CmpOp::kNe;
      uint32_t code = static_cast<uint32_t>(dict.size());
      for (size_t k = 0; k < dict.size(); ++k) {
        if (dict[k] == ls) {
          code = static_cast<uint32_t>(k);
          break;
        }
      }
      if (code == dict.size()) {
        // Literal absent from the dictionary: eq matches nothing, ne
        // matches every valid row.
        if (!negate) return SelVector{};
        if (sel == nullptr) {
          return CollectMatchesDense(domain, c, pool,
                                     [](size_t, size_t len, uint64_t* words) {
                                       AllOnesBitmap(len, words);
                                     });
        }
        return CollectMatches(domain, sel, pool,
                              [&c](uint32_t r) { return c.IsValid(r); });
      }
      if (sel == nullptr) {
        return CollectMatchesDense(
            domain, c, pool,
            [codes_eq, code, negate](size_t b, size_t len, uint64_t* words) {
              simd::CmpU32EqBitmap(codes_eq + b, len, code, negate, words);
            });
      }
      return CollectMatches(domain, sel, pool,
                            [&c, codes_eq, code, negate](uint32_t r) {
                              return c.IsValid(r) &&
                                     ((codes_eq[r] == code) != negate);
                            });
    }
    // Ordered comparisons: one string comparison per distinct dictionary
    // entry, then a per-row table lookup — the payoff of dictionary
    // encoding.
    std::vector<uint8_t> match(dict.size());
    for (size_t k = 0; k < dict.size(); ++k) {
      match[k] = CmpStrings(dict[k], op, ls) ? 1 : 0;
    }
    const uint32_t* codes = c.codes.data();
    const uint8_t* m = match.data();
    if (sel == nullptr) {
      // Most dictionary filters resolve to one matching (or one excluded)
      // code — an equality bitmap kernel. Degenerate LUTs (all/none) reduce
      // to the valid-only / empty filters; multi-code LUTs stay scalar.
      const size_t nmatch = static_cast<size_t>(
          std::count(match.begin(), match.end(), uint8_t{1}));
      if (nmatch == 0) return SelVector{};
      if (nmatch == match.size()) {
        return CollectMatchesDense(domain, c, pool,
                                   [](size_t, size_t len, uint64_t* words) {
                                     AllOnesBitmap(len, words);
                                   });
      }
      if (nmatch == 1 || nmatch == match.size() - 1) {
        const bool negate = nmatch != 1;
        const uint8_t want = negate ? 0 : 1;
        const uint32_t code = static_cast<uint32_t>(
            std::find(match.begin(), match.end(), want) - match.begin());
        return CollectMatchesDense(
            domain, c, pool,
            [codes, code, negate](size_t b, size_t len, uint64_t* words) {
              simd::CmpU32EqBitmap(codes + b, len, code, negate, words);
            });
      }
    }
    return CollectMatches(domain, sel, pool, [&c, codes, m](uint32_t r) {
      return c.IsValid(r) && m[codes[r]] != 0;
    });
  }
  if (c.type == DataType::kBool && lt == DataType::kBool) {
    const bool keep_false = EvalCmp(Value(false), op, literal);
    const bool keep_true = EvalCmp(Value(true), op, literal);
    const uint8_t* data = c.b8.data();
    if (sel == nullptr) {
      if (!keep_false && !keep_true) return SelVector{};
      if (keep_false && keep_true) {
        return CollectMatchesDense(domain, c, pool,
                                   [](size_t, size_t len, uint64_t* words) {
                                     AllOnesBitmap(len, words);
                                   });
      }
      return CollectMatchesDense(
          domain, c, pool,
          [data, keep_true](size_t b, size_t len, uint64_t* words) {
            simd::CmpU8Bitmap(data + b, len, keep_true, words);
          });
    }
    return CollectMatches(domain, sel, pool,
                          [&c, data, keep_false, keep_true](uint32_t r) {
                            return c.IsValid(r) &&
                                   (data[r] != 0 ? keep_true : keep_false);
                          });
  }
  if (c.type == DataType::kNull) return SelVector{};  // every cell null
  // Cross-type-class comparison: Value ranks type classes, so the result is
  // the same for every non-null cell — evaluate once on a representative.
  Value rep = c.type == DataType::kInt64    ? Value(int64_t{0})
              : c.type == DataType::kDouble ? Value(0.0)
              : c.type == DataType::kBool   ? Value(false)
                                            : Value(std::string());
  if (!EvalCmp(rep, op, literal)) return SelVector{};
  if (sel == nullptr) {
    return CollectMatchesDense(domain, c, pool,
                               [](size_t, size_t len, uint64_t* words) {
                                 AllOnesBitmap(len, words);
                               });
  }
  return CollectMatches(domain, sel, pool,
                        [&c](uint32_t r) { return c.IsValid(r); });
}

}  // namespace

Result<SelVector> VecFilter(const ColumnarTable& t, const SelVector* sel,
                            const std::string& column, CmpOp op,
                            const Value& literal, ThreadPool* pool) {
  MDE_TRACE_SPAN("vec.filter");
  const size_t domain = sel != nullptr ? sel->size() : t.num_rows();
  MDE_OBS_COUNT("vec.filter.rows_in", domain);
  MDE_OBS_ATTR_ADD(rows_in, domain);
  MDE_OBS_COUNT("vec.chunks", NumChunksFor(domain));
  auto r = VecFilterImpl(t, sel, column, op, literal, pool);
  if (r.ok()) {
    MDE_OBS_COUNT("vec.filter.rows_out", r.value().size());
    MDE_OBS_ATTR_ADD(rows_out, r.value().size());
  }
  return r;
}

Result<ColumnarBatch> VecProject(const ColumnarBatch& in,
                                 const std::vector<std::string>& columns) {
  MDE_TRACE_SPAN("vec.project");
  std::vector<ColumnSpec> specs;
  std::vector<std::shared_ptr<const Column>> cols;
  specs.reserve(columns.size());
  cols.reserve(columns.size());
  for (const auto& name : columns) {
    MDE_ASSIGN_OR_RETURN(size_t i, in.cols->schema().IndexOf(name));
    specs.push_back(in.cols->schema().column(i));
    cols.push_back(in.cols->col_ptr(i));
  }
  ColumnarBatch out;
  out.cols = std::make_shared<const ColumnarTable>(
      Schema(std::move(specs)), std::move(cols), in.cols->num_rows());
  out.sel = in.sel;
  out.whole = in.whole;
  return out;
}

Result<std::shared_ptr<const ColumnarTable>> VecHashJoin(
    const ColumnarBatch& left, const ColumnarBatch& right,
    const std::vector<std::string>& left_keys,
    const std::vector<std::string>& right_keys, ThreadPool* pool) {
  MDE_TRACE_SPAN("vec.hash_join");
  if (left_keys.size() != right_keys.size() || left_keys.empty()) {
    return Status::InvalidArgument("join keys must be non-empty and paired");
  }
  MDE_OBS_COUNT("vec.hash_join.rows_in", left.size() + right.size());
  MDE_OBS_ATTR_ADD(rows_in, left.size() + right.size());
  MDE_OBS_COUNT("vec.chunks", NumChunksFor(left.size()));
  const ColumnarTable& L = *left.cols;
  const ColumnarTable& R = *right.cols;
  std::vector<size_t> li, ri;
  for (const auto& k : left_keys) {
    MDE_ASSIGN_OR_RETURN(size_t i, L.schema().IndexOf(k));
    li.push_back(i);
  }
  for (const auto& k : right_keys) {
    MDE_ASSIGN_OR_RETURN(size_t i, R.schema().IndexOf(k));
    ri.push_back(i);
  }
  Schema out_schema = Schema::Concat(L.schema(), R.schema(), "r.");

  // Keys compare with strict variant equality, so differently-typed key
  // pairs can never match.
  bool type_mismatch = false;
  for (size_t i = 0; i < li.size(); ++i) {
    if (L.schema().column(li[i]).type != R.schema().column(ri[i]).type) {
      type_mismatch = true;
    }
  }
  const size_t ln = left.size();
  const size_t rn = right.size();
  if (type_mismatch || ln == 0 || rn == 0) return EmptyLike(out_schema);

  // Matches per probe chunk; concatenated in chunk order they give the
  // serial output order exactly (left rows in order, each one's right
  // matches in build order).
  std::vector<JoinPart> parts(NumChunksFor(ln));
  // Single int64 key over unique, dense build keys: entity ids in the sims.
  const bool dense =
      li.size() == 1 && L.schema().column(li[0]).type == DataType::kInt64 &&
      JoinDenseUniqueInt64(left, L.col(li[0]), right, R.col(ri[0]), pool,
                           &parts);
  if (!dense) {
    std::vector<KeyCol> lk, rk;
    for (size_t i : li) lk.push_back(MakeKeyCol(L.col(i)));
    for (size_t i : ri) rk.push_back(MakeKeyCol(R.col(i)));
    JoinGeneral(left, lk, right, rk, pool, &parts);
  }
  auto out = GatherJoin(L, R, std::move(out_schema), parts, pool);
  MDE_OBS_COUNT("vec.hash_join.rows_out", out->num_rows());
  MDE_OBS_ATTR_ADD(rows_out, out->num_rows());
  return out;
}

Result<std::shared_ptr<const ColumnarTable>> VecNestedLoopJoin(
    const ColumnarTable& left, const std::string& left_col, CmpOp op,
    const ColumnarTable& right, const std::string& right_col,
    ThreadPool* pool) {
  MDE_TRACE_SPAN("vec.nested_loop_join");
  MDE_OBS_COUNT("vec.nested_loop_join.rows_in",
                left.num_rows() + right.num_rows());
  MDE_OBS_ATTR_ADD(rows_in, left.num_rows() + right.num_rows());
  MDE_OBS_COUNT("vec.chunks", NumChunksFor(left.num_rows()));
  MDE_ASSIGN_OR_RETURN(size_t li, left.schema().IndexOf(left_col));
  MDE_ASSIGN_OR_RETURN(size_t ri, right.schema().IndexOf(right_col));
  Schema out_schema = Schema::Concat(left.schema(), right.schema(), "r.");
  const Column& a = left.col(li);
  const Column& b = right.col(ri);
  const size_t ln = left.num_rows();
  const size_t rn = right.num_rows();
  const bool numeric =
      (a.type == DataType::kInt64 || a.type == DataType::kDouble) &&
      (b.type == DataType::kInt64 || b.type == DataType::kDouble);

  std::vector<JoinPart> parts(NumChunksFor(ln));
  RunChunks(pool, ln, [&](size_t c, size_t lo, size_t hi) {
    auto& out = parts[c];
    for (size_t i = lo; i < hi; ++i) {
      const uint32_t lr = static_cast<uint32_t>(i);
      if (!a.IsValid(lr)) continue;
      if (numeric) {
        const double av = a.type == DataType::kInt64
                              ? static_cast<double>(a.i64[lr])
                              : a.f64[lr];
        for (uint32_t rr = 0; rr < rn; ++rr) {
          if (!b.IsValid(rr)) continue;
          const double bv = b.type == DataType::kInt64
                                ? static_cast<double>(b.i64[rr])
                                : b.f64[rr];
          bool keep = false;
          switch (op) {
            case CmpOp::kEq:
              keep = av == bv;
              break;
            case CmpOp::kNe:
              keep = av != bv;
              break;
            case CmpOp::kLt:
              keep = av < bv;
              break;
            case CmpOp::kLe:
              keep = av <= bv;
              break;
            case CmpOp::kGt:
              keep = av > bv;
              break;
            case CmpOp::kGe:
              keep = av >= bv;
              break;
          }
          if (keep) out.Add(lr, rr);
        }
      } else {
        const Value av = a.ValueAt(lr);
        for (uint32_t rr = 0; rr < rn; ++rr) {
          const Value bv = b.ValueAt(rr);
          if (bv.is_null()) continue;
          if (EvalCmp(av, op, bv)) out.Add(lr, rr);
        }
      }
    }
  });
  return GatherJoin(left, right, std::move(out_schema), parts, pool);
}

Result<std::shared_ptr<const ColumnarTable>> VecGroupBy(
    const ColumnarBatch& in, const std::vector<std::string>& keys,
    const std::vector<AggSpec>& aggs, ThreadPool* pool) {
  MDE_TRACE_SPAN("vec.group_by");
  MDE_OBS_COUNT("vec.group_by.rows_in", in.size());
  MDE_OBS_ATTR_ADD(rows_in, in.size());
  MDE_OBS_COUNT("vec.chunks", NumChunksFor(in.size()));
  const ColumnarTable& T = *in.cols;
  std::vector<size_t> key_idx;
  for (const auto& k : keys) {
    MDE_ASSIGN_OR_RETURN(size_t i, T.schema().IndexOf(k));
    key_idx.push_back(i);
  }
  std::vector<size_t> agg_idx(aggs.size(), 0);
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].kind != AggKind::kCount) {
      MDE_ASSIGN_OR_RETURN(size_t i, T.schema().IndexOf(aggs[a].column));
      const DataType dt = T.schema().column(i).type;
      if (dt != DataType::kInt64 && dt != DataType::kDouble) {
        return Status::InvalidArgument("aggregate over non-numeric column: " +
                                       aggs[a].column);
      }
      agg_idx[a] = i;
    }
  }
  const size_t n = in.size();
  const size_t naggs = aggs.size();

  // Phase 1 (serial): assign dense group ids in first-appearance order —
  // the order is part of the operator contract, so this pass stays
  // sequential; it is a cheap hash+compare per row.
  std::vector<KeyCol> kc;
  for (size_t i : key_idx) kc.push_back(MakeKeyCol(T.col(i)));
  std::vector<uint32_t> gid(n);
  KeyIndex index(std::min<size_t>(n, 1024));
  ForEachHashedRow(kc, in, 0, n, [&](size_t j, uint32_t r, uint64_t h) {
    gid[j] = index.FindOrAdd(
        h, r, [&](uint32_t f) { return RowKeyEq(kc, r, kc, f); });
  });
  // The representative (first) row of each group.
  const SelVector& first_row = index.first_rows();
  const size_t ngroups = first_row.size();

  // Phase 2: accumulate. Chunk-parallel with dense per-chunk partials
  // combined in ascending chunk order when the group count is small enough
  // for the partials to be cheap; otherwise one serial row-order pass. The
  // switch depends only on the data, so any pool size produces identical
  // bits either way.
  std::vector<AggState> states(ngroups * naggs);
  auto accumulate = [&](AggState* st, size_t j, uint32_t r) {
    AggState* row_states = st + static_cast<size_t>(gid[j]) * naggs;
    for (size_t a = 0; a < naggs; ++a) {
      AggState& s = row_states[a];
      if (aggs[a].kind == AggKind::kCount) {
        ++s.count;
        continue;
      }
      const Column& ac = T.col(agg_idx[a]);
      if (!ac.IsValid(r)) continue;
      const double x = ac.type == DataType::kInt64
                           ? static_cast<double>(ac.i64[r])
                           : ac.f64[r];
      ++s.count;
      s.sum += x;
      s.min = std::min(s.min, x);
      s.max = std::max(s.max, x);
    }
  };
  if (naggs > 0 && ngroups > 0) {
    if (ngroups <= kMaxParallelGroups) {
      const size_t chunks = NumChunksFor(n);
      std::vector<std::vector<AggState>> partials(chunks);
      RunChunks(pool, n, [&](size_t c, size_t b, size_t e) {
        auto& st = partials[c];
        st.assign(ngroups * naggs, AggState{});
        for (size_t j = b; j < e; ++j) accumulate(st.data(), j, RowAt(in, j));
      });
      for (size_t c = 0; c < chunks; ++c) {
        for (size_t i = 0; i < states.size(); ++i) {
          const AggState& p = partials[c][i];
          AggState& s = states[i];
          s.count += p.count;
          s.sum += p.sum;
          s.min = std::min(s.min, p.min);
          s.max = std::max(s.max, p.max);
        }
      }
    } else {
      for (size_t j = 0; j < n; ++j) accumulate(states.data(), j, RowAt(in, j));
    }
  }

  std::vector<ColumnSpec> out_specs;
  for (size_t i : key_idx) out_specs.push_back(T.schema().column(i));
  for (const auto& a : aggs) {
    out_specs.push_back({a.as, a.kind == AggKind::kCount ? DataType::kInt64
                                                         : DataType::kDouble});
  }
  MDE_OBS_COUNT("vec.group_by.rows_out", ngroups);
  MDE_OBS_ATTR_ADD(rows_out, ngroups);
  if (out_specs.empty()) {
    return std::make_shared<const ColumnarTable>(
        Schema(std::move(out_specs)),
        std::vector<std::shared_ptr<const Column>>{}, ngroups);
  }
  ColumnarTableBuilder out(Schema(std::move(out_specs)));
  out.Reserve(ngroups);
  for (size_t i = 0; i < key_idx.size(); ++i) {
    out.SetColumn(i, GatherColumn(T.col(key_idx[i]), first_row, pool));
  }
  for (size_t a = 0; a < naggs; ++a) {
    ColumnBuilder& cb = out.column(key_idx.size() + a);
    for (size_t g = 0; g < ngroups; ++g) {
      const AggState& st = states[g * naggs + a];
      switch (aggs[a].kind) {
        case AggKind::kCount:
          cb.AppendInt64(static_cast<int64_t>(st.count));
          break;
        case AggKind::kSum:
          cb.AppendDouble(st.sum);
          break;
        case AggKind::kAvg:
          if (st.count > 0) {
            cb.AppendDouble(st.sum / static_cast<double>(st.count));
          } else {
            cb.AppendNull();
          }
          break;
        case AggKind::kMin:
          if (st.count > 0) {
            cb.AppendDouble(st.min);
          } else {
            cb.AppendNull();
          }
          break;
        case AggKind::kMax:
          if (st.count > 0) {
            cb.AppendDouble(st.max);
          } else {
            cb.AppendNull();
          }
          break;
      }
    }
  }
  return out.Finish();
}

Result<SelVector> VecOrderBy(const ColumnarBatch& in,
                             const std::vector<std::string>& columns,
                             std::vector<bool> descending) {
  MDE_TRACE_SPAN("vec.order_by");
  MDE_OBS_COUNT("vec.order_by.rows_in", in.size());
  MDE_OBS_ATTR_ADD(rows_in, in.size());
  const ColumnarTable& T = *in.cols;
  std::vector<size_t> idx;
  for (const auto& c : columns) {
    MDE_ASSIGN_OR_RETURN(size_t i, T.schema().IndexOf(c));
    idx.push_back(i);
  }
  if (descending.empty()) descending.assign(columns.size(), false);
  if (descending.size() != columns.size()) {
    return Status::InvalidArgument("descending flags arity mismatch");
  }
  // Dictionary codes are first-appearance ordered, not sorted, so sort keys
  // need a code -> lexicographic-rank table (one sort of the dictionary
  // instead of O(n log n) string compares).
  struct SortCol {
    const Column* c;
    std::vector<uint32_t> rank;
  };
  std::vector<SortCol> cols;
  for (size_t i : idx) {
    SortCol s{&T.col(i), {}};
    if (s.c->type == DataType::kString) {
      const auto& dict = *s.c->dict;
      std::vector<uint32_t> order(dict.size());
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(),
                [&dict](uint32_t x, uint32_t y) { return dict[x] < dict[y]; });
      s.rank.resize(dict.size());
      for (uint32_t k = 0; k < order.size(); ++k) s.rank[order[k]] = k;
    }
    cols.push_back(std::move(s));
  }
  auto three_way = [](const SortCol& s, uint32_t a, uint32_t b) -> int {
    const Column& c = *s.c;
    const bool va = c.IsValid(a);
    const bool vb = c.IsValid(b);
    if (!va || !vb) return static_cast<int>(va) - static_cast<int>(vb);
    switch (c.type) {
      case DataType::kInt64: {
        // Matches Value::LessThan, which compares numerics as double.
        const double x = static_cast<double>(c.i64[a]);
        const double y = static_cast<double>(c.i64[b]);
        return x < y ? -1 : (y < x ? 1 : 0);
      }
      case DataType::kDouble: {
        const double x = c.f64[a];
        const double y = c.f64[b];
        return x < y ? -1 : (y < x ? 1 : 0);
      }
      case DataType::kBool:
        return static_cast<int>(c.b8[a]) - static_cast<int>(c.b8[b]);
      case DataType::kString: {
        const uint32_t x = s.rank[c.codes[a]];
        const uint32_t y = s.rank[c.codes[b]];
        return x < y ? -1 : (y < x ? 1 : 0);
      }
      case DataType::kNull:
        return 0;
    }
    return 0;
  };
  SelVector items;
  if (in.whole) {
    items.resize(in.cols->num_rows());
    std::iota(items.begin(), items.end(), 0);
  } else {
    items = in.sel;
  }
  std::stable_sort(items.begin(), items.end(),
                   [&](uint32_t a, uint32_t b) {
                     for (size_t k = 0; k < cols.size(); ++k) {
                       const int cmp = three_way(cols[k], a, b);
                       if (cmp < 0) return !descending[k];
                       if (cmp > 0) return static_cast<bool>(descending[k]);
                     }
                     return false;
                   });
  return items;
}

SelVector VecDistinct(const ColumnarBatch& in) {
  MDE_TRACE_SPAN("vec.distinct");
  MDE_OBS_COUNT("vec.distinct.rows_in", in.size());
  MDE_OBS_ATTR_ADD(rows_in, in.size());
  const ColumnarTable& T = *in.cols;
  std::vector<KeyCol> kc;
  for (size_t i = 0; i < T.num_columns(); ++i) kc.push_back(MakeKeyCol(T.col(i)));
  KeyIndex index(std::min<size_t>(in.size(), 1024));
  ForEachHashedRow(kc, in, 0, in.size(), [&](size_t, uint32_t r, uint64_t h) {
    index.FindOrAdd(h, r, [&](uint32_t f) { return RowKeyEq(kc, r, kc, f); });
  });
  SelVector out = index.first_rows();
  MDE_OBS_COUNT("vec.distinct.rows_out", out.size());
  MDE_OBS_ATTR_ADD(rows_out, out.size());
  return out;
}

}  // namespace mde::table
