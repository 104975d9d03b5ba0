#include "mcdb/bundle.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <mutex>
#include <unordered_map>

#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "simd/simd.h"
#include "util/check.h"

namespace mde::mcdb {
namespace {

/// Per-repetition sums and active counts, reduced together so AVG needs a
/// single pass over the value block.
struct SumCount {
  std::vector<double> sums;
  std::vector<double> counts;
};

}  // namespace

BundleTable::BundleTable(table::Schema det_schema,
                         std::vector<std::string> stoch_names,
                         size_t num_reps)
    : det_schema_(std::move(det_schema)),
      stoch_names_(std::move(stoch_names)),
      num_reps_(num_reps),
      words_per_row_((num_reps + 63) / 64),
      det_rows_(std::make_shared<std::vector<table::Row>>()),
      stoch_(stoch_names_.size()) {
  MDE_CHECK_GT(num_reps_, 0u);
  for (auto& block : stoch_) {
    block = std::make_shared<AlignedVector<double>>();
  }
}

uint64_t BundleTable::ApproxBytes() const {
  // Rows and blocks shared with another table are charged only to a sole
  // owner, mirroring how the columnar layer excludes shared string
  // dictionaries.
  uint64_t b = 0;
  if (det_rows_.use_count() == 1) {
    b += det_rows_->capacity() * sizeof(table::Row);
  }
  for (const auto& blockv : stoch_) {
    if (blockv != nullptr && blockv.use_count() == 1) {
      b += blockv->capacity() * sizeof(double);
    }
  }
  b += active_.capacity() * sizeof(uint64_t);
  return b;
}

Result<size_t> BundleTable::StochIndex(const std::string& name) const {
  for (size_t i = 0; i < stoch_names_.size(); ++i) {
    if (stoch_names_[i] == name) return i;
  }
  return Status::NotFound("stochastic attribute not found: " + name);
}

void BundleTable::Append(BundleRow row) {
  MDE_CHECK_EQ(row.det.size(), det_schema_.num_columns());
  MDE_CHECK_EQ(row.stoch.size(), stoch_names_.size());
  for (const auto& v : row.stoch) MDE_CHECK_EQ(v.size(), num_reps_);
  if (row.active.empty()) row.active.assign(num_reps_, 1);
  MDE_CHECK_EQ(row.active.size(), num_reps_);
  MutableDetRows().push_back(std::move(row.det));
  for (size_t k = 0; k < stoch_.size(); ++k) {
    AlignedVector<double>& block = MutableStoch(k);
    block.insert(block.end(), row.stoch[k].begin(), row.stoch[k].end());
  }
  for (size_t w = 0; w < words_per_row_; ++w) {
    uint64_t word = 0;
    const size_t base = w * 64;
    const size_t lim = std::min<size_t>(64, num_reps_ - base);
    for (size_t b = 0; b < lim; ++b) {
      word |= static_cast<uint64_t>(row.active[base + b] != 0) << b;
    }
    active_.push_back(word);
  }
  AccountStorage();
}

BundleTable::BundleRow BundleTable::row(size_t i) const {
  BundleRow r;
  r.det = (*det_rows_)[i];
  r.stoch.resize(stoch_.size());
  for (size_t k = 0; k < stoch_.size(); ++k) {
    const double* v = stoch_[k]->data() + i * num_reps_;
    r.stoch[k].assign(v, v + num_reps_);
  }
  r.active.resize(num_reps_);
  for (size_t rep = 0; rep < num_reps_; ++rep) {
    r.active[rep] = is_active(i, rep) ? 1 : 0;
  }
  return r;
}

void BundleTable::RunRowChunks(
    size_t n,
    const std::function<void(size_t, size_t, size_t)>& fn) const {
  if (n == 0) return;
  if (pool_ != nullptr) {
    pool_->ParallelForChunks(n, kRowGrain, fn);
    return;
  }
  const size_t chunks = (n + kRowGrain - 1) / kRowGrain;
  for (size_t c = 0; c < chunks; ++c) {
    const size_t begin = c * kRowGrain;
    fn(c, begin, std::min(n, begin + kRowGrain));
  }
}

void BundleTable::GatherRows(const std::vector<uint32_t>& keep,
                             const uint64_t* masks, BundleTable* out) const {
  const size_t m = keep.size();
  // `keep` is strictly ascending indices into [0, num_rows), so m == n
  // means the identity gather: the deterministic rows and every value block
  // survive unchanged and are SHARED with the source instead of copied (the
  // masks may still differ — a stochastic filter that kills repetitions but
  // no whole row). This is the common FilterStoch outcome at realistic
  // repetition counts.
  const bool identity = m == num_rows();
  if (identity) {
    out->det_rows_ = det_rows_;
    out->stoch_ = stoch_;
  } else {
    // reserve + tail-insert: the gather output is written exactly once.
    out->det_rows_->reserve(m);
    for (size_t k = 0; k < stoch_.size(); ++k) {
      out->stoch_[k]->reserve(m * num_reps_);
    }
  }
  out->active_.reserve(m * words_per_row_);
  for (size_t j = 0; j < m; ++j) {
    const size_t i = keep[j];
    if (!identity) {
      out->det_rows_->push_back((*det_rows_)[i]);
      for (size_t k = 0; k < stoch_.size(); ++k) {
        const double* src = stoch_[k]->data() + i * num_reps_;
        out->stoch_[k]->insert(out->stoch_[k]->end(), src, src + num_reps_);
      }
    }
    const uint64_t* msrc = masks + i * words_per_row_;
    out->active_.insert(out->active_.end(), msrc, msrc + words_per_row_);
  }
  out->AccountStorage();
}

BundleTable BundleTable::FilterDet(const table::RowPredicate& pred) const {
  BundleTable out(det_schema_, stoch_names_, num_reps_);
  out.pool_ = pool_;
  const size_t n = num_rows();
  std::vector<uint8_t> match(n, 0);
  RunRowChunks(n, [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      match[i] = pred((*det_rows_)[i]) ? 1 : 0;
    }
  });
  std::vector<uint32_t> keep;
  keep.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (match[i]) keep.push_back(static_cast<uint32_t>(i));
  }
  GatherRows(keep, active_.data(), &out);
  return out;
}

namespace {

/// Computes, for every row, the conjunction of the existing mask with the
/// per-repetition comparison result — the columnar core of FilterStoch.
/// One dispatched comparison kernel per packed word, ANDed with the old
/// mask: evaluating the masked-off lanes too is output-identical (their
/// bits are cleared by the AND) and keeps the hot loop branch-free.
void FilterMaskKernel(const double* block, const uint64_t* active,
                      size_t num_reps, size_t wpr, size_t begin, size_t end,
                      simd::Cmp op, double threshold, uint64_t* new_active,
                      uint8_t* any) {
  for (size_t i = begin; i < end; ++i) {
    const double* v = block + i * num_reps;
    uint64_t row_any = 0;
    for (size_t w = 0; w < wpr; ++w) {
      const uint64_t old_word = active[i * wpr + w];
      uint64_t word = 0;
      if (old_word != 0) {
        const size_t base = w * 64;
        const size_t lim = std::min<size_t>(64, num_reps - base);
        word = simd::CmpF64MaskWord(v + base, lim, op, threshold) & old_word;
      }
      new_active[i * wpr + w] = word;
      row_any |= word;
    }
    any[i] = row_any != 0 ? 1 : 0;
  }
}

}  // namespace

Result<BundleTable> BundleTable::FilterStoch(const std::string& attr,
                                             table::CmpOp op,
                                             double threshold) const {
  MDE_ASSIGN_OR_RETURN(size_t k, StochIndex(attr));
  BundleTable out(det_schema_, stoch_names_, num_reps_);
  out.pool_ = pool_;
  const size_t n = num_rows();
  const double* block = stoch_[k]->data();
  // Not zeroed: FilterMaskKernel writes every row's every mask word.
  AlignedVector<uint64_t> new_active(active_.size());
  std::vector<uint8_t> any(n, 0);
  // table::CmpOp and simd::Cmp enumerate the six comparisons in the same
  // order (checked in simd_test); the kernel gets the dispatched form.
  const auto sop = static_cast<simd::Cmp>(op);
  simd::CountKernel(simd::KernelId::kCmpF64MaskWord);
  RunRowChunks(n, [&](size_t, size_t begin, size_t end) {
    FilterMaskKernel(block, active_.data(), num_reps_, words_per_row_, begin,
                     end, sop, threshold, new_active.data(), any.data());
  });
  std::vector<uint32_t> keep;
  keep.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (any[i]) keep.push_back(static_cast<uint32_t>(i));
  }
  GatherRows(keep, new_active.data(), &out);
  return out;
}

Result<BundleTable> BundleTable::MapStoch(
    const std::string& name,
    const std::function<double(const table::Row&, const std::vector<double>&)>&
        fn) const {
  std::vector<std::string> names = stoch_names_;
  names.push_back(name);
  BundleTable out(det_schema_, std::move(names), num_reps_);
  out.pool_ = pool_;
  const size_t n = num_rows();
  const size_t num_k = stoch_names_.size();
  out.det_rows_ = det_rows_;
  // Inherited value blocks are shared, not copied (clone-on-write guards
  // any later mutation).
  for (size_t k = 0; k < num_k; ++k) out.stoch_[k] = stoch_[k];
  out.active_ = active_;
  // Not zeroed: the chunk loop writes every (row, rep) value.
  out.stoch_[num_k]->resize(n * num_reps_);
  double* computed = out.stoch_[num_k]->data();
  RunRowChunks(n, [&](size_t, size_t begin, size_t end) {
    std::vector<double> at_rep(num_k);  // per-chunk scratch
    for (size_t i = begin; i < end; ++i) {
      for (size_t rep = 0; rep < num_reps_; ++rep) {
        for (size_t k = 0; k < num_k; ++k) {
          at_rep[k] = (*stoch_[k])[i * num_reps_ + rep];
        }
        computed[i * num_reps_ + rep] = fn((*det_rows_)[i], at_rep);
      }
    }
  });
  out.AccountStorage();
  return out;
}

namespace {

/// Adds the active values of rows [begin, end) into sums[0..num_reps),
/// optionally counting actives. Every element gets at most one add per
/// row, so the kernel choice cannot change a bit: a full word goes through
/// the fused blend kernel (sums and counts in one pass), a partial last
/// word through the masked-add kernels, whose loads never reach past the
/// row's last repetition.
void MaskedSumKernel(const double* block, const uint64_t* active,
                     size_t num_reps, size_t wpr, size_t begin, size_t end,
                     double* sums, double* counts) {
  for (size_t i = begin; i < end; ++i) {
    const double* v = block + i * num_reps;
    const uint64_t* m = active + i * wpr;
    for (size_t w = 0; w < wpr; ++w) {
      const uint64_t word = m[w];
      if (word == 0) continue;
      const size_t base = w * 64;
      const size_t lim = std::min<size_t>(64, num_reps - base);
      if (lim == 64) {
        simd::MaskedAccumulateF64Word(
            sums + base, counts != nullptr ? counts + base : nullptr,
            v + base, word);
      } else {
        simd::MaskedAddF64Word(sums + base, v + base, word);
        if (counts != nullptr) {
          simd::MaskedAddConstF64Word(counts + base, 1.0, word);
        }
      }
    }
  }
}

}  // namespace

Result<std::vector<double>> BundleTable::AggregateSum(
    const std::string& attr) const {
  MDE_ASSIGN_OR_RETURN(size_t k, StochIndex(attr));
  const double* block = stoch_[k]->data();
  simd::CountKernel(simd::KernelId::kMaskedAddF64);
  return ReduceRows<std::vector<double>>(
      std::vector<double>(num_reps_, 0.0),
      [&](size_t begin, size_t end) {
        std::vector<double> sums(num_reps_, 0.0);
        MaskedSumKernel(block, active_.data(), num_reps_, words_per_row_,
                        begin, end, sums.data(), nullptr);
        return sums;
      },
      [](std::vector<double> a, std::vector<double> b) {
        for (size_t rep = 0; rep < a.size(); ++rep) a[rep] += b[rep];
        return a;
      });
}

Result<std::vector<double>> BundleTable::AggregateAvg(
    const std::string& attr) const {
  MDE_ASSIGN_OR_RETURN(size_t k, StochIndex(attr));
  const double* block = stoch_[k]->data();
  simd::CountKernel(simd::KernelId::kMaskedAddF64);
  SumCount zero{std::vector<double>(num_reps_, 0.0),
                std::vector<double>(num_reps_, 0.0)};
  SumCount total = ReduceRows<SumCount>(
      zero,
      [&](size_t begin, size_t end) {
        SumCount sc{std::vector<double>(num_reps_, 0.0),
                    std::vector<double>(num_reps_, 0.0)};
        MaskedSumKernel(block, active_.data(), num_reps_, words_per_row_,
                        begin, end, sc.sums.data(), sc.counts.data());
        return sc;
      },
      [](SumCount a, SumCount b) {
        for (size_t rep = 0; rep < a.sums.size(); ++rep) {
          a.sums[rep] += b.sums[rep];
          a.counts[rep] += b.counts[rep];
        }
        return a;
      });
  for (size_t rep = 0; rep < num_reps_; ++rep) {
    total.sums[rep] =
        total.counts[rep] > 0.0 ? total.sums[rep] / total.counts[rep] : 0.0;
  }
  return std::move(total.sums);
}

std::vector<double> BundleTable::AggregateCount() const {
  simd::CountKernel(simd::KernelId::kMaskedAddF64);
  return ReduceRows<std::vector<double>>(
      std::vector<double>(num_reps_, 0.0),
      [&](size_t begin, size_t end) {
        std::vector<double> counts(num_reps_, 0.0);
        for (size_t i = begin; i < end; ++i) {
          const uint64_t* m = active_.data() + i * words_per_row_;
          for (size_t w = 0; w < words_per_row_; ++w) {
            const uint64_t word = m[w];
            if (word == 0) continue;
            const size_t base = w * 64;
            const size_t lim = std::min<size_t>(64, num_reps_ - base);
            if (word == ~0ULL && lim == 64) {
              simd::AddConstF64(counts.data() + base, 1.0, 64);
            } else {
              simd::MaskedAddConstF64Word(counts.data() + base, 1.0, word);
            }
          }
        }
        return counts;
      },
      [](std::vector<double> a, std::vector<double> b) {
        for (size_t rep = 0; rep < a.size(); ++rep) a[rep] += b[rep];
        return a;
      });
}

Result<std::vector<BundleTable::GroupedSamples>> BundleTable::GroupSum(
    const std::string& det_key, const std::string& attr) const {
  MDE_ASSIGN_OR_RETURN(size_t key_idx, det_schema_.IndexOf(det_key));
  MDE_ASSIGN_OR_RETURN(size_t k, StochIndex(attr));
  const size_t n = num_rows();
  // Serial keying pass preserves first-appearance group order.
  std::vector<uint32_t> group_of(n);
  std::vector<GroupedSamples> groups;
  std::unordered_map<std::string, uint32_t> index;
  for (size_t i = 0; i < n; ++i) {
    std::string key = (*det_rows_)[i][key_idx].ToString();
    auto [it, inserted] =
        index.emplace(std::move(key), static_cast<uint32_t>(groups.size()));
    if (inserted) {
      groups.push_back(
          {it->first, std::vector<double>(num_reps_, 0.0)});
    }
    group_of[i] = it->second;
  }
  const size_t g_count = groups.size();
  const double* block = stoch_[k]->data();
  simd::CountKernel(simd::KernelId::kMaskedAddF64);
  // Flattened (group x rep) partials, combined in fixed chunk order.
  std::vector<double> totals = ReduceRows<std::vector<double>>(
      std::vector<double>(g_count * num_reps_, 0.0),
      [&](size_t begin, size_t end) {
        std::vector<double> partial(g_count * num_reps_, 0.0);
        for (size_t i = begin; i < end; ++i) {
          MaskedSumKernel(block, active_.data(), num_reps_, words_per_row_, i,
                          i + 1, partial.data() + group_of[i] * num_reps_,
                          nullptr);
        }
        return partial;
      },
      [](std::vector<double> a, std::vector<double> b) {
        for (size_t j = 0; j < a.size(); ++j) a[j] += b[j];
        return a;
      });
  for (size_t g = 0; g < g_count; ++g) {
    std::copy(totals.begin() + g * num_reps_,
              totals.begin() + (g + 1) * num_reps_, groups[g].sums.begin());
  }
  return groups;
}

namespace internal {

Result<BundleTable> GenerateBundlesImpl(const MonteCarloDb& db,
                                        const StochasticTableSpec& spec,
                                        const std::string& attr_name,
                                        size_t num_reps, uint64_t seed,
                                        ThreadPool* pool,
                                        const std::vector<uint32_t>* keep) {
  // Attribution root for direct GenerateBundles calls; adopts the outer
  // query when one is already active (GenerateBundlesWhere, chain steps).
  MDE_OBS_QUERY_SCOPE(
      "mcdb.generate",
      obs::FingerprintMix(
          obs::FingerprintString(spec.outer_table + "/" + attr_name),
          num_reps));
  MDE_TRACE_SPAN("mcdb.generate_bundles");
  const table::Table* outer = db.FindTable(spec.outer_table);
  if (outer == nullptr) {
    return Status::NotFound("FOR EACH table not found: " + spec.outer_table);
  }
  if (spec.vg->output_schema().num_columns() != 1) {
    return Status::Unimplemented(
        "tuple bundles require single-column VG output");
  }
  // VG parameters bind against the database's own deterministic tables,
  // uncopied. Their row caches are LazySlots (table.h), so the chunk
  // workers may first-touch them concurrently.
  const DatabaseInstance& det = db.deterministic_tables();
  // Output row j realizes outer row `keep[j]` (or j when keep is null):
  // rows a pre-generation filter eliminated never bind parameters and
  // never touch their VG substream.
  const size_t n = keep != nullptr ? keep->size() : outer->num_rows();
  MDE_OBS_COUNT("mcdb.bundle_rows", n);
  MDE_OBS_COUNT("mcdb.vg_samples", n * num_reps);
  MDE_OBS_ATTR_ADD(vg_draws, n * num_reps);
  BundleTable out(outer->schema(), {attr_name}, num_reps);
  out.pool_ = pool;
  std::vector<table::Row>& det_rows = *out.det_rows_;
  det_rows.resize(n);
  // Left uninitialized (AlignedVector's resize does not zero): chunk_fn
  // writes every value, so the pool workers first-touch the block in
  // parallel. On error the block is dropped unread.
  out.stoch_[0]->resize(n * num_reps);
  // All rows start active in every repetition; padding bits stay zero.
  out.active_.assign(n * out.words_per_row_, ~0ULL);
  if (const size_t tail = num_reps % 64; tail != 0) {
    const uint64_t last = (uint64_t{1} << tail) - 1;
    for (size_t i = 0; i < n; ++i) {
      out.active_[(i + 1) * out.words_per_row_ - 1] = last;
    }
  }

  double* block = out.stoch_[0]->data();
  std::mutex err_mu;
  Status first_err = Status::OK();
  std::atomic<bool> failed{false};
  auto record_error = [&](const Status& st) {
    std::lock_guard<std::mutex> lock(err_mu);
    if (!failed.exchange(true)) first_err = st;
  };

  auto chunk_fn = [&](size_t, size_t begin, size_t end) {
    std::vector<table::Row> vg_rows;
    for (size_t j = begin; j < end; ++j) {
      if (failed.load(std::memory_order_relaxed)) return;
      const size_t i = keep != nullptr ? (*keep)[j] : j;
      const table::Row& outer_row = outer->row(i);
      auto params_r = spec.param_binder(outer_row, det);
      if (!params_r.ok()) {
        record_error(params_r.status());
        return;
      }
      const table::Row& params = params_r.value();
      det_rows[j] = outer_row;
      // Independent per-ROW stream via SplitMix64 seeding: O(1) per stream,
      // unlike Jump-based substreams whose setup cost grows with the stream
      // index. The row is the unit of parallelism and its repetitions are
      // drawn sequentially from its own stream, so generation order — and
      // hence thread count — cannot change the sampled values. The stream
      // is keyed by the ORIGINAL outer index `i`, not the output position,
      // so a keep-list run reproduces exactly the values a full run would
      // have drawn for the surviving rows.
      Rng rng = Rng::Keyed(seed, i);
      double* row_out = block + j * num_reps;
      if (spec.vg->GenerateScalarN(params, rng, num_reps, row_out)) {
        continue;
      }
      for (size_t rep = 0; rep < num_reps; ++rep) {
        vg_rows.clear();
        const Status st = spec.vg->Generate(params, rng, &vg_rows);
        if (!st.ok()) {
          record_error(st);
          return;
        }
        if (vg_rows.size() != 1) {
          record_error(Status::Unimplemented(
              "tuple bundles require single-row VG output"));
          return;
        }
        row_out[rep] = vg_rows[0][0].AsDouble();
      }
    }
  };
  if (pool != nullptr && n > 0) {
    pool->ParallelForChunks(n, BundleTable::kRowGrain, chunk_fn);
  } else {
    const size_t chunks =
        (n + BundleTable::kRowGrain - 1) / BundleTable::kRowGrain;
    for (size_t c = 0; c < chunks; ++c) {
      const size_t begin = c * BundleTable::kRowGrain;
      chunk_fn(c, begin, std::min(n, begin + BundleTable::kRowGrain));
    }
  }
  if (failed.load()) return first_err;
  out.AccountStorage();
  return out;
}

}  // namespace internal

Result<BundleTable> GenerateBundles(const MonteCarloDb& db,
                                    const StochasticTableSpec& spec,
                                    const std::string& attr_name,
                                    size_t num_reps, uint64_t seed,
                                    ThreadPool* pool) {
  return internal::GenerateBundlesImpl(db, spec, attr_name, num_reps, seed,
                                       pool, nullptr);
}

}  // namespace mde::mcdb
