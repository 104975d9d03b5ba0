#ifndef MDE_MCDB_BUNDLE_H_
#define MDE_MCDB_BUNDLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mcdb/mcdb.h"
#include "obs/context.h"
#include "obs/mem.h"
#include "table/ops.h"
#include "table/table.h"
#include "util/aligned.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace mde::mcdb {

class BundleTable;
class MonteCarloDb;
struct StochasticTableSpec;

namespace internal {
/// Keep-list generation core shared by GenerateBundles and the
/// pre-generation planner (pregen.h). Generates bundles only for the outer
/// rows listed in `keep` (strictly ascending ORIGINAL row indices; nullptr
/// = every row). Each generated row seeds its RNG substream by its original
/// outer index, never its output position, so the result is bit-identical
/// to generating every row and then dropping the non-kept ones.
Result<BundleTable> GenerateBundlesImpl(const MonteCarloDb& db,
                                        const StochasticTableSpec& spec,
                                        const std::string& attr_name,
                                        size_t num_reps, uint64_t seed,
                                        ThreadPool* pool,
                                        const std::vector<uint32_t>* keep);
}  // namespace internal

/// Tuple-bundle executor (Section 2.1): instead of instantiating the
/// database and running the query plan once per Monte Carlo repetition, a
/// BundleTable keeps, for each logical tuple, its deterministic attributes
/// once and each uncertain attribute as an array of `num_reps` instantiated
/// values. A query plan is then executed once, with per-repetition activity
/// masks standing in for per-instance tuple existence.
///
/// Storage is columnar (SoA): stochastic attribute k lives in one
/// contiguous rep-major block where value (row i, rep r) is
/// `stoch_block(k)[i * num_reps + r]`, and activity masks are packed into
/// 64-bit words (`words_per_row()` words per row, padding bits zero). The
/// filter/aggregate kernels are tight loops over these blocks — this is the
/// batch-oriented layout that makes tuple-bundle execution amortize plan
/// work across repetitions instead of chasing per-tuple pointers.
///
/// Deterministic rows are shared the same way as value blocks: a
/// FilterStoch or FilterDet that keeps every row, and every MapStoch, hand
/// the derived table the source's row vector instead of copying it. Only a
/// gather that drops rows builds new ones.
///
/// Parallelism: attach a ThreadPool with set_pool() and the kernels split
/// the row range into fixed chunks of kRowGrain rows. Chunk boundaries and
/// the partial-aggregate combine order depend only on the row count, so
/// results are bit-identical for any thread count (and for the serial
/// pool-less path, which walks the same chunks in order).
class BundleTable {
 public:
  /// Fixed row-chunk size for all kernels. A constant — never derived from
  /// the pool size — so that floating-point combine order, and hence every
  /// aggregate bit, is independent of the number of threads.
  static constexpr size_t kRowGrain = 256;
  /// Row chunks must cover whole 64-bit activity words when masks are
  /// addressed by row index (one word per 64 rows) — the SIMD mask kernels
  /// rely on chunk boundaries never tearing a packed word.
  static_assert(kRowGrain % 64 == 0,
                "row chunks must cover whole 64-bit mask words");

  /// One logical tuple in row form: interchange type for Append()/row().
  /// Internally the table is columnar; this materialized view exists for
  /// row-at-a-time construction and debugging.
  struct BundleRow {
    table::Row det;
    /// stoch[k][r] = value of stochastic attribute k in repetition r.
    std::vector<std::vector<double>> stoch;
    /// active[r] = does this tuple exist in repetition r.
    std::vector<uint8_t> active;
  };

  BundleTable(table::Schema det_schema, std::vector<std::string> stoch_names,
              size_t num_reps);

  const table::Schema& det_schema() const { return det_schema_; }
  size_t num_reps() const { return num_reps_; }
  size_t num_rows() const { return det_rows_->size(); }

  /// Executor pool for the filter/map/aggregate kernels; nullptr (default)
  /// runs them serially. Not owned. Derived tables inherit the pool.
  void set_pool(ThreadPool* pool) { pool_ = pool; }
  ThreadPool* pool() const { return pool_; }

  /// Materializes row `i` (deterministic part, per-rep values, mask bytes).
  /// O(num_stoch * num_reps) per call — use the columnar accessors below in
  /// hot code.
  BundleRow row(size_t i) const;

  const table::Row& det_row(size_t i) const { return (*det_rows_)[i]; }

  /// Contiguous rep-major value block of stochastic attribute k (64-byte
  /// aligned for the SIMD kernels).
  const AlignedVector<double>& stoch_block(size_t k) const {
    return *stoch_[k];
  }

  /// Packed activity-mask words; row i occupies
  /// [i * words_per_row(), (i + 1) * words_per_row()).
  const AlignedVector<uint64_t>& active_words() const { return active_; }
  size_t words_per_row() const { return words_per_row_; }

  bool is_active(size_t i, size_t rep) const {
    return (active_[i * words_per_row_ + rep / 64] >> (rep % 64)) & 1u;
  }

  /// Index of a stochastic attribute by name; error if absent.
  Result<size_t> StochIndex(const std::string& name) const;

  /// Approximate heap footprint of the bundle storage: stochastic value
  /// blocks, packed mask words, and the deterministic rows counted
  /// shallowly (vector capacities, not boxed Value payloads). Value blocks
  /// and rows shared with another table are charged only while this table
  /// is their sole owner. This is what the table reports to the
  /// `mcdb.bundle` memory pool (obs/mem.h).
  uint64_t ApproxBytes() const;

  /// Appends a bundle row (arity- and length-checked).
  void Append(BundleRow row);

  /// sigma over deterministic attributes — evaluated ONCE for all
  /// repetitions; this is where tuple bundles beat the naive loop. `pred`
  /// must be safe to call concurrently (pure) when a pool is attached.
  BundleTable FilterDet(const table::RowPredicate& pred) const;

  /// sigma over a stochastic attribute — updates activity masks
  /// per-repetition, keeping a tuple if it survives in at least one
  /// repetition.
  Result<BundleTable> FilterStoch(const std::string& attr, table::CmpOp op,
                                  double threshold) const;

  /// Adds stochastic attribute `name` computed per-repetition from the
  /// deterministic row and the existing stochastic values. `fn` must be
  /// safe to call concurrently (pure) when a pool is attached.
  Result<BundleTable> MapStoch(
      const std::string& name,
      const std::function<double(const table::Row& det,
                                 const std::vector<double>& stoch_at_rep)>&
          fn) const;

  /// SUM(attr) per repetition over active tuples: the bundled equivalent of
  /// running "SELECT SUM(attr)" on every database instance.
  Result<std::vector<double>> AggregateSum(const std::string& attr) const;

  /// AVG(attr) per repetition over active tuples (0 when none active).
  Result<std::vector<double>> AggregateAvg(const std::string& attr) const;

  /// COUNT(*) per repetition.
  std::vector<double> AggregateCount() const;

  /// Grouped SUM(attr): per distinct value of deterministic column
  /// `det_key`, the per-repetition sums over active tuples — the bundled
  /// equivalent of "SELECT key, SUM(attr) ... GROUP BY key" per database
  /// instance. Groups appear in order of first appearance. Feeds the
  /// paper's threshold queries ("which regions decline by more than 2% with
  /// at least 50% probability?").
  struct GroupedSamples {
    std::string group;
    std::vector<double> sums;  // one per repetition
  };
  Result<std::vector<GroupedSamples>> GroupSum(const std::string& det_key,
                                               const std::string& attr) const;

 private:
  /// Runs fn(chunk, begin, end) over fixed kRowGrain row chunks — on the
  /// pool when attached, otherwise serially in ascending chunk order.
  void RunRowChunks(
      size_t n,
      const std::function<void(size_t chunk, size_t begin, size_t end)>& fn)
      const;

  /// Deterministic chunked reduction over rows: identical chunking and
  /// combine order with or without a pool.
  template <typename T>
  T ReduceRows(T identity, const std::function<T(size_t, size_t)>& map,
               const std::function<T(T, T)>& combine) const {
    const size_t n = num_rows();
    if (n == 0) return identity;
    if (pool_ != nullptr) {
      return pool_->ParallelReduce<T>(n, kRowGrain, identity, map, combine);
    }
    const size_t chunks = (n + kRowGrain - 1) / kRowGrain;
    T acc = map(0, std::min(n, kRowGrain));
    for (size_t c = 1; c < chunks; ++c) {
      const size_t begin = c * kRowGrain;
      acc = combine(std::move(acc), map(begin, std::min(n, begin + kRowGrain)));
    }
    return acc;
  }

  /// Copies the rows listed in `keep` (with per-row mask words taken from
  /// `masks`, which may alias active_.data()) into `out`, sharing the
  /// deterministic rows and value blocks when `keep` lists every row.
  void GatherRows(const std::vector<uint32_t>& keep, const uint64_t* masks,
                  BundleTable* out) const;

  /// Clone-on-write access to stochastic block k: derived tables share
  /// value blocks by shared_ptr (an all-rows-surviving filter or a MapStoch
  /// is then O(1) per inherited attribute), so any mutation must first
  /// un-share the block.
  AlignedVector<double>& MutableStoch(size_t k) {
    if (stoch_[k].use_count() > 1) {
      stoch_[k] = std::make_shared<AlignedVector<double>>(*stoch_[k]);
    }
    return *stoch_[k];
  }

  /// Clone-on-write access to the deterministic rows, for Append.
  std::vector<table::Row>& MutableDetRows() {
    if (det_rows_.use_count() > 1) {
      det_rows_ = std::make_shared<std::vector<table::Row>>(*det_rows_);
    }
    return *det_rows_;
  }

  table::Schema det_schema_;
  std::vector<std::string> stoch_names_;
  size_t num_reps_;
  size_t words_per_row_;
  /// One deterministic row per logical tuple. Shared across derived tables
  /// like the value blocks (never null); mutate only through
  /// MutableDetRows.
  std::shared_ptr<std::vector<table::Row>> det_rows_;
  /// stoch_[k] has num_rows * num_reps doubles, rep-major per row. 64-byte
  /// aligned so a full activity word's 64 doubles share cache lines cleanly
  /// with the widest vector loads. Blocks are shared across derived tables
  /// (never null); mutate only through MutableStoch.
  std::vector<std::shared_ptr<AlignedVector<double>>> stoch_;
  /// num_rows * words_per_row_ packed mask words; padding bits are zero.
  AlignedVector<uint64_t> active_;
  ThreadPool* pool_ = nullptr;
  /// Reports ApproxBytes() to the `mcdb.bundle` pool; capacity-based, so
  /// counter writes happen on geometric growth, not per appended row.
  /// Copy/move/destroy semantics keep live-byte accounting exact for
  /// by-value derived tables.
  obs::MemAccount mem_{"mcdb.bundle"};

  /// Re-reports the current footprint after storage-changing operations.
  /// Growth is also attributed to the active query (bundle_bytes counts
  /// bytes ALLOCATED on the query's behalf, mirroring the pool's monotone
  /// alloc_bytes counter, not a live-byte gauge).
  void AccountStorage() {
    const uint64_t bytes = ApproxBytes();
    if (bytes > mem_.bytes()) {
      MDE_OBS_ATTR_ADD(bundle_bytes, bytes - mem_.bytes());
    }
    mem_.Set(bytes);
  }

  friend Result<BundleTable> GenerateBundles(const MonteCarloDb& db,
                                             const StochasticTableSpec& spec,
                                             const std::string& attr_name,
                                             size_t num_reps, uint64_t seed,
                                             ThreadPool* pool);
  friend Result<BundleTable> internal::GenerateBundlesImpl(
      const MonteCarloDb& db, const StochasticTableSpec& spec,
      const std::string& attr_name, size_t num_reps, uint64_t seed,
      ThreadPool* pool, const std::vector<uint32_t>* keep);
};

/// Generates a BundleTable realization of `spec` with `num_reps`
/// repetitions. Restricted to VG functions that emit exactly one row with a
/// single numeric column per call (the common case; multi-row VGs go
/// through the naive path). The deterministic part of each bundle is the
/// outer row; the VG value becomes stochastic attribute `attr_name`.
/// Statistically equivalent to `num_reps` independent Instantiate() calls.
///
/// Each row draws its repetitions sequentially from its own RNG substream,
/// so generation is parallelized over rows when `pool` is non-null with
/// bit-identical output for any thread count; the produced table inherits
/// `pool`.
Result<BundleTable> GenerateBundles(const MonteCarloDb& db,
                                    const StochasticTableSpec& spec,
                                    const std::string& attr_name,
                                    size_t num_reps, uint64_t seed,
                                    ThreadPool* pool = nullptr);

}  // namespace mde::mcdb

#endif  // MDE_MCDB_BUNDLE_H_
