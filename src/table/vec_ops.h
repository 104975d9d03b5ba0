#ifndef MDE_TABLE_VEC_OPS_H_
#define MDE_TABLE_VEC_OPS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "table/columnar.h"
#include "table/ops.h"
#include "table/table.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace mde::table {

/// Selection vector: ascending row indices into a ColumnarTable. Operators
/// narrow selections instead of materializing intermediate row copies; a
/// table is only compacted (gathered) when a pipeline stage genuinely needs
/// contiguous storage (join/group-by output, final materialization).
using SelVector = std::vector<uint32_t>;

/// Fixed row grain for every parallel kernel. A constant — never derived
/// from the pool size — and a multiple of 64 so per-chunk validity-bitmap
/// words never straddle chunks. Chunk boundaries and partial-aggregate
/// combine order therefore depend only on the row count, making results
/// bit-identical for any thread count (and for the pool-less path, which
/// walks the same chunks in ascending order). Same discipline as
/// mcdb::BundleTable::kRowGrain.
inline constexpr size_t kVecGrain = 4096;

/// Chunk boundaries must never tear a packed 64-bit validity/predicate
/// bitmap word: the SIMD filter path ANDs whole words per chunk, and
/// parallel gathers write disjoint words only under this invariant.
static_assert(kVecGrain % 64 == 0,
              "vector chunks must cover whole 64-bit bitmap words");

/// Dense per-chunk group-by partials are allocated num_chunks x num_groups;
/// above this many groups the aggregate kernel switches to a single serial
/// accumulation pass (the switch depends only on the data, so pooled and
/// serial runs still agree bitwise).
inline constexpr size_t kMaxParallelGroups = 4096;

/// Process-wide executor pool for the columnar operators (Query, plan
/// execution, and the Table-level wrappers). nullptr (the default) runs the
/// kernels serially over the same fixed chunking. Not owned. The
/// determinism contract makes attaching a pool observationally free.
void SetVecPool(ThreadPool* pool);
ThreadPool* VecPool();

/// Pipeline unit: shared immutable column blocks plus the rows currently
/// selected. `whole` short-circuits the common all-rows case.
struct ColumnarBatch {
  std::shared_ptr<const ColumnarTable> cols;
  SelVector sel;
  bool whole = true;

  size_t size() const { return whole ? cols->num_rows() : sel.size(); }
};

/// Materializes a batch as a row Table (compacting through the selection if
/// needed). The result keeps its columnar representation attached, so the
/// boxed rows are only built if someone actually reads them.
Table BatchToTable(const ColumnarBatch& batch, ThreadPool* pool);

/// Gathers the selected rows of `t` into a contiguous ColumnarTable.
/// String dictionaries are shared, not rebuilt.
std::shared_ptr<const ColumnarTable> VecCompact(const ColumnarTable& t,
                                                const SelVector& sel,
                                                ThreadPool* pool);

/// sigma(column <op> literal) over the selected rows; returns the surviving
/// row indices in ascending order. Exactly replicates ColumnCompare's
/// semantics: nulls never match, numerics compare as double
/// across int64/double, cross-type-class comparisons follow Value's type
/// ranking.
Result<SelVector> VecFilter(const ColumnarTable& t, const SelVector* sel,
                            const std::string& column, CmpOp op,
                            const Value& literal, ThreadPool* pool);

/// pi: narrows a batch to the named columns (zero-copy — column blocks and
/// the selection are shared).
Result<ColumnarBatch> VecProject(const ColumnarBatch& in,
                                 const std::vector<std::string>& columns);

/// Equi hash join: left-major tuple order with each left row's matches in
/// right (build) order, null keys never join, duplicate keys produce the
/// cross product, and key equality is strict same-type (an int64 key never
/// matches a double key). Build is over the right batch into a flat key
/// index; a single int64 key whose build keys are unique and span a small
/// multiple of their count is indexed by key - min instead and probed
/// without branches. The probe is chunk-parallel over the left batch.
Result<std::shared_ptr<const ColumnarTable>> VecHashJoin(
    const ColumnarBatch& left, const ColumnarBatch& right,
    const std::vector<std::string>& left_keys,
    const std::vector<std::string>& right_keys, ThreadPool* pool);

/// Theta join on `left.left_col <op> right.right_col`, left-major.
/// Chunk-parallel over left rows.
Result<std::shared_ptr<const ColumnarTable>> VecNestedLoopJoin(
    const ColumnarTable& left, const std::string& left_col, CmpOp op,
    const ColumnarTable& right, const std::string& right_col,
    ThreadPool* pool);

/// gamma: hash group-by with first-appearance group ordering (nulls
/// skipped, AVG/MIN/MAX null on empty, SUM 0.0; aggregate inputs must be
/// numeric except for COUNT). Aggregation is chunk-parallel with partials
/// combined in ascending chunk order.
Result<std::shared_ptr<const ColumnarTable>> VecGroupBy(
    const ColumnarBatch& in, const std::vector<std::string>& keys,
    const std::vector<AggSpec>& aggs, ThreadPool* pool);

/// tau: stable multi-key sort; returns the selected rows in sorted order as
/// a selection vector (gather with VecCompact / BatchToTable). Orders by
/// Value::LessThan exactly, including null-first ranking and its
/// int64-compares-as-double quirk.
Result<SelVector> VecOrderBy(const ColumnarBatch& in,
                             const std::vector<std::string>& columns,
                             std::vector<bool> descending);

/// delta: first occurrence of each distinct row (strict variant equality,
/// nulls equal).
SelVector VecDistinct(const ColumnarBatch& in);

}  // namespace mde::table

#endif  // MDE_TABLE_VEC_OPS_H_
