#include "simd/kernels.h"
#include "simd/kernels_impl.h"

/// Portable scalar tier: the reference implementations, verbatim. Compiled
/// with the project's baseline flags plus -ffp-contract=off (see
/// CMakeLists.txt) so no a*b+c here is fused — the vector tiers must be
/// able to match it operation-for-operation.
namespace mde::simd::internal {
namespace {

const KernelTable kScalarTable = {
    &CmpF64BitmapRef,
    &CmpI64RangeBitmapRef,
    &CmpU32EqBitmapRef,
    &CmpU8BitmapRef,
    &AndWordsRef,
    &PopcountWordsRef,
    &CmpF64MaskWordRef,
    &MaskedAddF64WordRef,
    &MaskedAddConstF64WordRef,
    &MaskedAccumulateF64WordRef,
    &AddConstF64Ref,
    &AffineMapF64Ref,
    &RngBlockRef,
    &UniformBlockRef,
    &NormalFastBlockRef,
};

}  // namespace

const KernelTable* ScalarTable() { return &kScalarTable; }

}  // namespace mde::simd::internal
