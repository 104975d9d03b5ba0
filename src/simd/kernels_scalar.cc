#include "simd/kernels.h"
#include "simd/kernels_impl.h"

/// Portable scalar tier: the reference implementations, verbatim. Compiled
/// with the project's baseline flags plus -ffp-contract=off (see
/// CMakeLists.txt) so no a*b+c here or in the shared templates is fused —
/// the vector tiers must be able to match it operation-for-operation.
namespace mde::simd::internal {
namespace {

void UniformBlockScalar(const uint64_t* raw, double* out) {
  UniformBlockT<ScalarOps>(raw, out);
}

const KernelTable kScalarTable = {
    &CmpF64BitmapRef,
    &CmpI64RangeBitmapRef,
    &CmpU32EqBitmapRef,
    &CmpU8BitmapRef,
    &AndWordsRef,
    &OrWordsRef,
    &AndNotWordsRef,
    &PopcountWordsRef,
    &CmpF64MaskWordRef,
    &MaskedAddF64WordRef,
    &MaskedAddConstF64WordRef,
    &MaskedAccumulateF64WordRef,
    &AddConstF64Ref,
    &AffineMapF64Ref,
    &SumF64Ref,
    &MinF64Ref,
    &MaxF64Ref,
    &RngBlockRef,
    &UniformBlockScalar,
    &NormalFastBlockRef,
};

}  // namespace

const KernelTable* ScalarTable() { return &kScalarTable; }

}  // namespace mde::simd::internal
