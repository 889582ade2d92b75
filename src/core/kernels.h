#ifndef MQD_CORE_KERNELS_H_
#define MQD_CORE_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "util/simd.h"

/// The one SIMD-dispatched kernel (DESIGN.md §15): the dense argmax
/// of GreedySC's Best() (over the block maxima, then inside the
/// winning block) and of StreamGreedy's window batch. GreedySC's
/// block rebuilds need only a block's maximum value and do not call it.
///
/// The scalar body is the semantic reference; the AVX2 body
/// (kernels_avx2.cc) must return the same index for every input —
/// same strict-> first-max tie-break — so the dispatch level can
/// never change a cover or an emission (tests/simd_kernel_test.cc).
///
/// Dispatch is decided once at startup (util/simd.h): AVX2 when the
/// binary carries it and the CPU supports it, overridable with
/// MQD_SIMD=scalar|avx2. Tests re-point it via
/// simd::ForceLevelForTest.
namespace mqd::kern {

/// Index of the first maximum of gains[0..n) if that maximum is > 0,
/// else n; strict > keeps the first.
using ArgmaxDenseFn = size_t (*)(const int64_t* gains, size_t n);

/// The body for one specific tier (the differential test and
/// BM_KernelArgmaxDense run both). Asking for an unavailable tier is
/// a fatal error.
ArgmaxDenseFn ArgmaxDenseFor(simd::Level level);

/// The dispatched body (simd::Active(), decided on first use).
size_t ArgmaxDense(const int64_t* gains, size_t n);

}  // namespace mqd::kern

#endif  // MQD_CORE_KERNELS_H_
