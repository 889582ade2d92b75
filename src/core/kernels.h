#ifndef MQD_CORE_KERNELS_H_
#define MQD_CORE_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "core/types.h"
#include "util/simd.h"

/// SIMD-dispatched kernels for the solver hot loops (DESIGN.md §15).
///
/// Each kernel is a pure function over flat arrays with a *scalar
/// reference semantics* spelled out below; the AVX2 tier must
/// reproduce that semantics bit-for-bit — same integers, same
/// doubles, same tie-breaks — so the dispatch level can never change
/// a cover, an emission time, or a certified bound. Where a kernel's
/// result is a partition point of a monotone predicate over sorted
/// values, any search strategy (linear, binary, hybrid) is
/// permissible because the result is unique; everywhere else the
/// vector code mirrors the scalar fold exactly (integer arithmetic,
/// or IEEE ops whose reassociation is value-preserving for the
/// NaN-free, fold-monotone inputs the solvers feed in — see
/// tests/simd_kernel_test.cc for the differential battery).
///
/// Dispatch is decided once at startup (util/simd.h): AVX2 when the
/// binary carries it and the CPU supports it, overridable with
/// MQD_SIMD=scalar|avx2. Tests re-point the table via
/// simd::ForceLevelForTest.
namespace mqd::kern {

/// Index of the first maximum of gains[0..n) if that maximum is > 0,
/// else n; strict > keeps the first. GreedySC's block-max argmax runs
/// it at both levels; StreamGreedy runs it over a window batch.
using ArgmaxDenseFn = size_t (*)(const int64_t* gains, size_t n);

/// Difference-array materialize, fused with the CSR scatter:
///   run = 0;
///   for i in [0, n): run += delta[i]; delta[i] = 0;
///                    if (run != 0) gains[ids[i]] += run;
using MaterializeFn = void (*)(int32_t* delta, size_t n, const PostId* ids,
                               int64_t* gains);

/// Unfused variant: runs[i] = delta[0] + ... + delta[i], zeroing delta.
/// The caller applies the runs through whatever indirection it keeps.
using PrefixRunsFn = void (*)(int32_t* delta, size_t n, int64_t* runs);

/// Half-open position range inside a sorted value array.
struct RunBounds {
  size_t lo;
  size_t hi;
};

/// Membership run of the uniform-lambda Covers test, coveree side:
/// values sorted ascending, element v passes iff fl(v - center) is in
/// [-reach, reach]. Returns the (unique) partition bounds
///   lo = #{v : fl(v - center) < -reach},  hi = #{v : fl(v - center) <= reach}.
using CoverRunFn = RunBounds (*)(const double* values, size_t n,
                                 double center, double reach);

/// Membership run, coverer side (the stream batch-init rule): element
/// v passes iff center lies in [fl(v - reach), fl(v + reach)]:
///   lo = #{v : fl(v + reach) < center},  hi = #{v : fl(v - reach) <= center}.
using CovererRunFn = RunBounds (*)(const double* values, size_t n,
                                   double center, double reach);

/// Sum of byte flags (uncovered-pair count reductions).
using SumU8Fn = uint64_t (*)(const uint8_t* flags, size_t n);

/// Coverage-interval max fold (bounds.cc interval stabbing, uniform):
///   acc = init;
///   for i in [0, n): if (fabs(values[i] - center) <= reach)
///                      acc = max(acc, values[i] + reach);
using MaxCoverEndFn = double (*)(const double* values, size_t n,
                                 double center, double reach, double init);

/// Scan's pick rule (uniform): scan j ascending, stopping at the
/// first values[j] > limit; j passes iff fabs(values[j] - center) <=
/// reach. Returns the last passing j, or kNoIndex when none pass.
/// (Sorted input makes "last passing before the stop" == "last
/// passing with value <= limit".)
using LastCoverFn = size_t (*)(const double* values, size_t n, double center,
                               double reach, double limit);

/// Variable-lambda exact Covers decrement (GreedyState's Select when
/// the model is directional): element i covers the pair at `center`
/// iff fl(values[i] - center) has |.| <= reaches[i] — per-element
/// radii, so the losers are not a contiguous run and every candidate
/// is tested. Scalar semantics:
///   for i in [0, n): if (fabs(values[i] - center) <= reaches[i])
///                      --gains[ids[i]];
/// Decrements are integer and commutative, so any evaluation order is
/// bit-identical; `ids` may repeat (each hit decrements once).
using CoverDecrementFn = void (*)(const double* values,
                                  const double* reaches, size_t n,
                                  double center, const PostId* ids,
                                  int64_t* gains);

inline constexpr size_t kNoIndex = static_cast<size_t>(-1);

struct KernelTable {
  ArgmaxDenseFn argmax_dense;
  MaterializeFn materialize;
  PrefixRunsFn prefix_runs;
  CoverRunFn cover_run;
  CovererRunFn coverer_run;
  SumU8Fn sum_u8;
  MaxCoverEndFn max_cover_end;
  LastCoverFn last_cover;
  CoverDecrementFn cover_decrement;
};

/// The table for one specific tier (differential tests run both).
/// Asking for an unavailable tier is a fatal error.
const KernelTable& Table(simd::Level level);

/// The dispatched table (simd::Active(), cached after first use).
const KernelTable& Active();

}  // namespace mqd::kern

#endif  // MQD_CORE_KERNELS_H_
