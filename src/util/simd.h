#ifndef MQD_UTIL_SIMD_H_
#define MQD_UTIL_SIMD_H_

#include <string_view>

namespace mqd::simd {

/// Instruction-set tier the dispatched kernel (core/kernels.h) runs
/// at. Decided once per process: the `MQD_SIMD` environment variable
/// (`scalar` or `avx2`) wins when set and satisfiable, otherwise the
/// widest tier the CPU supports. The scalar body returns exactly what
/// the vector one does, so the tier is a pure performance knob —
/// covers, emission times and certified bounds do not depend on it
/// (tests/simd_kernel_test.cc enforces this).
enum class Level {
  kScalar,
  kAvx2,
};

/// The tier the dispatched kernel runs at. First call reads MQD_SIMD
/// and probes the CPU; later calls return the cached decision.
Level Active();

/// True when this binary carries the AVX2 kernel body *and* the CPU
/// can run it. (A build without AVX2 codegen support reports false even
/// on AVX2 hardware.)
bool Avx2Available();

std::string_view LevelName(Level level);

/// Test-only: re-points the dispatch at `level` (must be available)
/// so one process can run both tiers differentially.
/// Returns false — leaving dispatch untouched — when the level is not
/// runnable here. Not thread safe; call only from single-threaded
/// test setup.
bool ForceLevelForTest(Level level);

}  // namespace mqd::simd

#endif  // MQD_UTIL_SIMD_H_
