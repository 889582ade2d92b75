// AVX2 body of the dense argmax. This translation unit is compiled
// with -mavx2 (see src/CMakeLists.txt); nothing else in the binary may
// assume AVX2, so every vector intrinsic stays inside this file and is
// only reached through kern::ArgmaxDense after a runtime CPU probe.
//
// Bit identity with the scalar reference (core/kernels.h): a 4-wide
// compare only detects whether a chunk holds some gain above the
// running best; the chunk is then rescanned with the scalar strict->
// fold, so the first maximum wins exactly as in the scalar loop.

#include <immintrin.h>

#include <cstdint>

#include "core/kernels.h"

namespace mqd::kern::internal {

size_t ArgmaxDenseAvx2(const int64_t* gains, size_t n) {
  int64_t best_gain = 0;
  size_t best = n;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i g =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(gains + i));
    const __m256i bb = _mm256_set1_epi64x(best_gain);
    if (_mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(g, bb))) !=
        0) {
      for (size_t j = i; j < i + 4; ++j) {
        if (gains[j] > best_gain) {
          best_gain = gains[j];
          best = j;
        }
      }
    }
  }
  for (; i < n; ++i) {
    if (gains[i] > best_gain) {
      best_gain = gains[i];
      best = i;
    }
  }
  return best;
}

}  // namespace mqd::kern::internal
