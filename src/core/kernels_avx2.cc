// AVX2 kernel bodies. This translation unit is compiled with -mavx2
// (see src/CMakeLists.txt); nothing else in the binary may assume
// AVX2, so every vector intrinsic stays inside this file and is only
// reached through the dispatch table after a runtime CPU probe.
//
// Bit-identity notes (the contract of core/kernels.h):
//  - Integer kernels fold in the same order as the scalar reference
//    or reduce rare candidates through a scalar rescan of the chunk,
//    so strict-> tie-breaks ("first max wins") are preserved exactly.
//  - Partition kernels count monotone predicates whose partition
//    point is unique; linear counting and binary search agree.
//  - Double kernels evaluate the same per-element IEEE expressions
//    (sub, add, fabs-as-bitmask) as the scalar loops; max folds may
//    reassociate because the inputs are NaN-free and the candidates
//    cannot produce mixed-sign zero ties (values come from io-vetted
//    finite dimensions; fl(-x + x) = +0 under round-to-nearest).
//  - The difference-array prefix runs accumulate per-chunk partial
//    sums in int32 lanes: callers keep per-slot deltas bounded by the
//    label degree of a single select/batch (<= kMaxLabels or the
//    batch arrival count), far below int32 range.

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "core/kernels.h"

namespace mqd::kern {
namespace {

inline unsigned MaskPd(__m256d m) {
  return static_cast<unsigned>(_mm256_movemask_pd(m));
}

inline unsigned MaskI64(__m256i m) {
  return static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(m)));
}

size_t ArgmaxDenseAvx2(const int64_t* gains, size_t n) {
  int64_t best_gain = 0;
  size_t best = n;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i g =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(gains + i));
    const __m256i bb = _mm256_set1_epi64x(best_gain);
    if (MaskI64(_mm256_cmpgt_epi64(g, bb)) != 0) {
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

// Inclusive in-register prefix sum of 8 int32 lanes.
inline __m256i Prefix8(__m256i d) {
  d = _mm256_add_epi32(d, _mm256_slli_si256(d, 4));
  d = _mm256_add_epi32(d, _mm256_slli_si256(d, 8));
  const __m256i lane_total = _mm256_shuffle_epi32(d, 0xFF);
  // [0 | low-lane total] so the high 128-bit lane absorbs the low.
  const __m256i carry =
      _mm256_permute2x128_si256(lane_total, lane_total, 0x08);
  return _mm256_add_epi32(d, carry);
}

void MaterializeAvx2(int32_t* delta, size_t n, const PostId* ids,
                     int64_t* gains) {
  int64_t carry = 0;
  size_t i = 0;
  const __m256i zero = _mm256_setzero_si256();
  for (; i + 8 <= n; i += 8) {
    const __m256i d = Prefix8(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(delta + i)));
    alignas(32) int32_t pre[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(pre), d);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(delta + i), zero);
    for (int j = 0; j < 8; ++j) {
      const int64_t run = carry + pre[j];
      if (run != 0) gains[ids[i + static_cast<size_t>(j)]] += run;
    }
    carry += pre[7];
  }
  for (; i < n; ++i) {
    carry += delta[i];
    delta[i] = 0;
    if (carry != 0) gains[ids[i]] += carry;
  }
}

void PrefixRunsAvx2(int32_t* delta, size_t n, int64_t* runs) {
  int64_t carry = 0;
  size_t i = 0;
  const __m256i zero = _mm256_setzero_si256();
  for (; i + 8 <= n; i += 8) {
    const __m256i d = Prefix8(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(delta + i)));
    alignas(32) int32_t pre[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(pre), d);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(delta + i), zero);
    for (int j = 0; j < 8; ++j) runs[i + static_cast<size_t>(j)] = carry + pre[j];
    carry += pre[7];
  }
  for (; i < n; ++i) {
    carry += delta[i];
    delta[i] = 0;
    runs[i] = carry;
  }
}

// Above this size a branchy binary search beats a linear sweep; the
// partition point is unique, so both strategies agree bit-for-bit.
constexpr size_t kLinearCutoff = 128;

RunBounds CoverRunAvx2(const double* values, size_t n, double center,
                       double reach) {
  if (n > kLinearCutoff) {
    const double* lo = std::partition_point(
        values, values + n,
        [&](double v) { return v - center < -reach; });
    const double* hi = std::partition_point(
        lo, values + n, [&](double v) { return v - center <= reach; });
    return {static_cast<size_t>(lo - values),
            static_cast<size_t>(hi - values)};
  }
  const __m256d c = _mm256_set1_pd(center);
  const __m256d r = _mm256_set1_pd(reach);
  const __m256d nr = _mm256_set1_pd(-reach);
  size_t lo = 0;
  size_t hi = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(values + i), c);
    lo += std::popcount(MaskPd(_mm256_cmp_pd(d, nr, _CMP_LT_OQ)));
    hi += std::popcount(MaskPd(_mm256_cmp_pd(d, r, _CMP_LE_OQ)));
  }
  for (; i < n; ++i) {
    const double d = values[i] - center;
    lo += (d < -reach) ? 1u : 0u;
    hi += (d <= reach) ? 1u : 0u;
  }
  return {lo, hi};
}

RunBounds CovererRunAvx2(const double* values, size_t n, double center,
                         double reach) {
  if (n > kLinearCutoff) {
    const double* lo = std::partition_point(
        values, values + n, [&](double v) { return v + reach < center; });
    const double* hi = std::partition_point(
        lo, values + n, [&](double v) { return v - reach <= center; });
    return {static_cast<size_t>(lo - values),
            static_cast<size_t>(hi - values)};
  }
  const __m256d c = _mm256_set1_pd(center);
  const __m256d r = _mm256_set1_pd(reach);
  size_t lo = 0;
  size_t hi = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(values + i);
    lo += std::popcount(
        MaskPd(_mm256_cmp_pd(_mm256_add_pd(v, r), c, _CMP_LT_OQ)));
    hi += std::popcount(
        MaskPd(_mm256_cmp_pd(_mm256_sub_pd(v, r), c, _CMP_LE_OQ)));
  }
  for (; i < n; ++i) {
    lo += (values[i] + reach < center) ? 1u : 0u;
    hi += (values[i] - reach <= center) ? 1u : 0u;
  }
  return {lo, hi};
}

uint64_t SumU8Avx2(const uint8_t* flags, size_t n) {
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = zero;
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(flags + i));
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(v, zero));
  }
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  uint64_t total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) total += flags[i];
  return total;
}

double MaxCoverEndAvx2(const double* values, size_t n, double center,
                       double reach, double init) {
  double acc = init;
  size_t i = 0;
  if (n >= 4) {
    const __m256d c = _mm256_set1_pd(center);
    const __m256d r = _mm256_set1_pd(reach);
    const __m256d sign = _mm256_set1_pd(-0.0);
    __m256d accv = _mm256_set1_pd(init);
    for (; i + 4 <= n; i += 4) {
      const __m256d v = _mm256_loadu_pd(values + i);
      const __m256d ad = _mm256_andnot_pd(sign, _mm256_sub_pd(v, c));
      const __m256d pass = _mm256_cmp_pd(ad, r, _CMP_LE_OQ);
      const __m256d cand = _mm256_add_pd(v, r);
      accv = _mm256_max_pd(accv, _mm256_blendv_pd(accv, cand, pass));
    }
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, accv);
    for (int j = 0; j < 4; ++j) acc = std::max(acc, lanes[j]);
  }
  for (; i < n; ++i) {
    if (std::fabs(values[i] - center) <= reach) {
      acc = std::max(acc, values[i] + reach);
    }
  }
  return acc;
}

size_t LastCoverAvx2(const double* values, size_t n, double center,
                     double reach, double limit) {
  size_t last = kNoIndex;
  size_t i = 0;
  const __m256d c = _mm256_set1_pd(center);
  const __m256d r = _mm256_set1_pd(reach);
  const __m256d lim = _mm256_set1_pd(limit);
  const __m256d sign = _mm256_set1_pd(-0.0);
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(values + i);
    const unsigned stop = MaskPd(_mm256_cmp_pd(v, lim, _CMP_GT_OQ));
    const __m256d ad = _mm256_andnot_pd(sign, _mm256_sub_pd(v, c));
    unsigned pass = MaskPd(_mm256_cmp_pd(ad, r, _CMP_LE_OQ));
    if (stop != 0) {
      // Lanes at and after the first stop were never examined by the
      // scalar loop; mask them out and finish.
      pass &= (1u << std::countr_zero(stop)) - 1u;
      if (pass != 0) last = i + static_cast<size_t>(std::bit_width(pass)) - 1;
      return last;
    }
    if (pass != 0) last = i + static_cast<size_t>(std::bit_width(pass)) - 1;
  }
  for (; i < n; ++i) {
    if (values[i] > limit) break;
    if (std::fabs(values[i] - center) <= reach) last = i;
  }
  return last;
}

void CoverDecrementAvx2(const double* values, const double* reaches,
                        size_t n, double center, const PostId* ids,
                        int64_t* gains) {
  size_t i = 0;
  const __m256d c = _mm256_set1_pd(center);
  const __m256d sign = _mm256_set1_pd(-0.0);
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(values + i);
    const __m256d r = _mm256_loadu_pd(reaches + i);
    const __m256d ad = _mm256_andnot_pd(sign, _mm256_sub_pd(v, c));
    unsigned pass = MaskPd(_mm256_cmp_pd(ad, r, _CMP_LE_OQ));
    // Scatter the rare hits scalar-ly: `ids` may repeat inside one
    // vector, so a gather/subtract/scatter would lose decrements.
    while (pass != 0) {
      const unsigned j = static_cast<unsigned>(std::countr_zero(pass));
      pass &= pass - 1u;
      --gains[ids[i + j]];
    }
  }
  for (; i < n; ++i) {
    if (std::fabs(values[i] - center) <= reaches[i]) --gains[ids[i]];
  }
}

constexpr KernelTable kAvx2Table{
    ArgmaxDenseAvx2, MaterializeAvx2,    PrefixRunsAvx2,
    CoverRunAvx2,    CovererRunAvx2,     SumU8Avx2,
    MaxCoverEndAvx2, LastCoverAvx2,      CoverDecrementAvx2,
};

}  // namespace

namespace internal {

const KernelTable& Avx2Table() { return kAvx2Table; }

}  // namespace internal

}  // namespace mqd::kern
