#include "core/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "util/logging.h"

namespace mqd {

namespace kern {

namespace internal {
// Defined in kernels_avx2.cc (compiled with -mavx2) when the build
// carries AVX2 bodies.
const KernelTable& Avx2Table();
}  // namespace internal

namespace scalar {

// The scalar tier is the semantic reference: these bodies are the
// original solver loops, verbatim. The AVX2 tier (kernels_avx2.cc)
// must reproduce them bit-for-bit.

size_t ArgmaxDense(const int64_t* gains, size_t n) {
  int64_t best_gain = 0;
  size_t best = n;
  for (size_t i = 0; i < n; ++i) {
    if (gains[i] > best_gain) {
      best_gain = gains[i];
      best = i;
    }
  }
  return best;
}

void Materialize(int32_t* delta, size_t n, const PostId* ids,
                 int64_t* gains) {
  int64_t run = 0;
  for (size_t i = 0; i < n; ++i) {
    run += delta[i];
    delta[i] = 0;
    if (run != 0) gains[ids[i]] += run;
  }
}

void PrefixRuns(int32_t* delta, size_t n, int64_t* runs) {
  int64_t run = 0;
  for (size_t i = 0; i < n; ++i) {
    run += delta[i];
    delta[i] = 0;
    runs[i] = run;
  }
}

RunBounds CoverRun(const double* values, size_t n, double center,
                   double reach) {
  const double* lo = std::partition_point(
      values, values + n,
      [&](double v) { return v - center < -reach; });
  const double* hi = std::partition_point(
      lo, values + n, [&](double v) { return v - center <= reach; });
  return {static_cast<size_t>(lo - values), static_cast<size_t>(hi - values)};
}

RunBounds CovererRun(const double* values, size_t n, double center,
                     double reach) {
  const double* lo = std::partition_point(
      values, values + n,
      [&](double v) { return v + reach < center; });
  const double* hi = std::partition_point(
      lo, values + n, [&](double v) { return v - reach <= center; });
  return {static_cast<size_t>(lo - values), static_cast<size_t>(hi - values)};
}

uint64_t SumU8(const uint8_t* flags, size_t n) {
  uint64_t total = 0;
  for (size_t i = 0; i < n; ++i) total += flags[i];
  return total;
}

double MaxCoverEnd(const double* values, size_t n, double center,
                   double reach, double init) {
  double acc = init;
  for (size_t i = 0; i < n; ++i) {
    if (std::fabs(values[i] - center) <= reach) {
      acc = std::max(acc, values[i] + reach);
    }
  }
  return acc;
}

size_t LastCover(const double* values, size_t n, double center, double reach,
                 double limit) {
  size_t last = kNoIndex;
  for (size_t i = 0; i < n; ++i) {
    if (values[i] > limit) break;
    if (std::fabs(values[i] - center) <= reach) last = i;
  }
  return last;
}

void CoverDecrement(const double* values, const double* reaches, size_t n,
                    double center, const PostId* ids, int64_t* gains) {
  for (size_t i = 0; i < n; ++i) {
    if (std::fabs(values[i] - center) <= reaches[i]) --gains[ids[i]];
  }
}

}  // namespace scalar

namespace {

constexpr KernelTable kScalarTable{
    scalar::ArgmaxDense, scalar::Materialize,    scalar::PrefixRuns,
    scalar::CoverRun,    scalar::CovererRun,     scalar::SumU8,
    scalar::MaxCoverEnd, scalar::LastCover,      scalar::CoverDecrement,
};

// Dispatch state. Written once at startup (or from single-threaded
// test setup via ForceLevelForTest); read on every solve.
const KernelTable* g_active_table = nullptr;
simd::Level g_active_level = simd::Level::kScalar;

void DecideDispatch() {
  simd::Level level =
      simd::Avx2Available() ? simd::Level::kAvx2 : simd::Level::kScalar;
  if (const char* env = std::getenv("MQD_SIMD")) {
    const std::string_view want(env);
    if (want == "scalar") {
      level = simd::Level::kScalar;
    } else if (want == "avx2") {
      if (simd::Avx2Available()) {
        level = simd::Level::kAvx2;
      } else {
        MQD_LOG(Warning) << "MQD_SIMD=avx2 requested but AVX2 is "
                            "unavailable; staying on scalar kernels";
        level = simd::Level::kScalar;
      }
    } else if (!want.empty()) {
      MQD_LOG(Warning) << "Unknown MQD_SIMD value '" << env
                       << "' (expected scalar|avx2); using auto-detection";
    }
  }
  g_active_level = level;
  g_active_table = &Table(level);
}

// Thread-safe once-only dispatch (magic static); parallel solvers may
// race the first kernel call from several workers.
void EnsureDispatch() {
  static const bool done = (DecideDispatch(), true);
  (void)done;
}

}  // namespace

const KernelTable& Table(simd::Level level) {
#ifdef MQD_HAVE_AVX2
  if (level == simd::Level::kAvx2) {
    MQD_CHECK(simd::Avx2Available()) << "AVX2 kernels requested on a CPU "
                                        "without AVX2";
    return internal::Avx2Table();
  }
#else
  MQD_CHECK(level == simd::Level::kScalar)
      << "this build carries no AVX2 kernel bodies";
#endif
  (void)level;
  return kScalarTable;
}

const KernelTable& Active() {
  EnsureDispatch();
  return *g_active_table;
}

}  // namespace kern

namespace simd {

Level Active() {
  kern::EnsureDispatch();
  return kern::g_active_level;
}

bool Avx2Available() {
#if defined(MQD_HAVE_AVX2) && (defined(__x86_64__) || defined(__i386__))
  static const bool available = __builtin_cpu_supports("avx2") != 0;
  return available;
#else
  return false;
#endif
}

std::string_view LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool ForceLevelForTest(Level level) {
  if (level == Level::kAvx2 && !Avx2Available()) return false;
  kern::EnsureDispatch();
  kern::g_active_level = level;
  kern::g_active_table = &kern::Table(level);
  return true;
}

}  // namespace simd
}  // namespace mqd
