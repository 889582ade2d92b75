#include "core/kernels.h"

#include <cstdlib>
#include <string_view>

#include "util/logging.h"

namespace mqd {

namespace kern {

namespace internal {
// Defined in kernels_avx2.cc (compiled with -mavx2) when the build
// carries the AVX2 body.
size_t ArgmaxDenseAvx2(const int64_t* gains, size_t n);
}  // namespace internal

namespace {

// The semantic reference; the AVX2 body must return the same index.
size_t ArgmaxDenseScalar(const int64_t* gains, size_t n) {
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

// Dispatch state. Written once at startup (or from single-threaded
// test setup via ForceLevelForTest); read on every call.
ArgmaxDenseFn g_active_fn = nullptr;
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
                            "unavailable; staying on the scalar kernel";
        level = simd::Level::kScalar;
      }
    } else if (!want.empty()) {
      MQD_LOG(Warning) << "Unknown MQD_SIMD value '" << env
                       << "' (expected scalar|avx2); using auto-detection";
    }
  }
  g_active_level = level;
  g_active_fn = ArgmaxDenseFor(level);
}

// Thread-safe once-only dispatch (magic static); BatchSolver and
// `mqd serve` workers may race the first kernel call.
void EnsureDispatch() {
  static const bool done = (DecideDispatch(), true);
  (void)done;
}

}  // namespace

ArgmaxDenseFn ArgmaxDenseFor(simd::Level level) {
#ifdef MQD_HAVE_AVX2
  if (level == simd::Level::kAvx2) {
    MQD_CHECK(simd::Avx2Available()) << "AVX2 kernel requested on a CPU "
                                        "without AVX2";
    return internal::ArgmaxDenseAvx2;
  }
#else
  MQD_CHECK(level == simd::Level::kScalar)
      << "this build carries no AVX2 kernel body";
#endif
  (void)level;
  return ArgmaxDenseScalar;
}

size_t ArgmaxDense(const int64_t* gains, size_t n) {
  EnsureDispatch();
  return g_active_fn(gains, n);
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
  kern::g_active_fn = kern::ArgmaxDenseFor(level);
  return true;
}

}  // namespace simd
}  // namespace mqd
