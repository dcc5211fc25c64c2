#include "heatmap/raster_kernels.h"

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/check.h"
#include "geom/circle_geometry.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RNNHM_X86_SIMD 1
#include <immintrin.h>
#else
#define RNNHM_X86_SIMD 0
#endif

namespace rnnhm {

namespace {

// --- Vector kernels -------------------------------------------------------
//
// Each kernel is ArcYAt unrolled across lanes with the scalar operation
// order preserved exactly:
//   dx = clamp(x - cx, -r, r)      -> min(max(t, -r), r), value first
//   s  = r*r - dx*dx               -> separate mul/sub (-ffp-contract=off)
//   dy = sqrt(max(0.0, s))         -> maxpd(s, 0): NaN/-0.0 lanes -> +0.0,
//                                     matching std::max(0.0, s); hardware
//                                     sqrt is correctly rounded like sqrt()
//   y  = is_upper ? cy + dy : cy - dy
// Remainders fall through to the scalar loop; a scalar iteration computes
// the same double as a vector lane would, so the seam cannot show.

#if RNNHM_X86_SIMD

void ArcYAtColumnsSse2(const Point& center, double radius, bool is_upper,
                       const double* xs, double* out, int count) {
  const __m128d vcx = _mm_set1_pd(center.x);
  const __m128d vcy = _mm_set1_pd(center.y);
  const __m128d vlo = _mm_set1_pd(-radius);
  const __m128d vhi = _mm_set1_pd(radius);
  const __m128d vr2 = _mm_set1_pd(radius * radius);
  const __m128d vzero = _mm_setzero_pd();
  int k = 0;
  for (; k + 2 <= count; k += 2) {
    __m128d t = _mm_sub_pd(_mm_loadu_pd(xs + k), vcx);
    t = _mm_min_pd(_mm_max_pd(t, vlo), vhi);
    __m128d s = _mm_sub_pd(vr2, _mm_mul_pd(t, t));
    const __m128d dy = _mm_sqrt_pd(_mm_max_pd(s, vzero));
    _mm_storeu_pd(out + k,
                  is_upper ? _mm_add_pd(vcy, dy) : _mm_sub_pd(vcy, dy));
  }
  if (k < count) {
    ArcYAtColumnsScalar(center, radius, is_upper, xs + k, out + k, count - k);
  }
}

__attribute__((target("avx2"))) void ArcYAtColumnsAvx2(
    const Point& center, double radius, bool is_upper, const double* xs,
    double* out, int count) {
  const __m256d vcx = _mm256_set1_pd(center.x);
  const __m256d vcy = _mm256_set1_pd(center.y);
  const __m256d vlo = _mm256_set1_pd(-radius);
  const __m256d vhi = _mm256_set1_pd(radius);
  const __m256d vr2 = _mm256_set1_pd(radius * radius);
  const __m256d vzero = _mm256_setzero_pd();
  int k = 0;
  for (; k + 4 <= count; k += 4) {
    __m256d t = _mm256_sub_pd(_mm256_loadu_pd(xs + k), vcx);
    t = _mm256_min_pd(_mm256_max_pd(t, vlo), vhi);
    __m256d s = _mm256_sub_pd(vr2, _mm256_mul_pd(t, t));
    const __m256d dy = _mm256_sqrt_pd(_mm256_max_pd(s, vzero));
    _mm256_storeu_pd(
        out + k, is_upper ? _mm256_add_pd(vcy, dy) : _mm256_sub_pd(vcy, dy));
  }
  if (k < count) {
    ArcYAtColumnsSse2(center, radius, is_upper, xs + k, out + k, count - k);
  }
}

__attribute__((target("avx512f"))) void ArcYAtColumnsAvx512(
    const Point& center, double radius, bool is_upper, const double* xs,
    double* out, int count) {
  const __m512d vcx = _mm512_set1_pd(center.x);
  const __m512d vcy = _mm512_set1_pd(center.y);
  const __m512d vlo = _mm512_set1_pd(-radius);
  const __m512d vhi = _mm512_set1_pd(radius);
  const __m512d vr2 = _mm512_set1_pd(radius * radius);
  const __m512d vzero = _mm512_setzero_pd();
  int k = 0;
  for (; k + 8 <= count; k += 8) {
    __m512d t = _mm512_sub_pd(_mm512_loadu_pd(xs + k), vcx);
    t = _mm512_min_pd(_mm512_max_pd(t, vlo), vhi);
    __m512d s = _mm512_sub_pd(vr2, _mm512_mul_pd(t, t));
    const __m512d dy = _mm512_sqrt_pd(_mm512_max_pd(s, vzero));
    _mm512_storeu_pd(
        out + k, is_upper ? _mm512_add_pd(vcy, dy) : _mm512_sub_pd(vcy, dy));
  }
  if (k < count) {
    ArcYAtColumnsAvx2(center, radius, is_upper, xs + k, out + k, count - k);
  }
}

#endif  // RNNHM_X86_SIMD

bool SimdKillSwitchSet() {
  const char* env = std::getenv("RNNHM_DISABLE_SIMD");
  return env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0;
}

RasterBackend DetectBackend() {
#if RNNHM_X86_SIMD
  if (__builtin_cpu_supports("avx512f")) return RasterBackend::kAvx512;
  if (__builtin_cpu_supports("avx2")) return RasterBackend::kAvx2;
  return RasterBackend::kSse2;  // x86-64 baseline
#else
  return RasterBackend::kScalar;
#endif
}

RasterBackend DefaultBackend() {
  return SimdKillSwitchSet() ? RasterBackend::kScalar : DetectBackend();
}

// Process-wide dispatch target. Initialized once (thread-safe magic
// static); mutated only by the single-threaded test seam.
RasterBackend& BackendSlot() {
  static RasterBackend backend = DefaultBackend();
  return backend;
}

}  // namespace

RasterBackend DetectedRasterBackend() {
  static const RasterBackend detected = DetectBackend();
  return detected;
}

RasterBackend ActiveRasterBackend() { return BackendSlot(); }

const char* RasterBackendName(RasterBackend backend) {
  switch (backend) {
    case RasterBackend::kScalar:
      return "scalar";
    case RasterBackend::kSse2:
      return "sse2";
    case RasterBackend::kAvx2:
      return "avx2";
    case RasterBackend::kAvx512:
      return "avx512";
  }
  return "unknown";
}

int RasterBackendLanes(RasterBackend backend) {
  switch (backend) {
    case RasterBackend::kScalar:
      return 1;
    case RasterBackend::kSse2:
      return 2;
    case RasterBackend::kAvx2:
      return 4;
    case RasterBackend::kAvx512:
      return 8;
  }
  return 1;
}

void ArcYAtColumnsScalar(const Point& center, double radius, bool is_upper,
                         const double* xs, double* out, int count) {
  for (int k = 0; k < count; ++k) {
    out[k] = ArcYAt(center, radius, is_upper, xs[k]);
  }
}

void ArcYAtColumns(const Point& center, double radius, bool is_upper,
                   const double* xs, double* out, int count) {
  RNNHM_DCHECK(std::isfinite(center.x) && std::isfinite(center.y) &&
               std::isfinite(radius));
  switch (ActiveRasterBackend()) {
#if RNNHM_X86_SIMD
    case RasterBackend::kAvx512:
      ArcYAtColumnsAvx512(center, radius, is_upper, xs, out, count);
      return;
    case RasterBackend::kAvx2:
      ArcYAtColumnsAvx2(center, radius, is_upper, xs, out, count);
      return;
    case RasterBackend::kSse2:
      ArcYAtColumnsSse2(center, radius, is_upper, xs, out, count);
      return;
#endif
    default:
      ArcYAtColumnsScalar(center, radius, is_upper, xs, out, count);
      return;
  }
}

void SetRasterBackendForTesting(RasterBackend backend) {
  RNNHM_CHECK_MSG(static_cast<int>(backend) <=
                      static_cast<int>(DetectedRasterBackend()),
                  "cannot force a raster backend this CPU does not support");
  BackendSlot() = backend;
}

void ResetRasterBackendForTesting() { BackendSlot() = DefaultBackend(); }

PixelAxis::PixelAxis(double lo, double step, int n)
    : lo_(lo), step_(step), n_(n) {
  RNNHM_CHECK(n >= 0);
  RNNHM_CHECK_MSG(step > 0.0, "pixel pitch must be positive");
  centers_.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    centers_[static_cast<size_t>(i)] = lo + (i + 0.5) * step;
  }
}

int PixelAxis::LowerBound(double bound) const {
  // Analytic guess, clamped in double space before the int cast (an
  // off-domain bound can put the guess far beyond int range). A NaN bound
  // fails both clamp comparisons and lands on 0; both fix-up loops then
  // no-op (comparisons with NaN are false), matching "no center >= NaN".
  const double guess = std::ceil((bound - lo_) / step_ - 0.5);
  int i;
  if (!(guess > 0.0)) {
    i = 0;
  } else if (guess >= static_cast<double>(n_)) {
    i = n_;
  } else {
    i = static_cast<int>(guess);
  }
  // The guess's division can round across a center when `bound` sits
  // within an ulp of it; walk to the exact table boundary (at most a step
  // or two in practice).
  while (i > 0 && centers_[static_cast<size_t>(i) - 1] >= bound) --i;
  while (i < n_ && centers_[static_cast<size_t>(i)] < bound) ++i;
  return i;
}

}  // namespace rnnhm
