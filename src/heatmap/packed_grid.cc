#include "heatmap/packed_grid.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RNNHM_PACK_SSE2 1
#include <emmintrin.h>
#else
#define RNNHM_PACK_SSE2 0
#endif

namespace rnnhm {

namespace {

// The exactness rule for one value; the SSE2 loop applies the same test
// lane-wise: truncation round-trips (NaN, infinities and fractions fail),
// the sign bit is clear (negatives and -0.0 fail) and no bit above the
// low 16 is set (values above 65535 fail).
bool PackOne(double v, uint8_t* dst) {
  if (!(v >= 0.0 && v <= 65535.0) || std::signbit(v)) return false;
  const uint16_t u = static_cast<uint16_t>(v);
  if (static_cast<double>(u) != v) return false;
  std::memcpy(dst, &u, sizeof(u));
  return true;
}

#if RNNHM_PACK_SSE2

constexpr size_t kNotCounts = static_cast<size_t>(-1);

// Lanes of `v` whose truncation `i` converts back to the same double.
__m128d Exact(__m128d v, __m128i i) {
  return _mm_cmpeq_pd(_mm_cvtepi32_pd(i), v);
}

// Eight values per iteration: cvttpd gives int32 lanes (the "integer
// indefinite" 0x80000000 for NaN and out-of-range values, which cannot
// convert back equal), and the biased signed pack narrows lanes in
// [0, 65535] to u16 exactly. The verdict accumulates branch-free and is
// checked once per block, so a grid of doubles bails out early. Returns
// the count of values packed (a multiple of 8), or kNotCounts.
size_t PackCountsSse2(const double* src, size_t n, uint8_t* dst) {
  constexpr size_t kCheckEvery = 1024;
  const __m128i zero = _mm_setzero_si128();
  const __m128i bias = _mm_set1_epi32(32768);
  const __m128i flip = _mm_set1_epi16(static_cast<int16_t>(0x8000));
  size_t k = 0;
  while (k + 8 <= n) {
    __m128d exact = _mm_castsi128_pd(_mm_set1_epi32(-1));
    __m128d sign = _mm_setzero_pd();
    __m128i wide = zero;
    const size_t block_end = k + std::min(kCheckEvery, (n - k) & ~size_t{7});
    for (; k < block_end; k += 8) {
      const __m128d v0 = _mm_loadu_pd(src + k);
      const __m128d v1 = _mm_loadu_pd(src + k + 2);
      const __m128d v2 = _mm_loadu_pd(src + k + 4);
      const __m128d v3 = _mm_loadu_pd(src + k + 6);
      const __m128i i0 = _mm_cvttpd_epi32(v0);
      const __m128i i1 = _mm_cvttpd_epi32(v1);
      const __m128i i2 = _mm_cvttpd_epi32(v2);
      const __m128i i3 = _mm_cvttpd_epi32(v3);
      exact = _mm_and_pd(exact, _mm_and_pd(Exact(v0, i0), Exact(v1, i1)));
      exact = _mm_and_pd(exact, _mm_and_pd(Exact(v2, i2), Exact(v3, i3)));
      sign = _mm_or_pd(sign, _mm_or_pd(_mm_or_pd(v0, v1), _mm_or_pd(v2, v3)));
      const __m128i lo = _mm_unpacklo_epi64(i0, i1);
      const __m128i hi = _mm_unpacklo_epi64(i2, i3);
      wide = _mm_or_si128(wide, _mm_or_si128(lo, hi));
      const __m128i packed = _mm_packs_epi32(_mm_sub_epi32(lo, bias),
                                             _mm_sub_epi32(hi, bias));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 2 * k),
                       _mm_xor_si128(packed, flip));
    }
    const __m128i fits = _mm_cmpeq_epi32(_mm_srli_epi32(wide, 16), zero);
    if (_mm_movemask_pd(exact) != 0x3 || _mm_movemask_pd(sign) != 0 ||
        _mm_movemask_epi8(fits) != 0xFFFF) {
      return kNotCounts;
    }
  }
  return k;
}

#endif  // RNNHM_PACK_SSE2

}  // namespace

bool PackCounts(const double* src, size_t n, uint8_t* dst) {
  size_t k = 0;
#if RNNHM_PACK_SSE2
  k = PackCountsSse2(src, n, dst);
  if (k == kNotCounts) return false;
#endif
  for (; k < n; ++k) {
    if (!PackOne(src[k], dst + 2 * k)) return false;
  }
  return true;
}

void WidenCounts(const uint8_t* src, size_t n, double* dst) {
  for (size_t k = 0; k < n; ++k) {
    uint16_t u;
    std::memcpy(&u, src + 2 * k, sizeof(u));
    dst[k] = u;
  }
}

PackedGrid::PackedGrid(const HeatmapGrid& shape, std::vector<uint16_t> counts,
                       std::vector<double> values)
    : width_(shape.width()),
      height_(shape.height()),
      domain_(shape.domain()),
      counts_(std::move(counts)),
      values_(std::move(values)) {}

PackedGrid PackedGrid::Pack(const HeatmapGrid& grid) {
  std::vector<uint16_t> counts(grid.values().size());
  if (PackCounts(grid.data(), counts.size(),
                 reinterpret_cast<uint8_t*>(counts.data()))) {
    return PackedGrid(grid, std::move(counts), {});
  }
  return PackedGrid(grid, {}, grid.values());
}

HeatmapGrid PackedGrid::Unpack() const {
  if (!is_counts()) return HeatmapGrid(width_, height_, domain_, values_);
  return HeatmapGrid(width_, height_, domain_,
                     std::vector<double>(counts_.begin(), counts_.end()));
}

}  // namespace rnnhm
