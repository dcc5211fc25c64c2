// SIMD-friendly building blocks of the column raster kernel
// (heatmap/column_raster.h).
//
// The kernel evaluates disk arcs at consecutive pixel-column centers (the
// L2 chord estimates) and converts coordinate bounds into pixel index
// ranges. This header provides that machinery in SoA form:
//   * PixelAxis — the precomputed center table for one grid axis plus an
//     exact LowerBound over it, so the kernel computes each chord's index
//     range once instead of testing every pixel center;
//   * ArcYAtColumns — geom/circle_geometry.h's ArcYAt batched over a run
//     of consecutive column centers, dispatched to explicit-width vector
//     kernels (SSE2 / AVX2 / AVX-512 on x86-64) at runtime.
//
// Bit-identity contract: for a finite center and radius (an enforced
// precondition, below) and any column abscissas, every backend produces
// exactly the doubles the scalar ArcYAt loop produces. The vector kernels replicate
// the scalar operation order per lane — clamp as max-then-min with the
// value operand first, `std::max(0.0, s)` as maxpd(s, 0) so a NaN/-0.0
// discriminant collapses to +0.0 identically, and vsqrtpd, which IEEE 754
// requires to be correctly rounded, matching scalar sqrt — and the build
// compiles with -ffp-contract=off so no path contracts mul+sub into a
// fused multiply-add the other path lacks. The differential test suite runs
// with SIMD on and off (RNNHM_DISABLE_SIMD=1) as the standing proof.
//
// Dispatch: the candidate kernel set is fixed at compile time (x86-64 with
// GNU-style target attributes compiles all of them; other targets get the
// scalar kernel only); the widest CPU-supported backend is picked once per
// process, unless the RNNHM_DISABLE_SIMD environment variable (any value
// but "0" or empty) forces the scalar path — the kill switch for narrowing
// down any suspected vectorization miscompile in production.
#ifndef RNNHM_HEATMAP_RASTER_KERNELS_H_
#define RNNHM_HEATMAP_RASTER_KERNELS_H_

#include <vector>

#include "geom/geometry.h"

namespace rnnhm {

/// Vector backends, widest last. Backends are totally ordered: on x86-64
/// every CPU with AVX-512F also runs AVX2 and SSE2 code.
enum class RasterBackend : int {
  kScalar = 0,
  kSse2 = 1,    ///< 2 lanes (x86-64 baseline)
  kAvx2 = 2,    ///< 4 lanes
  kAvx512 = 3,  ///< 8 lanes
};

/// The widest backend this CPU supports, ignoring the kill switch.
RasterBackend DetectedRasterBackend();

/// The backend ArcYAtColumns dispatches to: DetectedRasterBackend() unless
/// RNNHM_DISABLE_SIMD forces kScalar (env read once per process) or a test
/// override is in effect.
RasterBackend ActiveRasterBackend();

/// Human-readable backend name ("scalar", "sse2", ...).
const char* RasterBackendName(RasterBackend backend);

/// Vector width of a backend in doubles (1, 2, 4, 8).
int RasterBackendLanes(RasterBackend backend);

/// out[k] = ArcYAt(center, radius, is_upper, xs[k]) for k in [0, count) —
/// the lower/upper semicircle ordinate at each abscissa, bit-identical to
/// the scalar loop on every backend. Requires a finite center and radius
/// (DCHECKed; the wire decoders and CircleSetRegistry reject non-finite
/// circles at ingress, so none reach the kernel). xs and out need no
/// particular alignment and must not overlap.
void ArcYAtColumns(const Point& center, double radius, bool is_upper,
                   const double* xs, double* out, int count);

/// The scalar reference ArcYAtColumns dispatches to on kScalar — exposed
/// so parity tests can compare any backend against it directly.
void ArcYAtColumnsScalar(const Point& center, double radius, bool is_upper,
                         const double* xs, double* out, int count);

/// Test seam: force dispatch to `backend` for the calling process. Must be
/// at most DetectedRasterBackend() — forcing an unsupported backend would
/// fault on the first kernel call. Not thread-safe; call only from
/// single-threaded test setup.
void SetRasterBackendForTesting(RasterBackend backend);

/// Undoes SetRasterBackendForTesting (restores detection + kill switch).
void ResetRasterBackendForTesting();

/// Precomputed pixel-center table for one raster axis: centers()[i] =
/// lo + (i + 0.5) * step, evaluated in exactly that expression order so
/// the table matches what per-pixel code historically computed. With
/// step > 0 the table is nondecreasing, so every half-open coordinate
/// span maps to one contiguous index range — the SoA replacement for
/// per-pixel break/continue scans.
class PixelAxis {
 public:
  /// Builds the table for `n` pixels starting at domain coordinate `lo`
  /// with pixel pitch `step` (> 0).
  PixelAxis(double lo, double step, int n);

  int size() const { return n_; }
  double step() const { return step_; }
  /// The center table, size() entries.
  const double* centers() const { return centers_.data(); }

  /// First index i in [0, size()] with centers()[i] >= bound; size() when
  /// no center qualifies. Computed from an analytic guess clamped in
  /// double space (far-off-domain bounds never hit int-cast UB) and fixed
  /// up against the actual table, so the result is exact even when the
  /// guess rounds across a center. Pixels painted by a half-open span
  /// [b0, b1) are exactly indices [LowerBound(b0), LowerBound(b1)).
  int LowerBound(double bound) const;

 private:
  double lo_;
  double step_;
  int n_;
  std::vector<double> centers_;
};

}  // namespace rnnhm

#endif  // RNNHM_HEATMAP_RASTER_KERNELS_H_
