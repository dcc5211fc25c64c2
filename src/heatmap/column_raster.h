// The heat-map raster kernel for all three metrics: column-sampled RNN sets.
//
// A fixed-resolution heat map only needs the RNN set at each pixel center,
// so this kernel never builds the arrangement CREST labels. Pixel (i, j)
// receives measure.Evaluate of exactly the circles c with
// c.Contains(PixelCenter(i, j), metric) — the definition
// BuildHeatmapBruteForce evaluates pixel by pixel — at a cost of
// O(pixels + chords) plus one Evaluate per event row, instead of the
// sweep's O(regions · |RNN set|):
//   1. per circle, the pixel-column run it covers (PixelAxis::LowerBound
//      of its x-extent, nudged to exact with a Contains check);
//   2. per circle and covered column, the chord of rows it covers, from a
//      closed form in the original frame — the square's [cy - r, cy + r]
//      for L∞, the diamond's cy ± (r − |dx|) for L1, the two arc
//      ordinates from the SIMD ArcYAtColumns for L2 — nudged to exact the
//      same way;
//   3. the walk: per column, the chords' enter/exit rows counting-sorted
//      into (row, circle index) order and walked bottom to top over a
//      dense swap-remove id set, whose span goes straight to Evaluate once
//      per event row; the rows between events get the current value.
//
// The count path replaces step 3 when every block's measure is exactly
// SizeInfluence (its typeid, so a subclass overriding Evaluate is walked):
// a pixel's value is then the number of circles containing its center,
// which difference counts give without an id set or an Evaluate call.
//   - L∞: a circle's pixels are its column run × its row run, 4 corner
//     updates of a 2-D difference array laid over the window's output
//     cells; one prefix pass on the caller's thread makes the counts, in
//     O(circles + pixels) whatever the block count.
//   - L1/L2: each chord of step 2 adds +1 at its first row and -1 past its
//     last in its 64-column batch; one prefix pass up the rows follows.
// Updates past the window's right or top edge are dropped (a prefix sum
// never carries them back in), so only window cells are written. The
// chords are the walk's own and their counts are small integers, which
// add exactly in a double, so both paths paint the same bits.
//
// Exactness: along any row or column the set of pixel centers a circle
// contains is one contiguous run (the computed distance is monotone in
// the computed |dx| and |dy|), which always includes the center nearest
// the circle's center when it is non-empty. The nudge walks from the
// estimate to the run's ends, anchored on a center known to be inside,
// so the estimate only sets how far it walks and the painted set is
// Contains bit for bit — including centers exactly on a boundary,
// pixel pitches below one ulp of the coordinates, zero-radius
// circles whose center is a pixel center, and circles wholly off the
// window. The value at a pixel depends only on the circles covering it
// and the (row, circle index) event order of its own column, never on the
// window, the column batches or the thread count: windowed fragments,
// dirty-window splices and every block decomposition reproduce the
// whole-grid raster exactly for measures whose value does not depend on
// RNN-set iteration order (SizeInfluence, dyadic WeightedInfluence,
// CapacityInfluence, ConnectivityInfluence). A non-dyadic
// WeightedInfluence sums in set order, which a window that clips a
// chord's entry row can permute, so it may differ in the last bits.
//
// Preconditions: every center and radius is finite (DCHECKed here; the
// wire decoders and CircleSetRegistry reject non-finite input at
// ingress). A negative radius contains no point and is skipped.
#ifndef RNNHM_HEATMAP_COLUMN_RASTER_H_
#define RNNHM_HEATMAP_COLUMN_RASTER_H_

#include <cstddef>
#include <span>

#include "core/influence_measure.h"
#include "geom/geometry.h"
#include "heatmap/heatmap.h"
#include "heatmap/raster_kernels.h"

namespace rnnhm {

/// Half-open global pixel-index window [col_lo, col_hi) x [row_lo, row_hi).
struct PixelWindow {
  int col_lo = 0;
  int col_hi = 0;
  int row_lo = 0;
  int row_hi = 0;

  bool empty() const { return col_lo >= col_hi || row_lo >= row_hi; }
  int width() const { return col_hi - col_lo; }
  int height() const { return row_hi - row_lo; }
  friend bool operator==(const PixelWindow&, const PixelWindow&) = default;
};

/// Counters of one RasterizeColumns call.
struct ColumnRasterStats {
  size_t num_circles = 0;          ///< circles considered (radius >= 0)
  size_t num_skipped_circles = 0;  ///< negative radius: contain no point
  size_t num_chords = 0;           ///< non-empty (circle, column) chords
  size_t num_evaluations = 0;      ///< Evaluate calls (0 when counting)

  ColumnRasterStats& operator+=(const ColumnRasterStats& o) {
    num_circles += o.num_circles;
    num_skipped_circles += o.num_skipped_circles;
    num_chords += o.num_chords;
    num_evaluations += o.num_evaluations;
    return *this;
  }
};

/// Pixel-center tables of a width x height raster over `domain`.
PixelAxis ColumnAxis(const Rect& domain, int width);
PixelAxis RowAxis(const Rect& domain, int height);

/// Paints every pixel of `window` — global indices into the raster whose
/// center tables are `cols` and `rows` — storing global pixel (i, j) at
/// `out` cell (i - origin_col, j - origin_row); cells outside the window
/// are not touched. `out` must cover the window: origin_col <= col_lo,
/// col_hi - origin_col <= out->width(), and the same for rows. The window
/// is split into measures.size() contiguous column blocks, block t
/// painted on its own thread with measures[t] (pass one instance per
/// block for measures with per-instance scratch, e.g. CapacityInfluence;
/// repeating one thread-safe instance is fine); the SizeInfluence count
/// path paints L∞ on the caller's thread alone. Output is identical for
/// every block count and for both paths.
ColumnRasterStats RasterizeColumns(
    Metric metric, std::span<const NnCircle> circles,
    std::span<const InfluenceMeasure* const> measures, const PixelAxis& cols,
    const PixelAxis& rows, const PixelWindow& window, int origin_col,
    int origin_row, HeatmapGrid* out);

/// Whole-grid convenience: paints all of `grid` (over its own domain) with
/// `num_blocks` column blocks sharing `measure`, which must then be safe
/// for concurrent Evaluate when num_blocks > 1.
ColumnRasterStats RasterizeGrid(Metric metric,
                                std::span<const NnCircle> circles,
                                const InfluenceMeasure& measure,
                                int num_blocks, HeatmapGrid* grid);

}  // namespace rnnhm

#endif  // RNNHM_HEATMAP_COLUMN_RASTER_H_
