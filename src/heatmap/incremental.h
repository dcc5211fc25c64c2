// Incremental heat-map maintenance: repaint only the dirty windows of a
// retained grid.
//
// Exactness rests on the column kernel's contract (heatmap/column_raster.h):
// a pixel's value depends only on the circles containing its center, and a
// windowed repaint computes each window pixel from the full current circle
// set through the untiled grid's center tables. Each dirty rect is the
// bounding box of an edited circle's footprint (the old or new square,
// diamond or disk), so every pixel whose value can differ lies inside some
// rect — in its x-range AND its y-range. Merging rects by x-overlap unions
// their y-intervals, which keeps the invariant: a pixel in a merged rect's
// columns but outside its y-union is outside every contributing
// footprint, hence unchanged, and retaining it untouched is exact. Each
// merged rect is repainted as one window of exactly the pixels whose
// centers it contains, so splice cost scales with the dirty area.
//
// Holds for all three metrics, with the kernel's measure caveat: a
// non-dyadic WeightedInfluence may differ in the last bits, since a
// window permutes the set order its sums run in.
#ifndef RNNHM_HEATMAP_INCREMENTAL_H_
#define RNNHM_HEATMAP_INCREMENTAL_H_

#include <cstdint>
#include <vector>

#include "core/dirty_interval.h"
#include "heatmap/column_raster.h"
#include "heatmap/heatmap.h"

namespace rnnhm {

/// Counters of one incremental recompute pass.
struct IncrementalRasterStats {
  int dirty_slabs = 0;     ///< merged dirty rects that touched the grid
  int dirty_columns = 0;   ///< pixel columns repainted
  int total_columns = 0;   ///< grid width (for dirty-fraction reporting)
  int total_rows = 0;      ///< grid height (for dirty-fraction reporting)
  /// Pixels actually repainted (sum of dirty-window areas in pixels).
  /// With 1D dirty intervals this is dirty_columns * height; a
  /// y-localized edit drives it far lower.
  int64_t dirty_pixels = 0;
  ColumnRasterStats kernel;  ///< summed counters of the window repaints
};

/// Repaints in place every pixel of `grid` whose center lies in one of
/// `dirty`'s merged rects, from the *current* `circles` (built under
/// `metric`). Rects outside the grid are skipped (off-screen edits change
/// no pixel). Returns the pass counters; the grid is untouched when
/// `dirty` is empty.
IncrementalRasterStats RecomputeDirtyColumns(
    HeatmapGrid* grid, Metric metric, const std::vector<NnCircle>& circles,
    const InfluenceMeasure& measure, const DirtyRegionSet& dirty);

/// 1D compatibility overload: treats each dirty x-interval as a rect of
/// unbounded y-extent (full-height columns).
IncrementalRasterStats RecomputeDirtyColumns(
    HeatmapGrid* grid, Metric metric, const std::vector<NnCircle>& circles,
    const InfluenceMeasure& measure, const DirtyIntervalSet& dirty);

}  // namespace rnnhm

#endif  // RNNHM_HEATMAP_INCREMENTAL_H_
