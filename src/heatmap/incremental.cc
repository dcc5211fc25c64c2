#include "heatmap/incremental.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace rnnhm {

IncrementalRasterStats RecomputeDirtyColumns(
    HeatmapGrid* grid, Metric metric, const std::vector<NnCircle>& circles,
    const InfluenceMeasure& measure, const DirtyRegionSet& dirty) {
  RNNHM_CHECK(grid != nullptr);
  IncrementalRasterStats stats;
  stats.total_columns = grid->width();
  stats.total_rows = grid->height();
  if (dirty.empty()) return stats;

  const Rect& domain = grid->domain();
  const double dx = (domain.hi.x - domain.lo.x) / grid->width();
  const double dy = (domain.hi.y - domain.lo.y) / grid->height();
  const PixelAxis cols = ColumnAxis(domain, grid->width());
  const PixelAxis rows = RowAxis(domain, grid->height());
  const InfluenceMeasure* const measures[] = {&measure};

  for (const DirtyRect& rect : dirty.Merged()) {
    // Columns/rows whose centers lie in the closed dirty rect. Only those
    // pixels can have changed; everything else keeps its retained value.
    // Clamp in double space first: a far-off-domain edit produces ordinals
    // beyond int range, and casting those is undefined behavior.
    const double width = grid->width();
    const double height = grid->height();
    const double lo_col = std::ceil((rect.x.lo - domain.lo.x) / dx - 0.5);
    const double hi_col = std::floor((rect.x.hi - domain.lo.x) / dx - 0.5);
    if (hi_col < 0.0 || lo_col > width - 1.0) continue;  // off-screen
    const int i0 = static_cast<int>(std::max(0.0, lo_col));
    const int i1 = static_cast<int>(std::min(width - 1.0, hi_col));
    if (i0 > i1) continue;  // between two column centers
    const double lo_row = std::ceil((rect.y.lo - domain.lo.y) / dy - 0.5);
    const double hi_row = std::floor((rect.y.hi - domain.lo.y) / dy - 0.5);
    if (hi_row < 0.0 || lo_row > height - 1.0) continue;  // off-screen
    const int j0 = static_cast<int>(std::max(0.0, lo_row));
    const int j1 = static_cast<int>(std::min(height - 1.0, hi_row));
    if (j0 > j1) continue;  // between two row centers

    stats.kernel += RasterizeColumns(metric, circles, measures, cols, rows,
                                     PixelWindow{i0, i1 + 1, j0, j1 + 1},
                                     /*origin_col=*/0, /*origin_row=*/0, grid);
    ++stats.dirty_slabs;
    stats.dirty_columns += i1 - i0 + 1;
    stats.dirty_pixels +=
        static_cast<int64_t>(i1 - i0 + 1) * (j1 - j0 + 1);
  }
  return stats;
}

IncrementalRasterStats RecomputeDirtyColumns(
    HeatmapGrid* grid, Metric metric, const std::vector<NnCircle>& circles,
    const InfluenceMeasure& measure, const DirtyIntervalSet& dirty) {
  const double inf = std::numeric_limits<double>::infinity();
  DirtyRegionSet regions;
  for (const DirtyInterval& interval : dirty.Merged()) {
    regions.Add(interval.lo, interval.hi, -inf, inf);
  }
  return RecomputeDirtyColumns(grid, metric, circles, measure, regions);
}

}  // namespace rnnhm
