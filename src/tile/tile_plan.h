// Domain tiling: split a raster into an R x C grid of pixel windows, paint
// each window as a window-sized fragment, and stitch the fragments into
// one grid bit-identical to the untiled raster.
//
// Why stitching is exact: the column kernel (heatmap/column_raster.h)
// paints a pixel from exactly the circles containing its center, working
// in global pixel indices through the untiled grid's center tables. A
// window painted over any superset of the circles covering its pixel
// centers therefore gets exactly the untiled values — extra circles
// contain none of its centers. A fragment is painted over the whole
// circle set, the simplest such superset, with no per-tile circle
// assignment: the kernel drops a circle whose column run misses the
// window after one clipped run test (an L1 or L2 circle whose columns
// meet the window but whose rows miss it still has its chords computed
// and clipped away). Holds for influence measures whose value does not
// depend on RNN-set iteration order (SizeInfluence et al.), the kernel's
// caveat.
//
// Tile boundaries come from PixelAxis::LowerBound over the global center
// table — never from independent float math — so the windows partition
// the pixel space exactly (every output pixel has exactly one owner tile).
#ifndef RNNHM_TILE_TILE_PLAN_H_
#define RNNHM_TILE_TILE_PLAN_H_

#include <span>
#include <vector>

#include "core/influence_measure.h"
#include "geom/geometry.h"
#include "heatmap/column_raster.h"
#include "heatmap/heatmap.h"

namespace rnnhm {

/// A tile's half-open global pixel-index window.
using TileWindow = PixelWindow;

/// The R x C tile pixel windows of a width x height raster over `domain`,
/// row-major (tile (r, c) at index r * cols + c). Boundary k of the column
/// cut at coordinate lo.x + (extent * k) / cols is
/// PixelAxis::LowerBound(cut) with the outer boundaries forced to 0 and
/// width, so the
/// windows partition [0, width) x [0, height) no matter how the cut
/// coordinates round. Shards and routers calling this with equal arguments
/// compute equal windows (no per-process state).
std::vector<TileWindow> TileWindows(const Rect& domain, int width, int height,
                                    int rows, int cols);

/// Paints window `w` of the width x height raster over `domain` into a
/// window-sized fragment — what a by-tile shard returns over the wire.
/// Fragment cell (i, j) is global pixel (w.col_lo + i, w.row_lo + j),
/// painted by RasterizeColumns over all of `circles` in `num_blocks`
/// column blocks sharing `measure` (any block count yields the same
/// bits). The fragment's grid domain is the window's coordinate cell, or
/// `domain` when that cell is not representable. Requires !w.empty().
/// Stats accumulate into `*stats` when non-null.
HeatmapGrid PaintTileFragment(Metric metric, std::span<const NnCircle> circles,
                              const InfluenceMeasure& measure, int num_blocks,
                              const Rect& domain, int width, int height,
                              const TileWindow& w,
                              ColumnRasterStats* stats = nullptr);

/// Copies a window-sized fragment into its place in the full grid.
void StitchFragment(const TileWindow& window, const HeatmapGrid& fragment,
                    HeatmapGrid* out);

}  // namespace rnnhm

#endif  // RNNHM_TILE_TILE_PLAN_H_
