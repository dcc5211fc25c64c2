// Domain tiling: partition a raster into an R x C grid of tiles, paint
// every tile independently over just the circles that can influence it,
// and stitch the per-tile rasters into one grid bit-identical to the
// untiled raster.
//
// Why stitching is exact: the column kernel (heatmap/column_raster.h)
// paints a pixel from exactly the circles containing its center, working
// in global pixel indices through the untiled grid's center tables. A tile
// painted over any superset of the circles covering its pixel centers
// therefore gets exactly the untiled values — extra circles contain none
// of its centers. Holds for influence measures whose value does not depend
// on RNN-set iteration order (SizeInfluence et al.), the kernel's caveat.
//
// Tile boundaries come from PixelAxis::LowerBound over the global center
// table — never from independent float math — so the windows partition
// the pixel space exactly (every output pixel has exactly one owner tile).
//
// Circle-to-tile assignment is a bulk R-tree pass (src/index/rtree.h): one
// STR bulk load of the circle bounding boxes (which cover the L1 diamond
// and the L2 disk as well as the L∞ square), one window query per tile
// with the tile's closed pixel-center extent — O(n log n + tiles * log n)
// instead of the O(n * tiles) scan.
#ifndef RNNHM_TILE_TILE_PLAN_H_
#define RNNHM_TILE_TILE_PLAN_H_

#include <cstdint>
#include <span>
#include <vector>

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

/// One tile of a TilePlan.
struct Tile {
  int row = 0;  ///< position in the tile grid
  int col = 0;
  TileWindow window;  ///< global pixel-index window this tile owns
  /// Indices (ascending) into the plan's circle span of every circle whose
  /// influence can reach a pixel center of this tile — a conservative
  /// superset via bounding-box intersection.
  std::vector<int32_t> circles;
};

struct TilePlanOptions {
  int rows = 1;
  int cols = 1;
};

/// An immutable tiling of one (metric, circles, domain, width, height)
/// sweep. Does not own the circles: the span must outlive the plan.
class TilePlan {
 public:
  TilePlan(Metric metric, std::span<const NnCircle> circles,
           const Rect& domain, int width, int height,
           const TilePlanOptions& options = {});

  Metric metric() const { return metric_; }
  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int width() const { return width_; }
  int height() const { return height_; }
  const Rect& domain() const { return domain_; }
  const std::vector<Tile>& tiles() const { return tiles_; }
  const Tile& tile(int r, int c) const { return tiles_[r * cols_ + c]; }

  /// Materializes the tile's assigned circles (input order preserved) —
  /// the subset a shard sweeps, and what per-tile cache keys hash.
  std::vector<NnCircle> GatherCircles(const Tile& t) const;

  /// Paints one tile into the full-size grid `out` (which must have the
  /// plan's width/height). Only pixels inside the tile's window are
  /// written; they end up bit-identical to the untiled raster's.
  /// `num_blocks` is the column-block parallelism within the tile (any
  /// value yields the same bits). Stats accumulate into `*stats` when
  /// non-null.
  void SweepTileInto(const Tile& t, const InfluenceMeasure& measure,
                     int num_blocks, HeatmapGrid* out,
                     ColumnRasterStats* stats = nullptr) const;

  /// Paints one tile into a window-sized fragment grid — what a by-tile
  /// shard returns over the wire. Fragment cell (i, j) is global pixel
  /// (window.col_lo + i, window.row_lo + j). Requires !t.window.empty().
  HeatmapGrid SweepTileFragment(const Tile& t, const InfluenceMeasure& measure,
                                int num_blocks,
                                ColumnRasterStats* stats = nullptr) const;

  /// Copies a window-sized fragment into its place in the full grid.
  static void StitchFragment(const TileWindow& window,
                             const HeatmapGrid& fragment, HeatmapGrid* out);

  /// Paints every tile and stitches: the full grid, bit-identical to the
  /// untiled BuildHeatmapForMetric output for this metric.
  HeatmapGrid Run(const InfluenceMeasure& measure, int num_blocks = 1,
                  ColumnRasterStats* stats = nullptr) const;

 private:
  void SweepWindowed(const Tile& t, const InfluenceMeasure& measure,
                     int num_blocks, HeatmapGrid* target, int origin_col,
                     int origin_row, ColumnRasterStats* stats) const;

  Metric metric_;
  std::span<const NnCircle> circles_;
  Rect domain_;
  int width_;
  int height_;
  int rows_;
  int cols_;
  std::vector<Tile> tiles_;
};

}  // namespace rnnhm

#endif  // RNNHM_TILE_TILE_PLAN_H_
