#include "tile/tile_plan.h"

#include <algorithm>

#include "common/check.h"
#include "index/rtree.h"

namespace rnnhm {

namespace {

// Index boundaries of `parts` cuts over one axis: boundary k converts the
// cut coordinate lo + (extent * k) / parts through LowerBound, endpoints
// forced to the full range. Monotone by
// construction (the cuts are nondecreasing and LowerBound is monotone);
// checked rather than trusted because the whole stitch invariant rides on
// it.
std::vector<int> AxisBoundaries(const PixelAxis& axis, double lo,
                                double extent, int parts) {
  std::vector<int> bounds(parts + 1);
  for (int k = 0; k <= parts; ++k) {
    bounds[k] = axis.LowerBound(lo + (extent * k) / parts);
  }
  bounds[0] = 0;
  bounds[parts] = axis.size();
  for (int k = 0; k < parts; ++k) {
    RNNHM_CHECK_MSG(bounds[k] <= bounds[k + 1],
                    "tile boundaries must be nondecreasing");
  }
  return bounds;
}

}  // namespace

std::vector<TileWindow> TileWindows(const Rect& domain, int width, int height,
                                    int rows, int cols) {
  RNNHM_CHECK(width > 0 && height > 0 && rows > 0 && cols > 0);
  RNNHM_CHECK(domain.lo.x < domain.hi.x && domain.lo.y < domain.hi.y);
  const std::vector<int> col_bounds = AxisBoundaries(
      ColumnAxis(domain, width), domain.lo.x, domain.hi.x - domain.lo.x, cols);
  const std::vector<int> row_bounds = AxisBoundaries(
      RowAxis(domain, height), domain.lo.y, domain.hi.y - domain.lo.y, rows);
  std::vector<TileWindow> windows;
  windows.reserve(static_cast<size_t>(rows) * cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      windows.push_back(TileWindow{col_bounds[c], col_bounds[c + 1],
                                   row_bounds[r], row_bounds[r + 1]});
    }
  }
  return windows;
}

TilePlan::TilePlan(Metric metric, std::span<const NnCircle> circles,
                   const Rect& domain, int width, int height,
                   const TilePlanOptions& options)
    : metric_(metric),
      circles_(circles),
      domain_(domain),
      width_(width),
      height_(height),
      rows_(options.rows),
      cols_(options.cols) {
  const std::vector<TileWindow> windows =
      TileWindows(domain, width, height, rows_, cols_);
  tiles_.resize(windows.size());
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) {
      Tile& t = tiles_[r * cols_ + c];
      t.row = r;
      t.col = c;
      t.window = windows[r * cols_ + c];
    }
  }

  const PixelAxis cols_axis = ColumnAxis(domain, width);
  const PixelAxis rows_axis = RowAxis(domain, height);
  std::vector<Rect> bounds;
  bounds.reserve(circles.size());
  for (const NnCircle& c : circles) bounds.push_back(c.Bounds());
  RTree rtree;
  rtree.BulkLoad(bounds);
  for (Tile& t : tiles_) {
    if (t.window.empty()) continue;
    // Closed extent of the tile's pixel centers: any circle containing
    // one of those centers has a bounding box intersecting it.
    const Rect query{{cols_axis.centers()[t.window.col_lo],
                      rows_axis.centers()[t.window.row_lo]},
                     {cols_axis.centers()[t.window.col_hi - 1],
                      rows_axis.centers()[t.window.row_hi - 1]}};
    rtree.Query(query, [&t](int32_t id) { t.circles.push_back(id); });
    std::sort(t.circles.begin(), t.circles.end());
  }
}

std::vector<NnCircle> TilePlan::GatherCircles(const Tile& t) const {
  std::vector<NnCircle> subset;
  subset.reserve(t.circles.size());
  for (const int32_t id : t.circles) subset.push_back(circles_[id]);
  return subset;
}

void TilePlan::SweepWindowed(const Tile& t, const InfluenceMeasure& measure,
                             int num_blocks, HeatmapGrid* target,
                             int origin_col, int origin_row,
                             ColumnRasterStats* stats) const {
  if (t.window.empty() || t.circles.empty()) return;  // background is correct
  const std::vector<NnCircle> subset = GatherCircles(t);
  const std::vector<const InfluenceMeasure*> measures(num_blocks, &measure);
  const ColumnRasterStats s = RasterizeColumns(
      metric_, subset, measures, ColumnAxis(domain_, width_),
      RowAxis(domain_, height_), t.window, origin_col, origin_row, target);
  if (stats != nullptr) *stats += s;
}

void TilePlan::SweepTileInto(const Tile& t, const InfluenceMeasure& measure,
                             int num_blocks, HeatmapGrid* out,
                             ColumnRasterStats* stats) const {
  RNNHM_CHECK(out->width() == width_ && out->height() == height_);
  SweepWindowed(t, measure, num_blocks, out, /*origin_col=*/0,
                /*origin_row=*/0, stats);
}

HeatmapGrid TilePlan::SweepTileFragment(const Tile& t,
                                        const InfluenceMeasure& measure,
                                        int num_blocks,
                                        ColumnRasterStats* stats) const {
  const TileWindow& w = t.window;
  RNNHM_CHECK_MSG(!w.empty(), "empty tiles have no fragment");
  // The fragment's own domain is decorative (painting goes through the
  // global axes); use the tile's coordinate cell when it is representable,
  // else fall back to the full domain.
  const double dx = (domain_.hi.x - domain_.lo.x) / width_;
  const double dy = (domain_.hi.y - domain_.lo.y) / height_;
  Rect frag_domain{{domain_.lo.x + w.col_lo * dx, domain_.lo.y + w.row_lo * dy},
                   {domain_.lo.x + w.col_hi * dx, domain_.lo.y + w.row_hi * dy}};
  if (!(frag_domain.lo.x < frag_domain.hi.x &&
        frag_domain.lo.y < frag_domain.hi.y)) {
    frag_domain = domain_;
  }
  HeatmapGrid fragment(w.width(), w.height(), frag_domain,
                       measure.Evaluate({}));
  SweepWindowed(t, measure, num_blocks, &fragment, w.col_lo, w.row_lo, stats);
  return fragment;
}

void TilePlan::StitchFragment(const TileWindow& window,
                              const HeatmapGrid& fragment, HeatmapGrid* out) {
  RNNHM_CHECK(fragment.width() == window.width() &&
              fragment.height() == window.height());
  RNNHM_CHECK(window.col_hi <= out->width() && window.row_hi <= out->height());
  for (int j = 0; j < fragment.height(); ++j) {
    const double* src = fragment.Row(j);
    double* dst = out->Row(window.row_lo + j) + window.col_lo;
    std::copy(src, src + fragment.width(), dst);
  }
}

HeatmapGrid TilePlan::Run(const InfluenceMeasure& measure, int num_blocks,
                          ColumnRasterStats* stats) const {
  HeatmapGrid out(width_, height_, domain_, measure.Evaluate({}));
  for (const Tile& t : tiles_) {
    SweepTileInto(t, measure, num_blocks, &out, stats);
  }
  return out;
}

}  // namespace rnnhm
