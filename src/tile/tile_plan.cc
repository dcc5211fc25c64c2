#include "tile/tile_plan.h"

#include <algorithm>

#include "common/check.h"

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

HeatmapGrid PaintTileFragment(Metric metric, std::span<const NnCircle> circles,
                              const InfluenceMeasure& measure, int num_blocks,
                              const Rect& domain, int width, int height,
                              const TileWindow& w, ColumnRasterStats* stats) {
  RNNHM_CHECK_MSG(!w.empty(), "empty tiles have no fragment");
  // The fragment's own domain is decorative (painting goes through the
  // global axes); use the tile's coordinate cell when it is representable,
  // else fall back to the full domain.
  const double dx = (domain.hi.x - domain.lo.x) / width;
  const double dy = (domain.hi.y - domain.lo.y) / height;
  Rect frag_domain{{domain.lo.x + w.col_lo * dx, domain.lo.y + w.row_lo * dy},
                   {domain.lo.x + w.col_hi * dx, domain.lo.y + w.row_hi * dy}};
  if (!(frag_domain.lo.x < frag_domain.hi.x &&
        frag_domain.lo.y < frag_domain.hi.y)) {
    frag_domain = domain;
  }
  HeatmapGrid fragment(w.width(), w.height(), frag_domain,
                       measure.Evaluate({}));
  const std::vector<const InfluenceMeasure*> measures(num_blocks, &measure);
  const PixelAxis cols = ColumnAxis(domain, width);
  const PixelAxis rows = RowAxis(domain, height);
  const ColumnRasterStats s = RasterizeColumns(
      metric, circles, measures, cols, rows, w, w.col_lo, w.row_lo, &fragment);
  if (stats != nullptr) *stats += s;
  return fragment;
}

void StitchFragment(const TileWindow& window, const HeatmapGrid& fragment,
                    HeatmapGrid* out) {
  RNNHM_CHECK(fragment.width() == window.width() &&
              fragment.height() == window.height());
  RNNHM_CHECK(window.col_hi <= out->width() && window.row_hi <= out->height());
  for (int j = 0; j < fragment.height(); ++j) {
    const double* src = fragment.Row(j);
    double* dst = out->Row(window.row_lo + j) + window.col_lo;
    std::copy(src, src + fragment.width(), dst);
  }
}

}  // namespace rnnhm
