#include "heatmap/heatmap.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "core/brute_force.h"
#include "heatmap/column_raster.h"

namespace rnnhm {

HeatmapGrid::HeatmapGrid(int width, int height, const Rect& domain,
                         double background)
    : width_(width), height_(height), domain_(domain) {
  RNNHM_CHECK(width > 0 && height > 0);
  RNNHM_CHECK(domain.lo.x < domain.hi.x && domain.lo.y < domain.hi.y);
  values_.assign(static_cast<size_t>(width) * height, background);
}

HeatmapGrid::HeatmapGrid(int width, int height, const Rect& domain,
                         std::vector<double> values)
    : width_(width), height_(height), domain_(domain),
      values_(std::move(values)) {
  RNNHM_CHECK(width > 0 && height > 0);
  RNNHM_CHECK(domain.lo.x < domain.hi.x && domain.lo.y < domain.hi.y);
  RNNHM_CHECK(values_.size() == static_cast<size_t>(width) * height);
}

Point HeatmapGrid::PixelCenter(int i, int j) const {
  const double dx = (domain_.hi.x - domain_.lo.x) / width_;
  const double dy = (domain_.hi.y - domain_.lo.y) / height_;
  return Point{domain_.lo.x + (i + 0.5) * dx, domain_.lo.y + (j + 0.5) * dy};
}

double HeatmapGrid::Sample(const Point& p) const {
  const double dx = (domain_.hi.x - domain_.lo.x) / width_;
  const double dy = (domain_.hi.y - domain_.lo.y) / height_;
  int i = static_cast<int>((p.x - domain_.lo.x) / dx);
  int j = static_cast<int>((p.y - domain_.lo.y) / dy);
  i = std::clamp(i, 0, width_ - 1);
  j = std::clamp(j, 0, height_ - 1);
  return At(i, j);
}

double HeatmapGrid::MaxValue() const {
  double m = 0.0;
  for (const double v : values_) m = std::max(m, v);
  return m;
}

HeatmapGrid BuildHeatmapForMetric(Metric metric,
                                  const std::vector<NnCircle>& circles,
                                  const InfluenceMeasure& measure,
                                  const Rect& domain, int width, int height,
                                  int num_blocks) {
  HeatmapGrid grid(width, height, domain, measure.Evaluate({}));
  RasterizeGrid(metric, circles, measure, num_blocks, &grid);
  return grid;
}

HeatmapGrid BuildHeatmapLInf(const std::vector<NnCircle>& circles,
                             const InfluenceMeasure& measure,
                             const Rect& domain, int width, int height) {
  return BuildHeatmapForMetric(Metric::kLInf, circles, measure, domain, width,
                               height);
}

HeatmapGrid BuildHeatmapLInfParallel(const std::vector<NnCircle>& circles,
                                     const InfluenceMeasure& measure,
                                     const Rect& domain, int width,
                                     int height, int num_blocks) {
  return BuildHeatmapForMetric(Metric::kLInf, circles, measure, domain, width,
                               height, num_blocks);
}

HeatmapGrid BuildHeatmapL1Parallel(const std::vector<NnCircle>& l1_circles,
                                   const InfluenceMeasure& measure,
                                   const Rect& domain, int width, int height,
                                   int num_blocks) {
  return BuildHeatmapForMetric(Metric::kL1, l1_circles, measure, domain,
                               width, height, num_blocks);
}

HeatmapGrid BuildHeatmapL2(const std::vector<NnCircle>& circles,
                           const InfluenceMeasure& measure,
                           const Rect& domain, int width, int height) {
  return BuildHeatmapForMetric(Metric::kL2, circles, measure, domain, width,
                               height);
}

HeatmapGrid BuildHeatmapL2Parallel(const std::vector<NnCircle>& circles,
                                   const InfluenceMeasure& measure,
                                   const Rect& domain, int width, int height,
                                   int num_blocks) {
  return BuildHeatmapForMetric(Metric::kL2, circles, measure, domain, width,
                               height, num_blocks);
}

HeatmapGrid BuildHeatmapBruteForce(const std::vector<NnCircle>& circles,
                                   Metric metric,
                                   const InfluenceMeasure& measure,
                                   const Rect& domain, int width,
                                   int height) {
  HeatmapGrid grid(width, height, domain, measure.Evaluate({}));
  std::vector<int32_t> rnn;
  for (int i = 0; i < width; ++i) {
    for (int j = 0; j < height; ++j) {
      rnn = BruteForceRnnSet(grid.PixelCenter(i, j), circles, metric);
      grid.At(i, j) = measure.Evaluate(rnn);
    }
  }
  return grid;
}

Rect BoundingBox(const std::vector<Point>& points, double pad_fraction) {
  Rect box = EmptyRect();
  for (const Point& p : points) box = box.Union(Rect{p, p});
  if (pad_fraction > 0.0 && box.Area() >= 0.0 && !points.empty()) {
    const double pad =
        pad_fraction *
        std::max(box.hi.x - box.lo.x, box.hi.y - box.lo.y);
    box.lo.x -= pad;
    box.lo.y -= pad;
    box.hi.x += pad;
    box.hi.y += pad;
  }
  return box;
}

}  // namespace rnnhm
