// Heat-map grids and end-to-end heat-map construction.
//
// A HeatmapGrid is a dense raster of influence values over a rectangular
// domain. Every builder evaluates the RNN set at each pixel center:
//   * the column kernel (heatmap/column_raster.h) for all three metrics —
//     L∞ squares, L1 diamonds and L2 disks in the original frame, exact
//     at pixel centers;
//   * brute-force per-pixel evaluation, the definitional oracle.
#ifndef RNNHM_HEATMAP_HEATMAP_H_
#define RNNHM_HEATMAP_HEATMAP_H_

#include <cstdint>
#include <vector>

#include "core/influence_measure.h"
#include "geom/geometry.h"

namespace rnnhm {

/// Dense raster of influence values over `domain`. Pixel (i, j) covers the
/// cell [lo.x + i*dx, lo.x + (i+1)*dx] x [lo.y + j*dy, ...]; values are
/// point samples at cell centers.
class HeatmapGrid {
 public:
  HeatmapGrid(int width, int height, const Rect& domain,
              double background = 0.0);

  /// Adopts `values`: width * height of them, row-major.
  HeatmapGrid(int width, int height, const Rect& domain,
              std::vector<double> values);

  int width() const { return width_; }
  int height() const { return height_; }
  const Rect& domain() const { return domain_; }

  double& At(int i, int j) { return values_[Index(i, j)]; }
  double At(int i, int j) const { return values_[Index(i, j)]; }

  /// Raw pointer to row j (width() consecutive values) — the unchecked
  /// accessor the raster hot loops use; pixel (i, j) is Row(j)[i].
  double* Row(int j) { return values_.data() + static_cast<size_t>(j) * width_; }
  const double* Row(int j) const {
    return values_.data() + static_cast<size_t>(j) * width_;
  }

  /// Raw pointer to the full row-major value array (height() * width()).
  double* data() { return values_.data(); }
  const double* data() const { return values_.data(); }

  /// Center of pixel (i, j).
  Point PixelCenter(int i, int j) const;

  /// Value of the pixel containing p (clamped to the domain).
  double Sample(const Point& p) const;

  /// Maximum stored value.
  double MaxValue() const;

  const std::vector<double>& values() const { return values_; }

 private:
  size_t Index(int i, int j) const {
    return static_cast<size_t>(j) * width_ + i;
  }

  int width_;
  int height_;
  Rect domain_;
  std::vector<double> values_;
};

/// Builds the heat map of `circles` (NN-circles built under `metric`)
/// through the column kernel: every pixel's value is the influence of the
/// circles containing its center (NnCircle::Contains), so the result
/// equals BuildHeatmapBruteForce for measures whose value does not depend
/// on RNN-set iteration order. `num_blocks` contiguous column blocks are
/// painted on their own threads sharing `measure` (which must then be
/// safe for concurrent Evaluate); the output is identical for every
/// block count. This is the single recipe the engine, the session's full
/// rebuilds, tiles and verification tools share.
HeatmapGrid BuildHeatmapForMetric(Metric metric,
                                  const std::vector<NnCircle>& circles,
                                  const InfluenceMeasure& measure,
                                  const Rect& domain, int width, int height,
                                  int num_blocks = 1);

/// Per-metric shorthands for BuildHeatmapForMetric; the *Parallel forms
/// take the column-block count.
HeatmapGrid BuildHeatmapLInf(const std::vector<NnCircle>& circles,
                             const InfluenceMeasure& measure,
                             const Rect& domain, int width, int height);
HeatmapGrid BuildHeatmapLInfParallel(const std::vector<NnCircle>& circles,
                                     const InfluenceMeasure& measure,
                                     const Rect& domain, int width,
                                     int height, int num_blocks);
HeatmapGrid BuildHeatmapL1Parallel(const std::vector<NnCircle>& l1_circles,
                                   const InfluenceMeasure& measure,
                                   const Rect& domain, int width, int height,
                                   int num_blocks);
HeatmapGrid BuildHeatmapL2(const std::vector<NnCircle>& circles,
                           const InfluenceMeasure& measure,
                           const Rect& domain, int width, int height);
HeatmapGrid BuildHeatmapL2Parallel(const std::vector<NnCircle>& circles,
                                   const InfluenceMeasure& measure,
                                   const Rect& domain, int width, int height,
                                   int num_blocks);

/// Reference builder: evaluates the RNN set of every pixel center directly.
/// O(width * height * n); use for tests and small showcases only.
HeatmapGrid BuildHeatmapBruteForce(const std::vector<NnCircle>& circles,
                                   Metric metric,
                                   const InfluenceMeasure& measure,
                                   const Rect& domain, int width, int height);

/// Axis-aligned bounding box of a point set, optionally padded by a
/// fraction of the larger extent.
Rect BoundingBox(const std::vector<Point>& points, double pad_fraction = 0.0);

}  // namespace rnnhm

#endif  // RNNHM_HEATMAP_HEATMAP_H_
