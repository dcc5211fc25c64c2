// Immutable heat-map grids in their compact exact form.
//
// The paper's heat is a count in the common measures: |RNN set| for Size,
// capacities and edge counts for the others. A PackedGrid stores such a
// grid as 16-bit counts — a quarter of the doubles — and any other grid as
// its doubles. The rule is exactness: a grid packs as counts iff every
// value is an integer in [0, 65535] with a clear sign bit. NaN, -0.0,
// infinities, fractions, negatives, subnormals and values above 65535
// keep the doubles, so widening returns every value bit for bit.
//
// The engine packs each map it computes once, in one fused scan
// (PackCounts), and the SweepCache entry and the wire reply share that
// one immutable grid. The wire writes the stored form as-is
// (heatmap/serialization.h, RNHM v2), so a cache hit reaches the socket
// without widening.
#ifndef RNNHM_HEATMAP_PACKED_GRID_H_
#define RNNHM_HEATMAP_PACKED_GRID_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/geometry.h"
#include "heatmap/heatmap.h"

namespace rnnhm {

/// A width x height grid over `domain`, stored as 16-bit counts when every
/// value is an exact count and as doubles otherwise (row-major either way).
class PackedGrid {
 public:
  /// Packs `grid` in one fused scan (see PackCounts).
  static PackedGrid Pack(const HeatmapGrid& grid);

  int width() const { return width_; }
  int height() const { return height_; }
  const Rect& domain() const { return domain_; }
  /// Pixel count, width() * height().
  size_t size() const { return static_cast<size_t>(width_) * height_; }

  /// True when the grid is stored as counts (counts() holds every pixel);
  /// false when it is stored as doubles (values() holds every pixel).
  bool is_counts() const { return !counts_.empty(); }
  const std::vector<uint16_t>& counts() const { return counts_; }
  const std::vector<double>& values() const { return values_; }

  /// The grid as doubles, bit-identical to the grid that was packed.
  HeatmapGrid Unpack() const;

 private:
  PackedGrid(const HeatmapGrid& shape, std::vector<uint16_t> counts,
             std::vector<double> values);

  int width_;
  int height_;
  Rect domain_;
  std::vector<uint16_t> counts_;
  std::vector<double> values_;
};

/// The fused pack scan: converts src[0, n) to 16-bit counts in host byte
/// order at dst[0, 2n) and returns true, or returns false (with dst partly
/// written) once a value is not an exact count. dst needs no alignment.
/// Vectorized with SSE2 on x86-64; both paths apply the same exactness
/// rule, so the result does not depend on the path.
bool PackCounts(const double* src, size_t n, uint8_t* dst);

/// The inverse: dst[k] = the host-order 16-bit count at src[2k, 2k + 2).
void WidenCounts(const uint8_t* src, size_t n, double* dst);

}  // namespace rnnhm

#endif  // RNNHM_HEATMAP_PACKED_GRID_H_
