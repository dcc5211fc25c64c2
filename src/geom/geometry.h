// Planar geometry primitives shared by all modules.
//
// The paper works in a two-dimensional space under three metrics: L-infinity
// (NN-circles are axis-aligned squares), L1 (diamonds; handled by rotating
// the plane by pi/4 into the L-infinity case, Section VII-B) and L2 (disks,
// handled by the arc-based sweep of Section VII-C).
#ifndef RNNHM_GEOM_GEOMETRY_H_
#define RNNHM_GEOM_GEOMETRY_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

namespace rnnhm {

/// Distance metric selector.
enum class Metric { kLInf, kL1, kL2 };

/// Human-readable metric name ("Linf", "L1", "L2").
std::string MetricName(Metric metric);

/// A point in the plane.
struct Point {
  double x = 0.0;
  double y = 0.0;

  friend bool operator==(const Point&, const Point&) = default;
};

/// L-infinity (Chebyshev) distance.
inline double DistanceLInf(const Point& a, const Point& b) {
  return std::max(std::fabs(a.x - b.x), std::fabs(a.y - b.y));
}
/// L1 (Manhattan) distance.
inline double DistanceL1(const Point& a, const Point& b) {
  return std::fabs(a.x - b.x) + std::fabs(a.y - b.y);
}
/// Squared Euclidean distance (avoids the sqrt for comparisons).
inline double DistanceL2Squared(const Point& a, const Point& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}
/// Euclidean distance.
inline double DistanceL2(const Point& a, const Point& b) {
  return std::sqrt(DistanceL2Squared(a, b));
}

/// Distance between two points under the given metric. Defined inline,
/// like the metric-specific forms: NnCircle::Contains is the raster
/// kernel's innermost predicate.
inline double Distance(const Point& a, const Point& b, Metric metric) {
  switch (metric) {
    case Metric::kLInf:
      return DistanceLInf(a, b);
    case Metric::kL1:
      return DistanceL1(a, b);
    case Metric::kL2:
      return DistanceL2(a, b);
  }
  return std::numeric_limits<double>::quiet_NaN();
}

/// Closed axis-aligned rectangle [lo.x, hi.x] x [lo.y, hi.y].
struct Rect {
  Point lo;
  Point hi;

  /// True iff p lies strictly inside the rectangle.
  bool ContainsOpen(const Point& p) const {
    return p.x > lo.x && p.x < hi.x && p.y > lo.y && p.y < hi.y;
  }
  /// True iff p lies in the closed rectangle.
  bool ContainsClosed(const Point& p) const {
    return p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y;
  }
  /// True iff the closed rectangles intersect.
  bool Intersects(const Rect& o) const {
    return lo.x <= o.hi.x && o.lo.x <= hi.x && lo.y <= o.hi.y &&
           o.lo.y <= hi.y;
  }
  /// True iff this rectangle fully contains o.
  bool Contains(const Rect& o) const {
    return lo.x <= o.lo.x && o.hi.x <= hi.x && lo.y <= o.lo.y &&
           o.hi.y <= hi.y;
  }
  /// Smallest rectangle covering both this and o.
  Rect Union(const Rect& o) const;
  /// Center point.
  Point Center() const { return {(lo.x + hi.x) / 2, (lo.y + hi.y) / 2}; }
  /// Area (non-negative; 0 for degenerate rectangles).
  double Area() const;
  /// Half-perimeter growth needed to include o (R-tree insertion heuristic).
  double Enlargement(const Rect& o) const;
  /// Minimum L2 distance from p to the closed rectangle (0 if inside).
  double MinDistanceL2(const Point& p) const;

  friend bool operator==(const Rect&, const Rect&) = default;
};

/// Returns a rectangle guaranteed empty under Union (inverted bounds).
Rect EmptyRect();

/// The NN-circle of a client (Section III-A): center = the client location,
/// radius = distance from the client to its nearest facility, measured in
/// the active metric. `Bounds()` gives the axis-aligned bounding box, which
/// *is* the NN-circle for L-infinity. A negative radius (never produced by
/// the NN-circle builders) denotes a circle that contains no point:
/// Contains is false everywhere, so every sweep and raster skips it.
struct NnCircle {
  Point center;
  double radius = 0.0;
  /// Index of the client in O this circle belongs to.
  int32_t client = -1;

  /// Axis-aligned bounding box of the circle (exact shape for L-infinity).
  Rect Bounds() const {
    return Rect{{center.x - radius, center.y - radius},
                {center.x + radius, center.y + radius}};
  }
  /// True iff q is inside the circle under `metric` (closed: boundary
  /// counts, matching d(o, f) <= d(o, f') in the RNN definition).
  bool Contains(const Point& q, Metric metric) const {
    return Distance(center, q, metric) <= radius;
  }
};

/// True iff the circle's center and radius are finite — the ingress
/// condition the wire decoders and CircleSetRegistry enforce.
bool IsFinite(const NnCircle& circle);

/// True iff the rectangle's corners and extents are finite (an overflowing
/// extent would make the pixel pitch infinite).
bool IsFinite(const Rect& rect);

/// Rotates a point counter-clockwise by pi/4 around the origin.
/// Maps L1 diamonds to L-infinity squares with radius scaled by 1/sqrt(2)
/// (Section VII-B).
Point RotateToLInf(const Point& p);

/// Inverse of RotateToLInf.
Point RotateFromLInf(const Point& p);

}  // namespace rnnhm

#endif  // RNNHM_GEOM_GEOMETRY_H_
