#include "geom/geometry.h"

#include <algorithm>
#include <cmath>

namespace rnnhm {

std::string MetricName(Metric metric) {
  switch (metric) {
    case Metric::kLInf:
      return "Linf";
    case Metric::kL1:
      return "L1";
    case Metric::kL2:
      return "L2";
  }
  return "?";
}

Rect Rect::Union(const Rect& o) const {
  return Rect{{std::min(lo.x, o.lo.x), std::min(lo.y, o.lo.y)},
              {std::max(hi.x, o.hi.x), std::max(hi.y, o.hi.y)}};
}

double Rect::Area() const {
  const double w = hi.x - lo.x;
  const double h = hi.y - lo.y;
  if (w <= 0.0 || h <= 0.0) return 0.0;
  return w * h;
}

double Rect::Enlargement(const Rect& o) const {
  return Union(o).Area() - Area();
}

double Rect::MinDistanceL2(const Point& p) const {
  const double dx = std::max({lo.x - p.x, 0.0, p.x - hi.x});
  const double dy = std::max({lo.y - p.y, 0.0, p.y - hi.y});
  return std::sqrt(dx * dx + dy * dy);
}

Rect EmptyRect() {
  const double inf = std::numeric_limits<double>::infinity();
  return Rect{{inf, inf}, {-inf, -inf}};
}

bool IsFinite(const NnCircle& circle) {
  return std::isfinite(circle.center.x) && std::isfinite(circle.center.y) &&
         std::isfinite(circle.radius);
}

bool IsFinite(const Rect& rect) {
  return std::isfinite(rect.hi.x - rect.lo.x) &&
         std::isfinite(rect.hi.y - rect.lo.y);
}

Point RotateToLInf(const Point& p) {
  // Rotation by pi/4: x' = (x - y)/sqrt(2), y' = (x + y)/sqrt(2).
  constexpr double kInvSqrt2 = 0.7071067811865475244;
  return Point{(p.x - p.y) * kInvSqrt2, (p.x + p.y) * kInvSqrt2};
}

Point RotateFromLInf(const Point& p) {
  constexpr double kInvSqrt2 = 0.7071067811865475244;
  return Point{(p.x + p.y) * kInvSqrt2, (p.y - p.x) * kInvSqrt2};
}

}  // namespace rnnhm
