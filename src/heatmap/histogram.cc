#include "heatmap/histogram.h"

namespace rnnhm {

void AreaHistogramSink::OnRegionLabel(const Rect& subregion,
                                      std::span<const int32_t>,
                                      double influence) {
  const double area = subregion.Area();
  if (area > 0.0) areas_[influence] += area;
}

double AreaHistogramSink::TotalArea() const {
  double total = 0.0;
  for (const auto& [influence, area] : areas_) total += area;
  return total;
}

double AreaHistogramSink::AreaAtLeast(double threshold) const {
  double total = 0.0;
  for (auto it = areas_.lower_bound(threshold); it != areas_.end(); ++it) {
    total += it->second;
  }
  return total;
}

double AreaHistogramSink::QuantileInfluence(double fraction) const {
  if (areas_.empty()) return 0.0;
  const double budget = TotalArea() * fraction;
  double cumulative = 0.0;
  // Walk from the hottest value down until the budget is exhausted.
  for (auto it = areas_.rbegin(); it != areas_.rend(); ++it) {
    cumulative += it->second;
    if (cumulative >= budget) return it->first;
  }
  return areas_.begin()->first;
}

}  // namespace rnnhm
