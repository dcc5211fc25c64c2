// Exact area-weighted influence distribution.
//
// Consumes the region labels of a CREST-A sweep (RunCrest with
// CrestOptions::use_changed_intervals = false), which relabels every valid
// pair in every strip, so its label rectangles tile the arrangement
// exactly; accumulates, per influence value, the exact area where that
// influence holds. Answers exploration questions
// a point-sampled raster can only approximate: "what fraction of the city
// would a facility at influence >= v cover?", "what is the area-weighted
// p99 influence?". O(#labels) time, O(#distinct influences) memory.
#ifndef RNNHM_HEATMAP_HISTOGRAM_H_
#define RNNHM_HEATMAP_HISTOGRAM_H_

#include <map>

#include "core/label_sink.h"

namespace rnnhm {

/// Label sink accumulating exact area per influence value.
class AreaHistogramSink : public RegionLabelSink {
 public:
  void OnRegionLabel(const Rect& subregion, std::span<const int32_t> rnn,
                     double influence) override;

  /// Exact area per influence value (only values that occur).
  const std::map<double, double>& area_by_influence() const {
    return areas_;
  }

  /// Total area covered by labels (the swept arrangement's extent).
  double TotalArea() const;

  /// Area with influence >= threshold.
  double AreaAtLeast(double threshold) const;

  /// Smallest influence v such that the area with influence >= v is at
  /// most `fraction` of the total (an area-weighted upper quantile).
  /// Returns 0 for an empty histogram.
  double QuantileInfluence(double fraction) const;

 private:
  std::map<double, double> areas_;
};

}  // namespace rnnhm

#endif  // RNNHM_HEATMAP_HISTOGRAM_H_
