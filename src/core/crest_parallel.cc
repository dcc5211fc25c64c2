#include "core/crest_parallel.h"

#include <algorithm>
#include <thread>

#include "common/check.h"
#include "nn/nn_circle_builder.h"

namespace rnnhm {

namespace {

// Slab boundaries at event quantiles: every vertical side is an event, so
// splitting their sorted order evenly balances per-shard event counts.
std::vector<double> SlabBoundaries(const std::vector<ColoredRect>& rects,
                                   size_t shards) {
  std::vector<double> xs;
  xs.reserve(rects.size() * 2);
  for (const ColoredRect& r : rects) {
    xs.push_back(r.box.lo.x);
    xs.push_back(r.box.hi.x);
  }
  std::sort(xs.begin(), xs.end());
  std::vector<double> bounds;
  bounds.reserve(shards + 1);
  bounds.push_back(xs.front());
  for (size_t s = 1; s < shards; ++s) {
    bounds.push_back(xs[xs.size() * s / shards]);
  }
  bounds.push_back(xs.back());
  // Collapse duplicate boundaries (heavy ties); empty slabs then no-op.
  return bounds;
}

}  // namespace

CrestStats RunCrestParallel(
    const std::vector<NnCircle>& circles,
    std::span<const InfluenceMeasure* const> shard_measures,
    std::span<RegionLabelSink* const> shard_sinks,
    const CrestOptions& options) {
  RNNHM_CHECK_MSG(!shard_sinks.empty(), "need at least one shard sink");
  RNNHM_CHECK_MSG(shard_measures.size() == shard_sinks.size(),
                  "one measure per shard");
  const size_t shards = shard_sinks.size();

  std::vector<ColoredRect> rects;
  rects.reserve(circles.size());
  size_t skipped = 0;
  for (const NnCircle& c : circles) {
    if (c.radius > 0.0) {
      rects.push_back(ColoredRect{c.Bounds(), c.client});
    } else {
      ++skipped;
    }
  }
  if (rects.empty() || shards == 1) {
    CrestStats stats = RunRegionColoring(rects, *shard_measures[0],
                                         shard_sinks[0], options);
    stats.num_skipped_circles += skipped;
    return stats;
  }

  const std::vector<double> bounds = SlabBoundaries(rects, shards);
  std::vector<CrestStats> shard_stats(shards);
  std::vector<std::thread> workers;
  workers.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    workers.emplace_back([&, s] {
      const double lo = bounds[s];
      const double hi = bounds[s + 1];
      if (!(lo < hi)) return;  // duplicate boundary -> empty slab
      std::vector<ColoredRect> clipped;
      for (const ColoredRect& r : rects) {
        const double cl = std::max(r.box.lo.x, lo);
        const double ch = std::min(r.box.hi.x, hi);
        if (cl < ch) {
          clipped.push_back(ColoredRect{
              Rect{{cl, r.box.lo.y}, {ch, r.box.hi.y}}, r.client});
        }
      }
      shard_stats[s] = RunRegionColoring(clipped, *shard_measures[s],
                                         shard_sinks[s], options);
    });
  }
  for (std::thread& t : workers) t.join();

  CrestStats total;
  total.num_circles = rects.size();
  total.num_skipped_circles = skipped;
  for (const CrestStats& s : shard_stats) {
    total.num_events += s.num_events;
    total.num_labelings += s.num_labelings;
    total.num_merged_intervals += s.num_merged_intervals;
    total.num_elements_walked += s.num_elements_walked;
  }
  return total;
}

CrestStats RunCrestParallel(const std::vector<NnCircle>& circles,
                            const InfluenceMeasure& measure,
                            std::span<RegionLabelSink* const> shard_sinks,
                            const CrestOptions& options) {
  std::vector<const InfluenceMeasure*> measures(shard_sinks.size(),
                                                &measure);
  return RunCrestParallel(circles,
                          std::span<const InfluenceMeasure* const>(measures),
                          shard_sinks, options);
}

MetricSweepStats RunCrestParallelMetric(
    Metric metric, const std::vector<NnCircle>& circles,
    const InfluenceMeasure& measure,
    std::span<RegionLabelSink* const> shard_sinks,
    const CrestOptions& crest_options, const CrestL2Options& l2_options) {
  MetricSweepStats stats;
  switch (metric) {
    case Metric::kLInf:
      stats.crest =
          RunCrestParallel(circles, measure, shard_sinks, crest_options);
      break;
    case Metric::kL1:
      stats.crest = RunCrestParallel(RotateCirclesToLInf(circles), measure,
                                     shard_sinks, crest_options);
      break;
    case Metric::kL2:
      stats.l2 =
          RunCrestL2Parallel(circles, measure, shard_sinks, l2_options);
      break;
  }
  return stats;
}

}  // namespace rnnhm
