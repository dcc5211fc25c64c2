// The courier scenario of the Introduction: choosing self-pickup service
// point locations under capacity constraints.
//
// Existing service points have limited storage; the influence of a new
// location p is the total number of served clients across all facilities
// after p opens: sum over f of min{c(f), |R(f)|} (the measure of [22]).
//
//   $ ./examples/courier_capacity
#include <cstdio>

#include "common/rng.h"
#include "core/crest.h"
#include "data/dataset.h"
#include "heatmap/heatmap.h"
#include "heatmap/image.h"
#include "heatmap/influence.h"
#include "heatmap/postprocess.h"
#include "index/kdtree.h"
#include "nn/nn_circle_builder.h"

using namespace rnnhm;

int main() {
  // City data: potential clients and existing service points.
  const Dataset city = MakeDataset(DatasetKind::kNyc, 2016, 20000);
  const Workload w = SampleWorkload(city, 3000, 120, 7);
  std::printf("%zu clients, %zu existing service points\n",
              w.clients.size(), w.facilities.size());

  // Capacity-constrained influence: client -> current NN assignment plus
  // per-facility storage capacities.
  KdTree ftree(w.facilities);
  std::vector<int32_t> client_nn;
  client_nn.reserve(w.clients.size());
  for (const Point& c : w.clients) {
    client_nn.push_back(ftree.Nearest(c, Metric::kL1).index);
  }
  Rng rng(99);
  std::vector<int32_t> capacities;
  for (size_t f = 0; f < w.facilities.size(); ++f) {
    capacities.push_back(10 + static_cast<int32_t>(rng.NextBounded(30)));
  }
  const int32_t new_point_capacity = 40;
  CapacityInfluence measure(client_nn, capacities, new_point_capacity);
  std::printf("served clients today (no new point): %.0f\n",
              measure.Evaluate({}));

  // Sweep and query the most valuable regions for the new service point.
  const auto circles = BuildNnCircles(w.clients, w.facilities, Metric::kL1);
  RegionQuerySink regions;
  const CrestStats stats = RunCrestL1(circles, measure, &regions);
  std::printf("%zu regions labeled across %zu events\n",
              stats.num_labelings, stats.num_events);

  std::printf("\ntop-5 locations by total served clients after opening:\n");
  for (const auto& r : regions.TopK(5)) {
    // Witness rectangles are in the rotated sweep frame; report the
    // original-frame location.
    const Point rotated_center = r.representative.Center();
    const Point site = RotateFromLInf(rotated_center);
    std::printf("  (%.4f, %.4f): serves %.0f clients (steals %zu)\n",
                site.x, site.y, r.influence, r.rnn.size());
  }

  // Threshold query: all regions improving on the status quo by >= 30.
  const double today = measure.Evaluate({});
  const auto good = regions.AboveThreshold(today + 30);
  std::printf("\n%zu candidate regions add at least 30 served clients\n",
              good.size());

  // Render the capacity heat map.
  const Rect domain = BoundingBox(city.points, 0.01);
  const HeatmapGrid grid =
      BuildHeatmapForMetric(Metric::kL1,
                            BuildNnCircles(w.clients, w.facilities, Metric::kL1),
                            measure, domain, 512, 512);
  WritePpm(grid, "courier_heatmap.ppm");
  std::printf("wrote courier_heatmap.ppm\n");
  return 0;
}
