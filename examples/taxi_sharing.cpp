// The taxi-sharing scenario of Fig. 3: why superimposition fails.
//
// Clients are app users waiting for taxis, facilities are taxis. Drivers
// profit from picking up *connected* passengers (close destinations), so
// the influence of a location is the number of destination edges inside its
// RNN set — a measure superimposition cannot express.
//
//   $ ./examples/taxi_sharing
#include <cstdio>

#include "core/crest.h"
#include "data/generators.h"
#include "heatmap/heatmap.h"
#include "heatmap/image.h"
#include "heatmap/influence.h"
#include "heatmap/postprocess.h"
#include "heatmap/superimposition.h"
#include "nn/nn_circle_builder.h"

using namespace rnnhm;

int main() {
  Rng rng(42);
  const Rect domain{{0, 0}, {1, 1}};
  // 60 waiting passengers, 8 taxis.
  const std::vector<Point> passengers = GenerateUniform(60, domain, rng);
  const std::vector<Point> taxis = GenerateUniform(8, domain, rng);

  // Destination graph: passengers whose destinations are within 1 km.
  // Synthesize destinations and connect close pairs.
  std::vector<Point> destinations = GenerateUniform(60, domain, rng);
  std::vector<std::pair<int32_t, int32_t>> edges;
  for (int32_t i = 0; i < 60; ++i) {
    for (int32_t j = i + 1; j < 60; ++j) {
      if (DistanceL2(destinations[i], destinations[j]) < 0.15) {
        edges.push_back({i, j});
      }
    }
  }
  std::printf("%zu destination edges among 60 passengers\n", edges.size());

  const auto circles = BuildNnCircles(passengers, taxis, Metric::kL1);
  ConnectivityInfluence connected(60, edges);

  // True heat map under the connectivity measure.
  RegionQuerySink regions;
  RunCrestL1(circles, connected, &regions);
  const auto top = regions.TopK(3);
  std::printf("\nbest pick-up regions (connected-passenger count):\n");
  for (const auto& r : top) {
    std::printf("  %.0f connected pairs among %zu passengers\n", r.influence,
                r.rnn.size());
  }

  // The superimposition ranks by circle depth instead — compare the
  // passenger count of its densest cell with the true best.
  const HeatmapGrid overlay =
      BuildSuperimposition(circles, Metric::kL1, domain, 256, 256);
  SizeInfluence size_measure;
  RegionQuerySink by_size;
  RunCrestL1(circles, size_measure, &by_size);
  const auto densest = by_size.TopK(1);
  std::printf(
      "\nsuperimposition's darkest region holds %zu passengers "
      "(overlay max depth %.0f)\n",
      densest.empty() ? 0 : densest[0].rnn.size(), overlay.MaxValue());
  if (!top.empty() && !densest.empty()) {
    const double true_heat_of_densest = connected.Evaluate(densest[0].rnn);
    std::printf(
        "connectivity heat of that region: %.0f vs optimum %.0f -> "
        "superimposition %s\n",
        true_heat_of_densest, top[0].influence,
        true_heat_of_densest < top[0].influence ? "picks a worse region"
                                                : "got lucky this time");
  }

  // Render both maps for visual comparison.
  const HeatmapGrid heat = BuildHeatmapForMetric(
      Metric::kL1, BuildNnCircles(passengers, taxis, Metric::kL1), connected,
      domain, 512, 512);
  WritePpm(heat, "taxi_heatmap.ppm");
  WritePpm(overlay, "taxi_superimposition.ppm");
  std::printf("\nwrote taxi_heatmap.ppm and taxi_superimposition.ppm\n");
  return 0;
}
