// Influence exploration over a whole city (the Fig. 1 / Fig. 15 workflow):
// build the full heat map, then interactively narrow down: threshold
// filter, top-k, and a zoom into the hottest district.
//
//   $ ./examples/city_explorer [clients] [facilities]
#include <cstdio>
#include <cstdlib>

#include "core/crest.h"
#include "data/dataset.h"
#include "heatmap/heatmap.h"
#include "heatmap/image.h"
#include "heatmap/influence.h"
#include "heatmap/postprocess.h"
#include "nn/nn_circle_builder.h"

using namespace rnnhm;

int main(int argc, char** argv) {
  const size_t num_clients = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                      : 20000;
  const size_t num_facilities =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 6000;

  // The paper's showcase sampling: 20,000 clients, 6,000 facilities.
  const Dataset city = MakeDataset(DatasetKind::kNyc, 1, 0);
  std::printf("%s: %zu points (%s)\n", city.name.c_str(),
              city.points.size(), city.description.c_str());
  const Workload w = SampleWorkload(city, num_clients, num_facilities, 1);

  SizeInfluence measure;
  const auto circles = BuildNnCircles(w.clients, w.facilities, Metric::kL1);
  RegionQuerySink regions;
  MaxInfluenceSink max_sink;
  TeeSink tee({&regions, &max_sink});
  const CrestStats stats = RunCrestL1(circles, measure, &tee);
  std::printf("swept %zu circles, %zu labelings, %zu distinct RNN sets\n",
              stats.num_circles, stats.num_labelings,
              regions.NumDistinctSets());
  std::printf("max influence anywhere: %.0f clients\n",
              max_sink.max_influence());

  // Interactive-style narrowing.
  const auto top = regions.TopK(10);
  std::printf("\ntop-10 influence values:");
  for (const auto& r : top) std::printf(" %.0f", r.influence);
  std::printf("\n");
  const double tau = max_sink.max_influence() * 0.8;
  std::printf("regions above 80%% of max (%.0f): %zu\n", tau,
              regions.AboveThreshold(tau).size());

  // Full-city heat map + zoom into the hottest region's neighborhood.
  const Rect domain = BoundingBox(city.points, 0.005);
  const HeatmapGrid overview =
      BuildHeatmapForMetric(Metric::kL1, circles, measure, domain, 640, 640);
  WritePpm(overview, "city_overview.ppm");
  if (!top.empty()) {
    const Point hot = RotateFromLInf(top[0].representative.Center());
    const double zoom = (domain.hi.x - domain.lo.x) * 0.06;
    const Rect window{{hot.x - zoom, hot.y - zoom},
                      {hot.x + zoom, hot.y + zoom}};
    const HeatmapGrid detail =
        BuildHeatmapForMetric(Metric::kL1, circles, measure, window, 512, 512);
    WritePpm(detail, "city_zoom.ppm");
    std::printf("\nwrote city_overview.ppm and city_zoom.ppm (zoom at "
                "%.4f, %.4f)\n", hot.x, hot.y);
  }
  return 0;
}
