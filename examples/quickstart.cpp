// Quickstart: build an RNN heat map for a handful of clients and
// facilities, print every influential region, and write a PPM image.
//
//   $ ./examples/quickstart
//
// Walks the whole public API surface: NN-circle computation, the CREST
// sweep, an influence measure, post-processing, rasterization, and the
// serving API v2 (registered circle-set handles + the batched engine).
#include <cstdio>

#include "core/crest.h"
#include "data/generators.h"
#include "heatmap/ascii.h"
#include "heatmap/heatmap.h"
#include "heatmap/image.h"
#include "heatmap/influence.h"
#include "heatmap/postprocess.h"
#include "nn/nn_circle_builder.h"
#include "query/heatmap_engine.h"

using namespace rnnhm;

int main() {
  // 1. A toy city: 40 clients, 5 facilities, uniformly scattered.
  Rng rng(2016);
  const Rect domain{{0, 0}, {1, 1}};
  const std::vector<Point> clients = GenerateUniform(40, domain, rng);
  const std::vector<Point> facilities = GenerateUniform(5, domain, rng);

  // 2. NN-circles: for each client, the circle reaching its nearest
  //    facility (L1 metric, as a courier would drive).
  const std::vector<NnCircle> circles =
      BuildNnCircles(clients, facilities, Metric::kL1);

  // 3. Sweep: label every region of the arrangement with its influence
  //    (here simply the size of the RNN set).
  SizeInfluence measure;
  RegionQuerySink regions;
  const CrestStats stats = RunCrestL1(circles, measure, &regions);
  std::printf("swept %zu NN-circles, %zu events, %zu region labelings\n",
              stats.num_circles, stats.num_events, stats.num_labelings);

  // 4. Post-processing: the five most influential regions.
  std::printf("\ntop-5 regions by influence:\n");
  for (const InfluentialRegion& r : regions.TopK(5)) {
    std::printf("  influence %.0f, RNN set {", r.influence);
    for (size_t i = 0; i < r.rnn.size(); ++i) {
      std::printf("%s%d", i ? ", " : "", r.rnn[i]);
    }
    std::printf("}\n");
  }

  // 5. A heat-map image of the whole space (plus a terminal preview).
  const HeatmapGrid grid =
      BuildHeatmapForMetric(Metric::kL1,
                            BuildNnCircles(clients, facilities, Metric::kL1),
                            measure, domain, 512, 512);
  std::printf("\n%s", RenderAscii(grid, 64, 20).c_str());
  if (WritePpm(grid, "quickstart_heatmap.ppm")) {
    std::printf("\nwrote quickstart_heatmap.ppm (max influence %.0f)\n",
                grid.MaxValue());
  }

  // 6. Serving at scale (API v2): HeatmapEngine batches independent
  //    requests across a worker pool. Each what-if circle set is
  //    registered once in the engine's CircleSetRegistry; the requests
  //    carry only a handle (id + content hash), so nothing is copied per
  //    submit and the result cache keys off the handle directly. Output
  //    is bit-identical to running each sweep sequentially.
  HeatmapEngineOptions engine_options;
  engine_options.num_threads = 2;
  engine_options.cache_bytes = 8 << 20;  // memoize repeated what-ifs
  HeatmapEngine engine(measure, engine_options);
  std::vector<HeatmapRequestV2> batch;
  for (size_t drop = 0; drop < 4; ++drop) {
    std::vector<Point> remaining;
    for (size_t f = 0; f < facilities.size(); ++f) {
      if (f != drop) remaining.push_back(facilities[f]);
    }
    const CircleSetHandle handle = engine.registry().Register(
        BuildNnCircles(clients, remaining, Metric::kLInf), Metric::kLInf);
    batch.push_back(HeatmapRequestV2{handle, domain, 128, 128});
  }
  const std::vector<HeatmapResponse> what_ifs = engine.RunBatch(batch);
  std::printf("\nwhat-if analysis (remove one facility, L-inf):\n");
  for (size_t drop = 0; drop < what_ifs.size(); ++drop) {
    std::printf("  without facility %zu: max influence %.0f\n", drop,
                what_ifs[drop].grid.MaxValue());
  }

  // 7. Re-running a what-if is free: the handle's content hash finds the
  //    memoized response, bit-identical to the sweep above.
  const HeatmapResponse again = engine.Execute(batch[0]);
  std::printf("re-running what-if 0: %s (max influence %.0f)\n",
              again.from_cache ? "served from cache" : "recomputed",
              again.grid.MaxValue());
  return 0;
}
