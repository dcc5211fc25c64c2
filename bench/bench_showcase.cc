// Fig. 1 / Fig. 15 + Table II: real-world heat-map showcase.
//
// Builds the NYC and LA heat maps exactly as Section VIII-A: 20,000
// sampled clients, 6,000 sampled facilities, influence = RNN set size,
// and writes heatmap_nyc.ppm / heatmap_la.ppm. Also prints Table II
// (data set inventory) and summary statistics of each map.
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "core/crest.h"
#include "heatmap/heatmap.h"
#include "nn/nn_circle_builder.h"
#include "heatmap/image.h"
#include "heatmap/influence.h"
#include "heatmap/postprocess.h"

using namespace rnnhm;
using namespace rnnhm::bench;

int main() {
  const bool full = FullMode();
  const size_t num_clients = full ? 20000 : 8000;   // paper: 20,000
  const size_t num_facilities = full ? 6000 : 2400; // paper: 6,000
  const int resolution = full ? 1024 : 512;

  std::printf("=== Table II: data sets ===\n");
  std::printf("%-8s %10s  %s\n", "Name", "Size", "Description");
  for (const DatasetKind kind :
       {DatasetKind::kNyc, DatasetKind::kLa}) {
    const Dataset ds = MakeDataset(kind, /*seed=*/1);
    std::printf("%-8s %10zu  %s\n", ds.name.c_str(), ds.points.size(),
                ds.description.c_str());
  }

  std::printf("\n=== Fig. 1 / Fig. 15: RNN heat maps "
              "(|O| = %zu, |F| = %zu, L1) ===\n",
              num_clients, num_facilities);
  SizeInfluence measure;
  for (const DatasetKind kind : {DatasetKind::kNyc, DatasetKind::kLa}) {
    const Dataset ds = MakeDataset(kind, /*seed=*/1);
    const Workload w =
        SampleWorkload(ds, num_clients, num_facilities, /*seed=*/1);
    Stopwatch sw;
    const Rect domain = BoundingBox(ds.points, 0.005);
    const HeatmapGrid grid = BuildHeatmapForMetric(
        Metric::kL1, BuildNnCircles(w.clients, w.facilities, Metric::kL1),
        measure, domain, resolution, resolution);
    const double build_ms = sw.ElapsedMs();

    // Region statistics via the sweep's label stream.
    const auto circles = BuildNnCircles(w.clients, w.facilities, Metric::kL1);
    RegionQuerySink regions;
    MaxInfluenceSink max_sink;
    TeeSink tee({&regions, &max_sink});
    const CrestStats stats = RunCrestL1(circles, measure, &tee);

    const std::string path =
        std::string("heatmap_") + (kind == DatasetKind::kNyc ? "nyc" : "la") +
        ".ppm";
    const bool ok = WritePpm(grid, path);
    std::printf(
        "%-4s heat map: %dx%d px in %.0f ms | %zu labelings, %zu distinct "
        "RNN sets, max influence %.0f | %s %s\n",
        ds.name.c_str(), resolution, resolution, build_ms,
        stats.num_labelings, regions.NumDistinctSets(),
        max_sink.max_influence(), ok ? "wrote" : "FAILED to write",
        path.c_str());
  }
  return 0;
}
