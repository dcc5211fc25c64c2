// Parallel scaling of L2 heat maps: one big workload with 1/2/4/8 shards,
// for the label path (the slab-decomposed arc sweep into counting sinks)
// and the raster path (the column kernel's column blocks). The 1-shard
// column is the sequential reference; the speedup column reports its
// ratio to the cell.
//
// Set RNNHM_BENCH_FULL=1 for the larger workload.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/crest_l2.h"
#include "heatmap/heatmap.h"
#include "heatmap/influence.h"

namespace rnnhm::bench {
namespace {

void Run() {
  const bool full = FullMode();
  const size_t clients = full ? 20000 : 2000;
  const size_t facilities = clients / 25;
  const int resolution = full ? 1024 : 256;
  const Dataset dataset =
      MakeDataset(DatasetKind::kUniform, 7, clients * 4);
  const PreparedWorkload w =
      Prepare(dataset, clients, facilities, Metric::kL2, 1234);
  SizeInfluence measure;
  const Rect domain{{0, 0}, {1, 1}};

  std::printf("L2 arc sweep, %zu clients, %zu facilities, %dx%d raster\n\n",
              clients, facilities, resolution, resolution);
  PrintHeader("shards", {"labels", "raster"});
  double label_base = 0.0;
  double raster_base = 0.0;
  for (const int shards : {1, 2, 4, 8}) {
    std::vector<Cell> row;
    Cell labels;
    labels.ms = TimeMs([&] {
      std::vector<CountingSink> sinks(shards);
      std::vector<RegionLabelSink*> ptrs;
      for (auto& s : sinks) ptrs.push_back(&s);
      RunCrestL2Parallel(w.circles, measure, ptrs);
    });
    row.push_back(labels);
    Cell raster;
    raster.ms = TimeMs([&] {
      BuildHeatmapL2Parallel(w.circles, measure, domain, resolution,
                             resolution, shards);
    });
    row.push_back(raster);
    if (shards == 1) {
      label_base = labels.ms;
      raster_base = raster.ms;
    }
    PrintRow(std::to_string(shards), row);
    std::printf("%-12s %13.2fx %13.2fx\n", "  speedup",
                labels.ms > 0 ? label_base / labels.ms : 0.0,
                raster.ms > 0 ? raster_base / raster.ms : 0.0);
  }
}

}  // namespace
}  // namespace rnnhm::bench

int main() {
  rnnhm::bench::Run();
  return 0;
}
