// Domain tiling: the tile-partitioned raster benchmark.
//
// One phase across the three metrics: one full raster built untiled
// (BuildHeatmapForMetric) vs. the same raster painted window by window
// (TileWindows + PaintTileFragment) and stitched (StitchFragment) at
// several grid sizes. Every window is painted over the whole circle set,
// so the comparison shows what the per-window fixed costs eat. Every
// stitched raster is checked bit-identical to the untiled one — the run
// aborts on any mismatch.
//
// Besides the text table, the run writes a machine-readable summary to
// BENCH_tile.json (override the path with RNNHM_BENCH_JSON_TILE): one
// record per (metric, grid) with untiled/tiled milliseconds, so CI can
// gate the tiling trajectory next to the other BENCH_*.json files.
// Set RNNHM_BENCH_FULL=1 for larger workloads.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "heatmap/influence.h"
#include "tile/tile_plan.h"

namespace rnnhm::bench {
namespace {

struct JsonRecord {
  std::string phase;
  std::string metric;
  int grid;        // tiles per side
  double cold_ms;  // untiled raster
  double warm_ms;  // windows painted and stitched
};

const Rect kDomain{{0, 0}, {1, 1}};

// The raster painted window by window and stitched.
HeatmapGrid PaintTiled(Metric metric, const std::vector<NnCircle>& circles,
                       const InfluenceMeasure& measure, int resolution,
                       const std::vector<TileWindow>& windows) {
  HeatmapGrid stitched(resolution, resolution, kDomain, measure.Evaluate({}));
  for (const TileWindow& window : windows) {
    if (window.empty()) continue;
    const HeatmapGrid fragment = PaintTileFragment(
        metric, circles, measure, 1, kDomain, resolution, resolution, window);
    StitchFragment(window, fragment, &stitched);
  }
  return stitched;
}

void RunSweepPhase(const Dataset& dataset, Metric metric, size_t clients,
                   size_t facilities, int resolution,
                   std::vector<JsonRecord>* records) {
  const PreparedWorkload w = Prepare(dataset, clients, facilities, metric, 91);
  SizeInfluence measure;
  const HeatmapGrid untiled = BuildHeatmapForMetric(
      metric, w.circles, measure, kDomain, resolution, resolution);
  const double untiled_ms = TimeMs([&] {
    BuildHeatmapForMetric(metric, w.circles, measure, kDomain, resolution,
                          resolution);
  });
  for (const int grid : {1, 2, 4}) {
    const std::vector<TileWindow> windows =
        TileWindows(kDomain, resolution, resolution, grid, grid);
    const HeatmapGrid tiled =
        PaintTiled(metric, w.circles, measure, resolution, windows);
    if (tiled.values() != untiled.values()) {
      std::fprintf(stderr, "[sweep/%s] %dx%d tiling is NOT bit-identical\n",
                   MetricName(metric).c_str(), grid, grid);
      std::exit(1);
    }
    const double tiled_ms = TimeMs([&] {
      PaintTiled(metric, w.circles, measure, resolution, windows);
    });
    std::printf("[sweep/%s] %dx%d at %dx%d px: untiled %.1f ms, tiled "
                "%.1f ms (%.2fx), bit-identical\n",
                MetricName(metric).c_str(), grid, grid, resolution,
                resolution, untiled_ms, tiled_ms,
                tiled_ms > 0.0 ? untiled_ms / tiled_ms : 0.0);
    records->push_back(JsonRecord{"sweep", MetricName(metric), grid,
                                  untiled_ms, tiled_ms});
  }
}

void WriteJson(const std::vector<JsonRecord>& records) {
  const char* path = std::getenv("RNNHM_BENCH_JSON_TILE");
  if (path == nullptr) path = "BENCH_tile.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"tile\",\n  \"cells\": [\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const JsonRecord& r = records[i];
    std::fprintf(
        f,
        "    {\"phase\": \"%s\", \"metric\": \"%s\", \"grid\": %d, "
        "\"cold_ms\": %.3f, \"warm_ms\": %.3f}%s\n",
        r.phase.c_str(), r.metric.c_str(), r.grid, r.cold_ms, r.warm_ms,
        i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu cells)\n", path, records.size());
}

void Run() {
  const bool full = FullMode();
  const int resolution = full ? 512 : 192;
  const size_t linf_clients = full ? 20000 : 2000;
  const size_t l1_clients = full ? 12000 : 1500;
  const size_t l2_clients = full ? 5000 : 800;
  const Dataset dataset =
      MakeDataset(DatasetKind::kUniform, 42, (full ? 20000u : 2000u) * 4);

  std::vector<JsonRecord> records;
  RunSweepPhase(dataset, Metric::kLInf, linf_clients, linf_clients / 100,
                resolution, &records);
  RunSweepPhase(dataset, Metric::kL1, l1_clients, l1_clients / 100,
                resolution, &records);
  RunSweepPhase(dataset, Metric::kL2, l2_clients, l2_clients / 25, resolution,
                &records);
  WriteJson(records);
}

}  // namespace
}  // namespace rnnhm::bench

int main() {
  rnnhm::bench::Run();
  return 0;
}
