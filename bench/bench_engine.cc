// HeatmapEngine throughput: a batch of B independent heat-map requests
// served across worker counts and column-block counts ("slabs"), for L∞
// and L2 maps. Columns are wall-clock milliseconds for the whole batch;
// the 1-thread/1-slab cell is the sequential reference the others should
// beat.
//
// Besides the text tables, the run writes a machine-readable summary to
// BENCH_engine.json (override the path with RNNHM_BENCH_JSON) so CI can
// archive the perf trajectory: one record per (metric, threads, slabs)
// cell with batch wall-clock ms and maps/second.
//
// Set RNNHM_BENCH_FULL=1 for larger batches and request sizes.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "heatmap/influence.h"
#include "query/heatmap_engine.h"

namespace rnnhm::bench {
namespace {

struct JsonRecord {
  std::string metric;
  int threads;
  int slabs;
  int batch;
  double ms;
};

std::vector<HeatmapRequest> MakeBatch(const Dataset& dataset, int batch,
                                      size_t clients, size_t facilities,
                                      int resolution, Metric metric) {
  std::vector<HeatmapRequest> out;
  out.reserve(batch);
  for (int b = 0; b < batch; ++b) {
    const PreparedWorkload w =
        Prepare(dataset, clients, facilities, metric, 9000 + b);
    HeatmapRequest req;
    req.circles = w.circles;
    req.domain = Rect{{0, 0}, {1, 1}};
    req.width = resolution;
    req.height = resolution;
    req.metric = metric;
    out.push_back(std::move(req));
  }
  return out;
}

void RunMetric(const Dataset& dataset, Metric metric, int batch,
               size_t clients, size_t facilities, int resolution,
               std::vector<JsonRecord>* records) {
  const auto requests =
      MakeBatch(dataset, batch, clients, facilities, resolution, metric);
  SizeInfluence measure;

  std::printf("[%s] batch of %d heat maps, %zu clients, %zu facilities, "
              "%dx%d raster\n\n",
              MetricName(metric).c_str(), batch, clients, facilities,
              resolution, resolution);
  PrintHeader("threads", {"slabs=1", "slabs=2", "slabs=4"});
  for (const int threads : {1, 2, 4, 8}) {
    std::vector<Cell> row;
    for (const int slabs : {1, 2, 4}) {
      HeatmapEngineOptions options;
      options.num_threads = threads;
      options.slabs_per_request = slabs;
      HeatmapEngine engine(measure, options);
      std::vector<HeatmapRequest> copy = requests;
      Cell cell;
      cell.ms = TimeMs([&] { engine.RunBatch(std::move(copy)); });
      row.push_back(cell);
      records->push_back(JsonRecord{MetricName(metric), threads, slabs,
                                    batch, cell.ms});
    }
    PrintRow(std::to_string(threads), row);
  }
  std::printf("\n");
}

void WriteJson(const std::vector<JsonRecord>& records) {
  const char* path = std::getenv("RNNHM_BENCH_JSON");
  if (path == nullptr) path = "BENCH_engine.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"engine\",\n  \"cells\": [\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const JsonRecord& r = records[i];
    std::fprintf(f,
                 "    {\"metric\": \"%s\", \"threads\": %d, \"slabs\": %d, "
                 "\"batch\": %d, \"ms\": %.3f, \"maps_per_sec\": %.3f}%s\n",
                 r.metric.c_str(), r.threads, r.slabs, r.batch, r.ms,
                 r.ms > 0.0 ? 1000.0 * r.batch / r.ms : 0.0,
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu cells)\n", path, records.size());
}

void Run() {
  const bool full = FullMode();
  const int batch = full ? 64 : 8;
  const size_t clients = full ? 20000 : 2000;
  const size_t facilities = clients / 100;
  const int resolution = full ? 512 : 192;
  const Dataset dataset = MakeDataset(DatasetKind::kUniform, 42,
                                      clients * 4);
  std::vector<JsonRecord> records;
  RunMetric(dataset, Metric::kLInf, batch, clients, facilities, resolution,
            &records);
  // The L2 batch keeps its smaller workload with a denser facility set
  // (smaller disks), so its cells stay comparable across baselines.
  const size_t l2_clients = full ? 5000 : 800;
  RunMetric(dataset, Metric::kL2, batch, l2_clients,
            std::max<size_t>(1, l2_clients / 25), resolution, &records);
  WriteJson(records);
}

}  // namespace
}  // namespace rnnhm::bench

int main() {
  rnnhm::bench::Run();
  return 0;
}
