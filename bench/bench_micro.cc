// Micro-benchmarks of the substrates (google-benchmark).
//
// These are not paper figures; they quantify the building blocks CREST's
// complexity analysis relies on: O(log n) line-status operations, O(1)
// base-set edits with O(lambda) copies, and the enclosure-query costs the
// baseline pays per grid cell.
//
// After the google-benchmark tables, the run times the raster hot-path
// kernels deterministically (fixed work, Stopwatch) and writes the
// results to BENCH_micro.json (override with RNNHM_BENCH_JSON_MICRO):
// one cell per (kernel, simd[, metric]) with milliseconds, so CI can gate
// the SIMD arc evaluation and the column kernel's walk and count paths
// against a committed baseline the same way the end-to-end benches gate
// whole maps.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "core/base_set.h"
#include "data/generators.h"
#include "heatmap/heatmap.h"
#include "heatmap/influence.h"
#include "heatmap/raster_kernels.h"
#include "index/enclosure_index.h"
#include "index/kdtree.h"
#include "index/rtree.h"
#include "index/skiplist.h"
#include "nn/nn_circle_builder.h"

namespace rnnhm {
namespace {

void BM_SkipListInsertErase(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  std::vector<double> keys;
  for (int i = 0; i < n; ++i) keys.push_back(rng.Uniform(0, 1));
  for (auto _ : state) {
    SkipList<double, int> list;
    std::vector<SkipList<double, int>::Node*> handles;
    handles.reserve(n);
    for (int i = 0; i < n; ++i) handles.push_back(list.Insert(keys[i], i));
    for (int i = 0; i < n; ++i) list.Erase(handles[i]);
    benchmark::DoNotOptimize(list.size());
  }
  state.SetItemsProcessed(state.iterations() * n * 2);
}
BENCHMARK(BM_SkipListInsertErase)->Range(1 << 10, 1 << 16);

void BM_MultimapInsertErase(benchmark::State& state) {
  // Comparison point for the line-status container choice.
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  std::vector<double> keys;
  for (int i = 0; i < n; ++i) keys.push_back(rng.Uniform(0, 1));
  for (auto _ : state) {
    std::multimap<double, int> map;
    std::vector<std::multimap<double, int>::iterator> handles;
    handles.reserve(n);
    for (int i = 0; i < n; ++i) handles.push_back(map.emplace(keys[i], i));
    for (int i = 0; i < n; ++i) map.erase(handles[i]);
    benchmark::DoNotOptimize(map.size());
  }
  state.SetItemsProcessed(state.iterations() * n * 2);
}
BENCHMARK(BM_MultimapInsertErase)->Range(1 << 10, 1 << 16);

void BM_KdTreeNearest(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(2);
  const auto pts = GenerateUniform(n, Rect{{0, 0}, {1, 1}}, rng);
  KdTree tree(pts);
  Rng qrng(3);
  for (auto _ : state) {
    const Point q{qrng.Uniform(0, 1), qrng.Uniform(0, 1)};
    benchmark::DoNotOptimize(tree.Nearest(q, Metric::kL1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KdTreeNearest)->Range(1 << 10, 1 << 18);

void BM_EnclosureStab(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(4);
  std::vector<Rect> rects;
  for (int i = 0; i < n; ++i) {
    const Point p{rng.Uniform(0, 1), rng.Uniform(0, 1)};
    const double r = rng.Uniform(0.001, 0.05);
    rects.push_back(Rect{{p.x - r, p.y - r}, {p.x + r, p.y + r}});
  }
  EnclosureIndex index(rects);
  Rng qrng(5);
  size_t hits = 0;
  for (auto _ : state) {
    const Point q{qrng.Uniform(0, 1), qrng.Uniform(0, 1)};
    index.Stab(q, [&](int32_t) { ++hits; });
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EnclosureStab)->Range(1 << 10, 1 << 16);

void BM_RTreeStab(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(4);
  std::vector<Rect> rects;
  for (int i = 0; i < n; ++i) {
    const Point p{rng.Uniform(0, 1), rng.Uniform(0, 1)};
    const double r = rng.Uniform(0.001, 0.05);
    rects.push_back(Rect{{p.x - r, p.y - r}, {p.x + r, p.y + r}});
  }
  RTree tree;
  tree.BulkLoad(rects);
  Rng qrng(5);
  size_t hits = 0;
  for (auto _ : state) {
    const Point q{qrng.Uniform(0, 1), qrng.Uniform(0, 1)};
    tree.Stab(q, [&](int32_t) { ++hits; });
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RTreeStab)->Range(1 << 10, 1 << 16);

void BM_BaseSetEditCopy(benchmark::State& state) {
  const int lambda = static_cast<int>(state.range(0));
  BaseSet set(1 << 18);
  std::vector<int32_t> scratch;
  for (auto _ : state) {
    for (int i = 0; i < lambda; ++i) set.Add(i);
    set.CopyTo(scratch);
    for (int i = 0; i < lambda; ++i) set.Remove(i);
    benchmark::DoNotOptimize(scratch.data());
  }
  state.SetItemsProcessed(state.iterations() * lambda);
}
BENCHMARK(BM_BaseSetEditCopy)->Range(4, 1 << 12);

void BM_NnCircleConstruction(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(6);
  const auto clients = GenerateUniform(n, Rect{{0, 0}, {1, 1}}, rng);
  const auto facilities =
      GenerateUniform(std::max(1, n / 64), Rect{{0, 0}, {1, 1}}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BuildNnCircles(clients, facilities, Metric::kL1));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_NnCircleConstruction)->Range(1 << 10, 1 << 16);

void BM_ArcYAtColumns(benchmark::State& state) {
  // The per-column arc evaluation the column kernel batches for its L2
  // chords; range(0) == 0 forces the scalar backend for comparison.
  const bool simd = state.range(0) != 0;
  SetRasterBackendForTesting(simd ? DetectedRasterBackend()
                                  : RasterBackend::kScalar);
  constexpr int kCols = 4096;
  std::vector<double> xs(kCols), out(kCols);
  for (int k = 0; k < kCols; ++k) xs[k] = -0.6 + 1.2 * k / kCols;
  const Point center{0.1, -0.2};
  for (auto _ : state) {
    ArcYAtColumns(center, 0.45, false, xs.data(), out.data(), kCols);
    ArcYAtColumns(center, 0.45, true, xs.data(), out.data(), kCols);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  ResetRasterBackendForTesting();
  state.SetItemsProcessed(state.iterations() * kCols * 2);
}
BENCHMARK(BM_ArcYAtColumns)->Arg(0)->Arg(1);

}  // namespace

namespace bench {
namespace {

struct MicroCell {
  std::string kernel;
  std::string simd;  // "on" / "off"
  int n;
  double ms;
  std::string metric = "";  // column-kernel cells only
};

// Fixed-work kernel timings (no adaptive iteration count): the same
// deterministic workload every run, so the committed BENCH_micro.json
// baseline gates regressions meaningfully.
void TimeArcEval(bool simd, std::vector<MicroCell>* cells) {
  SetRasterBackendForTesting(simd ? DetectedRasterBackend()
                                  : RasterBackend::kScalar);
  constexpr int kCols = 4096;
  constexpr int kReps = 4000;
  std::vector<double> xs(kCols), out(kCols);
  for (int k = 0; k < kCols; ++k) xs[k] = -0.6 + 1.2 * k / kCols;
  const Point center{0.1, -0.2};
  const double ms = TimeMs([&] {
    for (int r = 0; r < kReps; ++r) {
      ArcYAtColumns(center, 0.45, false, xs.data(), out.data(), kCols);
      ArcYAtColumns(center, 0.45, true, xs.data(), out.data(), kCols);
    }
  });
  ResetRasterBackendForTesting();
  cells->push_back(MicroCell{"arc_eval", simd ? "on" : "off", kCols, ms});
}

// Whole-map rasters repeat enough to clear the regression gate's 5 ms
// noise floor.
constexpr int kRasterReps = 20;

void TimeL2Raster(bool simd, const std::vector<NnCircle>& circles,
                  std::vector<MicroCell>* cells) {
  SetRasterBackendForTesting(simd ? DetectedRasterBackend()
                                  : RasterBackend::kScalar);
  SizeInfluence measure;
  constexpr int kRes = 192;
  const Rect domain{{0, 0}, {1, 1}};
  const double ms = TimeMs([&] {
    for (int r = 0; r < kRasterReps; ++r) {
      const HeatmapGrid grid =
          BuildHeatmapL2(circles, measure, domain, kRes, kRes);
      benchmark::DoNotOptimize(grid.values().data());
    }
  });
  ResetRasterBackendForTesting();
  cells->push_back(MicroCell{"l2_raster", simd ? "on" : "off",
                             static_cast<int>(circles.size()), ms});
}

// The RNN set's size, but not a SizeInfluence: the column kernel walks
// each column's events and evaluates it at every event row.
class WalkedSize : public InfluenceMeasure {
 public:
  double Evaluate(std::span<const int32_t> clients) const override {
    return static_cast<double>(clients.size());
  }
};

// Column-kernel maps repeat more than the whole-map rasters: the count
// path's L∞ map takes well under a millisecond.
constexpr int kColumnReps = 100;

void TimeColumnKernel(std::vector<MicroCell>* cells) {
  // The column kernel on one circle set, per metric and path:
  // `column_walk` counting-sorts each column's events, walks them over the
  // id set and evaluates at every event row; `column_count` paints
  // SizeInfluence from difference counts (a 2-D difference array for L∞,
  // per-column ones for L1 and L2), so only chord generation is left.
  Rng rng(52);
  std::vector<NnCircle> circles;
  for (int i = 0; i < 2000; ++i) {
    circles.push_back(NnCircle{{rng.Uniform(0, 1), rng.Uniform(0, 1)},
                               rng.Uniform(0.01, 0.1), i});
  }
  const SizeInfluence size;
  const WalkedSize walked;
  constexpr int kRes = 192;
  for (const Metric metric : {Metric::kLInf, Metric::kL1, Metric::kL2}) {
    for (const bool count : {false, true}) {
      const InfluenceMeasure& measure =
          count ? static_cast<const InfluenceMeasure&>(size) : walked;
      const double ms = TimeMs([&] {
        for (int r = 0; r < kColumnReps; ++r) {
          const HeatmapGrid grid = BuildHeatmapForMetric(
              metric, circles, measure, Rect{{0, 0}, {1, 1}}, kRes, kRes);
          benchmark::DoNotOptimize(grid.values().data());
        }
      });
      // Only the L2 chords use the SIMD arc evaluation.
      cells->push_back(MicroCell{count ? "column_count" : "column_walk",
                                 metric == Metric::kL2 ? "on" : "off",
                                 static_cast<int>(circles.size()), ms,
                                 MetricName(metric)});
    }
  }
}

void TimePixelAxisLowerBound(std::vector<MicroCell>* cells) {
  const PixelAxis axis(-0.05, 1.1 / 512, 512);
  Rng rng(53);
  constexpr int kProbes = 1 << 20;
  std::vector<double> bounds(kProbes);
  for (int i = 0; i < kProbes; ++i) bounds[i] = rng.Uniform(-0.2, 1.2);
  long long sum = 0;
  const double ms = TimeMs([&] {
    for (int i = 0; i < kProbes; ++i) sum += axis.LowerBound(bounds[i]);
  });
  benchmark::DoNotOptimize(sum);
  cells->push_back(MicroCell{"pixel_axis_lower_bound", "off", kProbes, ms});
}

void WriteMicroJson() {
  std::vector<MicroCell> cells;
  TimeArcEval(/*simd=*/false, &cells);
  TimeArcEval(/*simd=*/true, &cells);
  Rng rng(51);
  std::vector<NnCircle> circles;
  for (int i = 0; i < 800; ++i) {
    circles.push_back(NnCircle{{rng.Uniform(0, 1), rng.Uniform(0, 1)},
                               rng.Uniform(0.01, 0.12), i});
  }
  TimeL2Raster(/*simd=*/false, circles, &cells);
  TimeL2Raster(/*simd=*/true, circles, &cells);
  TimeColumnKernel(&cells);
  TimePixelAxisLowerBound(&cells);

  const char* path = std::getenv("RNNHM_BENCH_JSON_MICRO");
  if (path == nullptr) path = "BENCH_micro.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"micro\",\n  \"cells\": [\n");
  for (size_t i = 0; i < cells.size(); ++i) {
    const MicroCell& c = cells[i];
    const std::string metric =
        c.metric.empty() ? "" : "\"metric\": \"" + c.metric + "\", ";
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", %s\"simd\": \"%s\", \"n\": %d, "
                 "\"ms\": %.3f}%s\n",
                 c.kernel.c_str(), metric.c_str(), c.simd.c_str(), c.n, c.ms,
                 i + 1 < cells.size() ? "," : "");
    std::printf("[micro/%s %ssimd=%s] n=%d: %.3f ms\n", c.kernel.c_str(),
                c.metric.empty() ? "" : (c.metric + " ").c_str(),
                c.simd.c_str(), c.n, c.ms);
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu cells)\n", path, cells.size());
}

}  // namespace
}  // namespace bench
}  // namespace rnnhm

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  rnnhm::bench::WriteMicroJson();
  return 0;
}
