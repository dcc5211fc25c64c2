// Differential harness over every sweep pipeline (the acceptance gate for
// the slab-parallel L2 arc sweep).
//
// For both exact-sweep metrics (L-infinity squares, L2 disks) and the
// measures safe to share across shards (Size, Weighted, Connectivity), a
// seeded generator produces workloads — including degenerate ones: snapped
// coordinates with duplicate x-extremes, tangent disks, zero-radius and
// exactly duplicated circles — and the harness asserts three-way agreement:
//
//   brute force  ==  sequential CREST  ==  slab-parallel CREST (1/2/4/8)
//
// on (a) distinct region labels with their influence values, (b) rasters,
// which must be *bit-identical* between sequential and every slab count,
// and (c) brute-force pixel values away from region boundaries.
//
// Weighted influence uses dyadic weights (multiples of 1/8 in a small
// range) so floating-point sums are exact in any RNN-set order — that is
// the determinism contract's precondition for bit-identical weighted
// rasters (see README, "The L2 parallel contract").
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/brute_force.h"
#include "core/crest.h"
#include "core/crest_l2.h"
#include "core/crest_parallel.h"
#include "heatmap/heatmap.h"
#include "heatmap/influence.h"
#include "query/circle_set_registry.h"
#include "query/heatmap_engine.h"
#include "query/heatmap_session.h"
#include "query/wire.h"
#include "serve/byte_stream.h"
#include "serve/frame_buffer.h"
#include "serve/wire_server.h"

namespace rnnhm {
namespace {

constexpr int kSlabCounts[] = {1, 2, 4, 8};
constexpr int kRaster = 48;
// Pixel centers are irrational relative to the snapped 1/32-grid inputs, so
// no pixel center ever lies exactly on a circle boundary by construction;
// the brute-force comparison still skips anything within kBoundaryTol.
const Rect kDomain{{-0.31250731, -0.27103343}, {1.29310917, 1.31071529}};
constexpr double kBoundaryTol = 1e-7;

enum class Scenario {
  kRandom,        // general-position random circles
  kSnapped,       // coordinates on a 1/32 grid: duplicate x-extremes, ties
  kTangent,       // chains of externally tangent disks
  kDegenerate,    // zero-radius circles + exact duplicates mixed in
};

std::string ScenarioName(Scenario s) {
  switch (s) {
    case Scenario::kRandom:
      return "Random";
    case Scenario::kSnapped:
      return "Snapped";
    case Scenario::kTangent:
      return "Tangent";
    case Scenario::kDegenerate:
      return "Degenerate";
  }
  return "Unknown";
}

std::vector<NnCircle> MakeCircles(Scenario scenario, uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<NnCircle> out;
  auto snap = [](double v) { return std::round(v * 32.0) / 32.0; };
  switch (scenario) {
    case Scenario::kRandom:
      for (int i = 0; i < n; ++i) {
        out.push_back(NnCircle{{rng.Uniform(0, 1), rng.Uniform(0, 1)},
                               rng.Uniform(0.02, 0.2), i});
      }
      break;
    case Scenario::kSnapped:
      // Snapped centers and radii make many circles share x-extremes and
      // intersection abscissae exactly (simultaneous-event groups).
      for (int i = 0; i < n; ++i) {
        out.push_back(NnCircle{{snap(rng.Uniform(0, 1)),
                                snap(rng.Uniform(0, 1))},
                               std::max(0.0625, snap(rng.Uniform(0.05, 0.25))),
                               i});
      }
      break;
    case Scenario::kTangent: {
      // Horizontal chains of externally tangent equal disks (tangencies
      // are single-point crossing events), plus one larger disk concentric
      // with each chain's last link (containment without intersection).
      const double r = 0.09375;  // 3/32
      int id = 0;
      for (int c = 0; id < n && c < 8; ++c) {
        const double y = snap(rng.Uniform(0.1, 0.9));
        double x = snap(rng.Uniform(0.0, 0.2));
        for (int k = 0; id < n && k < 5; ++k, x += 2 * r) {
          out.push_back(NnCircle{{x, y}, r, id++});
        }
        if (id < n) {
          out.push_back(NnCircle{{x - 2 * r, y}, 2 * r, id++});
        }
      }
      break;
    }
    case Scenario::kDegenerate:
      for (int i = 0; i < n; ++i) {
        const double roll = rng.NextDouble();
        if (roll < 0.15) {
          out.push_back(
              NnCircle{{rng.Uniform(0, 1), rng.Uniform(0, 1)}, 0.0, i});
        } else if (roll < 0.35 && !out.empty()) {
          NnCircle dup = out[rng.NextBounded(out.size())];
          dup.client = i;  // exact duplicate disk, distinct client
          out.push_back(dup);
        } else {
          out.push_back(NnCircle{{snap(rng.Uniform(0, 1)),
                                  snap(rng.Uniform(0, 1))},
                                 snap(rng.Uniform(0.05, 0.2)), i});
        }
      }
      break;
  }
  return out;
}

// Measures under test; WeightedInfluence gets dyadic weights so sums are
// exact regardless of RNN-set order.
std::unique_ptr<InfluenceMeasure> MakeMeasure(const std::string& name,
                                              int num_clients,
                                              uint64_t seed) {
  Rng rng(seed);
  if (name == "Size") return std::make_unique<SizeInfluence>();
  if (name == "Weighted") {
    std::vector<double> weights;
    weights.reserve(num_clients);
    for (int i = 0; i < num_clients; ++i) {
      weights.push_back(0.125 * static_cast<double>(1 + rng.NextBounded(32)));
    }
    return std::make_unique<WeightedInfluence>(std::move(weights));
  }
  std::vector<std::pair<int32_t, int32_t>> edges;
  for (int e = 0; e < 3 * num_clients; ++e) {
    edges.emplace_back(static_cast<int32_t>(rng.NextBounded(num_clients)),
                       static_cast<int32_t>(rng.NextBounded(num_clients)));
  }
  return std::make_unique<ConnectivityInfluence>(num_clients, edges);
}

// --- Metric-generic pipeline adapters -------------------------------------

std::map<std::vector<int32_t>, double> SequentialSets(
    Metric metric, const std::vector<NnCircle>& circles,
    const InfluenceMeasure& measure) {
  DistinctSetSink sink;
  if (metric == Metric::kL2) {
    RunCrestL2(circles, measure, &sink);
  } else {
    RunCrest(circles, measure, &sink);
  }
  // The empty RNN set is the background region; whether a sweep labels it
  // depends on where the status happens to have interior gaps, which the
  // slab decomposition legitimately changes. Ignore it on both sides.
  auto sets = sink.sets();
  sets.erase(std::vector<int32_t>{});
  return sets;
}

std::map<std::vector<int32_t>, double> ParallelSets(
    Metric metric, const std::vector<NnCircle>& circles,
    const InfluenceMeasure& measure, int shards) {
  std::vector<DistinctSetSink> shard_sinks(shards);
  std::vector<RegionLabelSink*> ptrs;
  for (auto& s : shard_sinks) ptrs.push_back(&s);
  RunCrestParallelMetric(metric, circles, measure, ptrs);
  std::map<std::vector<int32_t>, double> merged;
  for (const auto& s : shard_sinks) {
    for (const auto& [set, influence] : s.sets()) merged[set] = influence;
  }
  merged.erase(std::vector<int32_t>{});
  return merged;
}

HeatmapGrid SequentialRaster(Metric metric,
                             const std::vector<NnCircle>& circles,
                             const InfluenceMeasure& measure) {
  if (metric == Metric::kL2) {
    return BuildHeatmapL2(circles, measure, kDomain, kRaster, kRaster);
  }
  return BuildHeatmapLInf(circles, measure, kDomain, kRaster, kRaster);
}

HeatmapGrid ParallelRaster(Metric metric,
                           const std::vector<NnCircle>& circles,
                           const InfluenceMeasure& measure, int slabs) {
  if (metric == Metric::kL1) {
    return BuildHeatmapL1Parallel(circles, measure, kDomain, kRaster,
                                  kRaster, slabs);
  }
  if (metric == Metric::kL2) {
    return BuildHeatmapL2Parallel(circles, measure, kDomain, kRaster,
                                  kRaster, slabs);
  }
  return BuildHeatmapLInfParallel(circles, measure, kDomain, kRaster,
                                  kRaster, slabs);
}

// Distance from p to the boundary of the nearest circle edge (for skipping
// boundary pixels in the brute-force comparison).
double BoundaryDistance(const Point& p, const NnCircle& c, Metric metric) {
  return std::fabs(Distance(p, c.center, metric) - c.radius);
}

// --- The harness ----------------------------------------------------------

using Param = std::tuple<Metric, std::string, Scenario>;

class DifferentialTest : public ::testing::TestWithParam<Param> {};

TEST_P(DifferentialTest, BruteSequentialAndParallelAgree) {
  const auto [metric, measure_name, scenario] = GetParam();
  for (const uint64_t seed : {11u, 23u}) {
    const int n = 70;
    const auto circles = MakeCircles(scenario, 4000 + seed, n);
    const auto measure = MakeMeasure(measure_name, n, 5000 + seed);
    SCOPED_TRACE(ScenarioName(scenario) + " seed " + std::to_string(seed));

    // (a) Region labels: sequential vs parallel at every shard count. A
    // boundary-spanning region is labeled once per slab with the same RNN
    // set and (order-independent) influence, so the distinct-set maps must
    // be exactly equal.
    const auto sequential_sets = SequentialSets(metric, circles, *measure);
    for (const int shards : kSlabCounts) {
      EXPECT_EQ(ParallelSets(metric, circles, *measure, shards),
                sequential_sets)
          << "shards=" << shards;
    }

    // Brute-force witness: the RNN set of any sample point must appear in
    // the sequential label map with the measure's influence.
    Rng rng(6000 + seed);
    for (int q = 0; q < 300; ++q) {
      const Point p{rng.Uniform(kDomain.lo.x, kDomain.hi.x),
                    rng.Uniform(kDomain.lo.y, kDomain.hi.y)};
      auto rnn = BruteForceRnnSet(p, circles, metric);
      if (rnn.empty()) continue;
      const auto it = sequential_sets.find(rnn);
      ASSERT_NE(it, sequential_sets.end())
          << "point (" << p.x << ", " << p.y << ")";
      EXPECT_EQ(it->second, measure->Evaluate(rnn));
    }

    // (b) Rasters: bit-identical across every slab count.
    const HeatmapGrid reference =
        SequentialRaster(metric, circles, *measure);
    for (const int slabs : kSlabCounts) {
      const HeatmapGrid grid =
          ParallelRaster(metric, circles, *measure, slabs);
      ASSERT_EQ(grid.values().size(), reference.values().size());
      for (size_t i = 0; i < grid.values().size(); ++i) {
        ASSERT_EQ(grid.values()[i], reference.values()[i])
            << "slabs=" << slabs << " flat index " << i;
      }
    }

    // (c) Brute force per pixel, skipping centers within tolerance of any
    // circle boundary (the sweep and the closed-disk test may disagree
    // there by the half-open rasterization convention).
    for (int i = 0; i < kRaster; ++i) {
      for (int j = 0; j < kRaster; ++j) {
        const Point p = reference.PixelCenter(i, j);
        bool near_boundary = false;
        for (const NnCircle& c : circles) {
          if (c.radius > 0.0 &&
              BoundaryDistance(p, c, metric) < kBoundaryTol) {
            near_boundary = true;
            break;
          }
        }
        if (near_boundary) continue;
        const auto rnn = BruteForceRnnSet(p, circles, metric);
        ASSERT_EQ(reference.At(i, j), measure->Evaluate(rnn))
            << "pixel " << i << "," << j;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DifferentialTest,
    ::testing::Combine(
        ::testing::Values(Metric::kLInf, Metric::kL2),
        ::testing::Values(std::string("Size"), std::string("Weighted"),
                          std::string("Connectivity")),
        ::testing::Values(Scenario::kRandom, Scenario::kSnapped,
                          Scenario::kTangent, Scenario::kDegenerate)),
    [](const ::testing::TestParamInfo<Param>& param_info) {
      return MetricName(std::get<0>(param_info.param)) +
             std::get<1>(param_info.param) +
             ScenarioName(std::get<2>(param_info.param));
    });

// --- Incremental re-sweep and result cache -------------------------------
//
// The acceptance gate for the incremental subsystem: for all three
// metrics, a session replaying a randomized edit sequence
// must produce — after every single edit — a spliced raster that is
// *bit-identical* to a from-scratch build of its current circles at every
// slab count, under both an order-independent measure (Size) and exact
// dyadic weighted sums (the same determinism precondition the parallel
// contract documents).

using IncrementalParam = std::tuple<Metric, std::string>;

class IncrementalDifferentialTest
    : public ::testing::TestWithParam<IncrementalParam> {};

TEST_P(IncrementalDifferentialTest, EditReplayMatchesFromScratch) {
  const auto [metric, measure_name] = GetParam();
  for (const uint64_t seed : {3u, 17u}) {
    Rng rng(7000 + seed);
    std::vector<Point> clients, facilities;
    for (int i = 0; i < 60; ++i) {
      clients.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
    }
    for (int i = 0; i < 8; ++i) {
      facilities.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
    }
    // Weights sized for every client this replay can ever add.
    const auto measure = MakeMeasure(measure_name, 60 + 40, 7100 + seed);
    HeatmapSession session(clients, facilities, metric);
    SCOPED_TRACE(MetricName(metric) + " seed " + std::to_string(seed));

    IncrementalRebuildStats stats;
    session.RasterIncremental(*measure, kDomain, kRaster, kRaster, &stats);
    ASSERT_TRUE(stats.full_rebuild);

    int spliced_ticks = 0;
    for (int tick = 0; tick < 40; ++tick) {
      const double dice = rng.NextDouble();
      if (dice < 0.4) {
        session.MoveClient(
            static_cast<int32_t>(rng.NextBounded(session.num_clients())),
            {rng.Uniform(0, 1), rng.Uniform(0, 1)});
      } else if (dice < 0.6) {
        session.AddClient({rng.Uniform(0, 1), rng.Uniform(0, 1)});
      } else if (dice < 0.8 || session.num_facilities() < 2) {
        session.AddFacility({rng.Uniform(0, 1), rng.Uniform(0, 1)});
      } else {
        session.RemoveFacility(
            static_cast<int32_t>(rng.NextBounded(session.num_facilities())));
      }
      const HeatmapGrid& spliced = session.RasterIncremental(
          *measure, kDomain, kRaster, kRaster, &stats);
      ASSERT_FALSE(stats.full_rebuild) << "tick " << tick;
      spliced_ticks += stats.raster.dirty_columns < kRaster ? 1 : 0;

      // Bit-identical to a from-scratch build at every slab count.
      for (const int slabs : kSlabCounts) {
        const HeatmapGrid scratch =
            ParallelRaster(metric, session.circles(), *measure, slabs);
        ASSERT_EQ(spliced.values(), scratch.values())
            << "tick " << tick << " slabs " << slabs;
      }
    }
    // The replay must actually exercise partial recomputation, not
    // degenerate into full-width dirty slabs every tick.
    EXPECT_GT(spliced_ticks, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IncrementalDifferentialTest,
    ::testing::Combine(::testing::Values(Metric::kLInf, Metric::kL1,
                                         Metric::kL2),
                       ::testing::Values(std::string("Size"),
                                         std::string("Weighted"))),
    [](const ::testing::TestParamInfo<IncrementalParam>& param_info) {
      return MetricName(std::get<0>(param_info.param)) + std::get<1>(param_info.param);
    });

// Cache hits must be bit-identical to the response a cache-less engine
// computes for the same request — for both exact metrics and all slab
// counts the engine can sweep with.
TEST(CacheDifferentialTest, HitsAreBitIdenticalToFreshSweeps) {
  SizeInfluence measure;
  for (const Metric metric : {Metric::kLInf, Metric::kL2}) {
    const auto circles = MakeCircles(Scenario::kSnapped, 4211, 70);
    for (const int slabs : kSlabCounts) {
      HeatmapEngineOptions cached_options;
      cached_options.num_threads = 1;
      cached_options.slabs_per_request = slabs;
      cached_options.cache_bytes = 32 << 20;
      HeatmapEngine cached(measure, cached_options);
      HeatmapEngineOptions plain_options;
      plain_options.num_threads = 1;
      plain_options.slabs_per_request = slabs;
      HeatmapEngine plain(measure, plain_options);

      const HeatmapRequest request{circles, kDomain, kRaster, kRaster,
                                   metric};
      const HeatmapResponse cold = cached.Execute(request);
      const HeatmapResponse warm = cached.Execute(request);
      const HeatmapResponse fresh = plain.Execute(request);
      ASSERT_FALSE(cold.from_cache);
      ASSERT_TRUE(warm.from_cache);
      EXPECT_EQ(warm.grid.values(), fresh.grid.values())
          << MetricName(metric) << " slabs " << slabs;
      EXPECT_EQ(cold.grid.values(), fresh.grid.values());
    }
  }
}

// Serving API v2: for any request, the legacy inline path, the handle
// path and a wire round-trip through the serve loop must all produce the
// same grid, bit for bit, at every slab count.
TEST(ServingV2DifferentialTest, InlineHandleAndWirePathsAgree) {
  SizeInfluence measure;
  for (const Metric metric : {Metric::kLInf, Metric::kL1, Metric::kL2}) {
    const auto circles = MakeCircles(Scenario::kSnapped, 5317, 60);
    for (const int slabs : kSlabCounts) {
      HeatmapEngineOptions options;
      options.num_threads = 1;
      options.slabs_per_request = slabs;
      options.cache_bytes = 32 << 20;
      HeatmapEngine engine(measure, options);

      // Legacy inline path.
      const HeatmapRequest request{circles, kDomain, kRaster, kRaster,
                                   metric};
      const HeatmapResponse inline_response = engine.Execute(request);

      // Handle path on the same engine (served from the shared cache) and
      // on a cache-less engine (fresh sweep).
      const CircleSetHandle handle =
          engine.registry().Register(circles, metric);
      const HeatmapRequestV2 v2{handle, kDomain, kRaster, kRaster};
      const HeatmapResponse handle_response = engine.Execute(v2);
      HeatmapEngineOptions plain_options;
      plain_options.num_threads = 1;
      plain_options.slabs_per_request = slabs;
      HeatmapEngine plain(measure, plain_options);
      const CircleSetHandle plain_handle =
          plain.registry().Register(circles, metric);
      const HeatmapResponse fresh_response = plain.Execute(
          HeatmapRequestV2{plain_handle, kDomain, kRaster, kRaster});

      // Wire round-trip: encode -> serve loop (its own engine) -> decode.
      const auto set = CircleSetSnapshot::Make(circles, metric);
      const std::vector<uint8_t> frame_payload =
          EncodeRequest(MakeWireRequest(*set, kDomain, kRaster, kRaster,
                                        /*include_circles=*/true));
      std::vector<uint8_t> input(4);
      for (int i = 0; i < 4; ++i) {
        input[i] = static_cast<uint8_t>(frame_payload.size() >> (8 * i));
      }
      input.insert(input.end(), frame_payload.begin(), frame_payload.end());
      HeatmapEngine engine_behind_wire(measure, plain_options);
      WireServer server(engine_behind_wire);
      MemoryByteSource source(std::move(input));
      MemoryByteSink sink;
      ASSERT_TRUE(server.ServeStream(source, sink).ok());
      FrameAssembler assembler(kMaxFramePayloadBytes);
      assembler.Feed(sink.bytes());
      const auto frame = assembler.Next();
      ASSERT_TRUE(frame.has_value());
      std::string error;
      const auto wire_response = DecodeResponse(*frame, &error);
      ASSERT_TRUE(wire_response.has_value()) << error;
      ASSERT_EQ(wire_response->status, WireStatus::kOk)
          << wire_response->error;

      const std::vector<double>& reference = inline_response.grid.values();
      EXPECT_EQ(handle_response.grid.values(), reference)
          << MetricName(metric) << " slabs " << slabs << " (handle)";
      EXPECT_EQ(fresh_response.grid.values(), reference)
          << MetricName(metric) << " slabs " << slabs << " (fresh handle)";
      EXPECT_EQ(wire_response->response->grid.values(), reference)
          << MetricName(metric) << " slabs " << slabs << " (wire)";
    }
  }
}

// Parallel stat sums must stay consistent with the sequential sweep: the
// circle accounting is global and exact, the per-shard sweep counters can
// only grow (boundary-spanning regions are labeled once per slab).
TEST(DifferentialStatsTest, L2ParallelSumsMatchSequentialCounts) {
  const auto circles = MakeCircles(Scenario::kDegenerate, 77, 90);
  SizeInfluence measure;
  CountingSink sink;
  const CrestL2Stats sequential = RunCrestL2(circles, measure, &sink);
  for (const int shards : kSlabCounts) {
    std::vector<CountingSink> shard_sinks(shards);
    std::vector<RegionLabelSink*> ptrs;
    for (auto& s : shard_sinks) ptrs.push_back(&s);
    const CrestL2Stats parallel =
        RunCrestL2Parallel(circles, measure, ptrs);
    EXPECT_EQ(parallel.num_circles, sequential.num_circles)
        << "shards=" << shards;
    EXPECT_EQ(parallel.num_skipped_circles, sequential.num_skipped_circles)
        << "shards=" << shards;
    EXPECT_GE(parallel.num_labelings, sequential.num_labelings)
        << "shards=" << shards;
    // Each crossing lies in exactly one slab; crossings exactly on a slab
    // boundary are dropped as redundant (the boundary checkpoint relabels
    // everything), so the sum can only lose those.
    EXPECT_LE(parallel.num_cross_events, sequential.num_cross_events)
        << "shards=" << shards;
    size_t labeled = 0;
    for (const auto& s : shard_sinks) labeled += s.count();
    EXPECT_EQ(labeled, parallel.num_labelings) << "shards=" << shards;
  }
}

// The unified dispatcher must accept every metric (L1 labels live in the
// rotated frame, so compare its shard union against the rotated sweep).
TEST(DifferentialStatsTest, DispatcherCoversAllMetrics) {
  Rng rng(88);
  std::vector<NnCircle> circles;
  for (int i = 0; i < 50; ++i) {
    circles.push_back(NnCircle{{rng.Uniform(0, 1), rng.Uniform(0, 1)},
                               rng.Uniform(0.02, 0.2), i});
  }
  SizeInfluence measure;
  for (const Metric metric : {Metric::kLInf, Metric::kL1, Metric::kL2}) {
    std::vector<CountingSink> shard_sinks(3);
    std::vector<RegionLabelSink*> ptrs;
    for (auto& s : shard_sinks) ptrs.push_back(&s);
    const MetricSweepStats stats =
        RunCrestParallelMetric(metric, circles, measure, ptrs);
    EXPECT_GT(stats.num_labelings(), 0u) << MetricName(metric);
    if (metric == Metric::kL2) {
      EXPECT_EQ(stats.crest.num_labelings, 0u);
    } else {
      EXPECT_EQ(stats.l2.num_labelings, 0u);
    }
  }
}

}  // namespace
}  // namespace rnnhm
