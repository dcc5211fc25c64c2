#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "bench_util.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "heatmap/heatmap.h"
#include "nn/nn_circle_builder.h"
#include "query/wire.h"

namespace servebench {

using rnnhm::CircleSetSnapshot;
using rnnhm::Dataset;
using rnnhm::DatasetKind;
using rnnhm::Metric;
using rnnhm::NnCircle;
using rnnhm::Rect;
using rnnhm::Rng;

namespace {

// Population sizes. Every L2 population keeps clients/facilities = 25:
// at 100 the arc sweep's disk-overlap pathology makes one map take tens of
// seconds, which would put that defect inside every L2 number.
struct PopSize {
  size_t clients;
  size_t facilities;
};
constexpr PopSize kExploreRect = {1000, 10};  // L-inf and L1
constexpr PopSize kExploreL2 = {400, 16};
constexpr int kExploreSize = 192;
constexpr int kExploreFrames = 1200;

constexpr PopSize kDashRect = {600, 6};
constexpr PopSize kDashL2 = {250, 10};
constexpr int kDashSize = 256;
constexpr int kDashPopulations = 8;
constexpr int kDashViewports = 6;
constexpr int kDashConnections = 6;
constexpr size_t kDashOrderLength = 400000;
constexpr double kDashZipfExponent = 1.1;
// The dashboard's populations are the same for every workload seed: a
// dashboard shows one fixed data set, and its pool fill is set-up time.
// Sampled per seed, the pool-fill cost varied across seeds by a quartile
// distance of 0.23-0.31 of its median (L2 map cost alone spans 4x between
// populations of one size), so setup_s could not repeat within its bound.
// The seed picks the checked items, the popularity ranking and the
// request order.
constexpr uint64_t kDashPoolSeed = 0xda5b0a7d;

constexpr PopSize kWallLInf = {4000, 40};
constexpr PopSize kWallL2 = {600, 24};
constexpr int kWallSize = 384;
constexpr int kWallFrames = 400;

constexpr const char* kCacheBytes = "268435456";

// The two city substitutes every population is sampled from. The pools
// are fixed data sets (Table II sizes); only the sampling follows the
// workload seed.
const Dataset& City(int which) {
  static const Dataset nyc = rnnhm::MakeDataset(DatasetKind::kNyc, 1);
  static const Dataset la = rnnhm::MakeDataset(DatasetKind::kLa, 1);
  return which % 2 == 0 ? nyc : la;
}

const char* CityName(int which) { return which % 2 == 0 ? "nyc" : "la"; }

class Generator {
 public:
  Generator(uint64_t seed, Inputs* out) : rng_(seed), out_(out) {}

  rnnhm::Workload Sample(int city, PopSize size) {
    return rnnhm::SampleWorkload(City(city), size.clients, size.facilities,
                                 rng_.NextU64());
  }

  std::shared_ptr<const CircleSetSnapshot> Circles(
      const rnnhm::Workload& w, Metric metric) {
    const int64_t t0 = NowNs();
    std::vector<NnCircle> circles =
        rnnhm::BuildNnCircles(w.clients, w.facilities, metric);
    out_->nn_build_ms.push_back(NsToMs(NowNs() - t0));
    return CircleSetSnapshot::Make(std::move(circles), metric);
  }

  Frame Plain(const CircleSetSnapshot& set, const Rect& domain, int size,
              bool inline_circles) {
    Frame f;
    f.wire = WithLengthPrefix(rnnhm::EncodeRequest(rnnhm::MakeWireRequest(
        set, domain, size, size, inline_circles)));
    f.metric = set.metric();
    return f;
  }

  int AddCheck(std::shared_ptr<const CircleSetSnapshot> set,
               const Rect& domain, int size, std::string label) {
    out_->checks.push_back(Check{std::move(set), domain, size, size,
                                 std::move(label)});
    return static_cast<int>(out_->checks.size()) - 1;
  }

  void AddSample(Metric metric, const rnnhm::Workload& w, const Rect& domain,
                 int size) {
    out_->samples.push_back(
        SamplePopulation{metric, w.clients, w.facilities, domain, size});
  }

  Rng& rng() { return rng_; }

 private:
  Rng rng_;
  Inputs* out_;
};

ServerSpec SingleServer() {
  ServerSpec s;
  s.flags = {"serve", "--transport", "unix", "--threads", "4",
             "--slabs", "4", "--cache", kCacheBytes};
  s.engine_threads = 4;
  s.engine_slabs = 4;
  s.cache_bytes = 268435456;
  return s;
}

ServerSpec TileRouter() {
  ServerSpec s;
  s.router = true;
  s.flags = {"route", "--transport", "unix", "--shards", "2",
             "--slabs", "2", "--cache", kCacheBytes, "--by-tile",
             "--tiles", "2x2", "--socket-dir", "fleet"};
  s.engine_threads = 1;
  s.engine_slabs = 2;
  s.cache_bytes = 268435456;
  s.tile_rows = 2;
  s.tile_cols = 2;
  s.shards = 2;
  return s;
}

// explore_cold: one connection; every request carries a never-seen
// population inline. Metric rotates L-inf, L1, L2; the city alternates
// NYC, LA, so each metric sees both cities in turn.
void MakeExplore(Generator& g, Inputs* in) {
  in->server = SingleServer();
  ConnectionScript conn;
  const Metric metrics[] = {Metric::kLInf, Metric::kL1, Metric::kL2};
  for (int i = 0; i < kExploreFrames; ++i) {
    const Metric metric = metrics[i % 3];
    const int city = i % 2;
    const rnnhm::Workload w =
        g.Sample(city, metric == Metric::kL2 ? kExploreL2 : kExploreRect);
    const Rect domain = rnnhm::BoundingBox(w.clients, 0.02);
    auto set = g.Circles(w, metric);
    Frame f = g.Plain(*set, domain, kExploreSize, /*inline_circles=*/true);
    f.city = city;
    if (i < 6) {
      f.check = g.AddCheck(set, domain, kExploreSize,
                           std::string("explore ") + MetricTag(metric) + " " +
                               CityName(city) + " #" + std::to_string(i));
      g.AddSample(metric, w, domain, kExploreSize);
    }
    conn.frames.push_back(std::move(f));
  }
  in->connections.push_back(std::move(conn));
}

// The six pan/zoom windows of a dashboard over `full`: the whole extent,
// four half-size quadrant zooms, and a quarter-size zoom on the centre.
std::vector<Rect> Viewports(const Rect& full) {
  const double w = full.hi.x - full.lo.x;
  const double h = full.hi.y - full.lo.y;
  auto window = [&](double cx, double cy, double scale) {
    const double hw = 0.5 * scale * w;
    const double hh = 0.5 * scale * h;
    const double x = full.lo.x + cx * w;
    const double y = full.lo.y + cy * h;
    return Rect{{x - hw, y - hh}, {x + hw, y + hh}};
  };
  return {full,
          window(0.25, 0.25, 0.5),
          window(0.75, 0.25, 0.5),
          window(0.25, 0.75, 0.5),
          window(0.75, 0.75, 0.5),
          window(0.5, 0.5, 0.25)};
}

// dashboard_hot: a fixed pool of populations x viewports, registered and
// rendered once during set-up, then requested by hash with Zipf-skewed
// popularity from several connections. Every timed request is a cache hit.
void MakeDashboard(Generator& g, Inputs* in) {
  in->server = SingleServer();
  in->connections.resize(kDashConnections);
  ConnectionScript& warm = in->connections[0];
  // One checked item per metric: a seed-chosen population of that metric
  // (population p has metric p mod 3) and viewport.
  int checked_pop[3], checked_view[3];
  for (int m = 0; m < 3; ++m) {
    const int of_metric = (kDashPopulations - m + 2) / 3;
    checked_pop[m] = m + 3 * static_cast<int>(g.rng().NextBounded(of_metric));
    checked_view[m] = static_cast<int>(g.rng().NextBounded(kDashViewports));
  }
  Generator pool_gen(kDashPoolSeed, in);
  std::vector<Frame> pool;
  std::vector<int> checked_item(3, -1);
  for (int p = 0; p < kDashPopulations; ++p) {
    const Metric metric = static_cast<Metric>(p % 3);
    const rnnhm::Workload w =
        pool_gen.Sample(p % 2, metric == Metric::kL2 ? kDashL2 : kDashRect);
    const Rect full = rnnhm::BoundingBox(w.clients, 0.02);
    auto set = g.Circles(w, metric);
    const std::vector<Rect> views = Viewports(full);
    for (int v = 0; v < kDashViewports; ++v) {
      warm.warmup.push_back(g.Plain(*set, views[v], kDashSize, v == 0));
      Frame f = g.Plain(*set, views[v], kDashSize, /*inline_circles=*/false);
      f.city = p % 2;
      if (p == checked_pop[p % 3] && v == checked_view[p % 3]) {
        checked_item[p % 3] = static_cast<int>(pool.size());
        f.check = g.AddCheck(set, views[v], kDashSize,
                             std::string("dashboard ") + MetricTag(metric) +
                                 " pool item " + std::to_string(pool.size()));
        g.AddSample(metric, w, full, kDashSize);
      }
      pool.push_back(std::move(f));
    }
  }
  // Zipf popularity over a seed-shuffled ranking, except that each
  // checked item takes one of the three most popular ranks so its
  // response is certain to be observed.
  std::vector<uint32_t> ranking(pool.size());
  for (size_t i = 0; i < ranking.size(); ++i) {
    ranking[i] = static_cast<uint32_t>(i);
  }
  for (size_t i = ranking.size() - 1; i > 0; --i) {
    std::swap(ranking[i], ranking[g.rng().NextBounded(i + 1)]);
  }
  for (int m = 0; m < 3; ++m) {
    const auto it = std::find(ranking.begin(), ranking.end(),
                              static_cast<uint32_t>(checked_item[m]));
    std::iter_swap(ranking.begin() + m, it);
  }
  std::vector<double> cdf(pool.size());
  double total = 0.0;
  for (size_t r = 0; r < pool.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kDashZipfExponent);
    cdf[r] = total;
  }
  for (int c = 0; c < kDashConnections; ++c) {
    ConnectionScript& conn = in->connections[c];
    conn.frames = pool;
    conn.order.resize(kDashOrderLength);
    for (uint32_t& slot : conn.order) {
      const double u = g.rng().NextDouble() * total;
      const size_t r = static_cast<size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      slot = ranking[std::min(r, pool.size() - 1)];
    }
  }
}

// wall_tiled: one connection through the by-tile router; never-seen large
// maps alternating L-inf and L2, the city alternating every pair.
void MakeWall(Generator& g, Inputs* in) {
  in->server = TileRouter();
  ConnectionScript conn;
  for (int i = 0; i < kWallFrames; ++i) {
    const Metric metric = i % 2 == 0 ? Metric::kLInf : Metric::kL2;
    const int city = (i / 2) % 2;
    const rnnhm::Workload w =
        g.Sample(city, metric == Metric::kL2 ? kWallL2 : kWallLInf);
    const Rect domain = rnnhm::BoundingBox(w.clients, 0.02);
    auto set = g.Circles(w, metric);
    Frame f = g.Plain(*set, domain, kWallSize, /*inline_circles=*/true);
    f.city = city;
    if (i < 2) {
      f.check = g.AddCheck(set, domain, kWallSize,
                           std::string("wall ") + MetricTag(metric) + " #" +
                               std::to_string(i));
      g.AddSample(metric, w, domain, kWallSize);
      if (metric == Metric::kLInf) g.AddSample(Metric::kL1, w, domain, kWallSize);
    }
    conn.frames.push_back(std::move(f));
  }
  in->connections.push_back(std::move(conn));
}

}  // namespace

const char* MetricTag(Metric metric) {
  switch (metric) {
    case Metric::kLInf:
      return "linf";
    case Metric::kL1:
      return "l1";
    case Metric::kL2:
      return "l2";
  }
  return "?";
}

std::vector<uint8_t> WithLengthPrefix(const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> wire(4 + payload.size());
  const uint32_t n = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) wire[i] = static_cast<uint8_t>(n >> (8 * i));
  std::memcpy(wire.data() + 4, payload.data(), payload.size());
  return wire;
}

bool MakeInputs(const std::string& workload, uint64_t seed, Inputs* out) {
  *out = Inputs{};
  Generator g(seed * 0x9e3779b97f4a7c15ULL + 0x5eed, out);
  if (workload == "explore_cold") {
    MakeExplore(g, out);
  } else if (workload == "dashboard_hot") {
    MakeDashboard(g, out);
  } else if (workload == "wall_tiled") {
    MakeWall(g, out);
  } else {
    return false;
  }
  return true;
}

}  // namespace servebench
