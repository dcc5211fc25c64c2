// Wire-delta differential tests: a randomized session replay shipped as
// v4 delta frames must leave every server holding exactly the circles a
// from-scratch client would, and every served raster must be
// bit-identical to the sequential from-scratch build — per tick, at
// every slab decomposition, and through a forked 2-shard router whose
// delta frames hop shards by base-hash affinity.
//
// The router harness forks its fleet FIRST, while the test process is
// still single-threaded (same contract as shard_router_test.cc).
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "heatmap/heatmap.h"
#include "heatmap/influence.h"
#include "query/circle_set_registry.h"
#include "query/heatmap_engine.h"
#include "query/heatmap_session.h"
#include "query/wire.h"
#include "serve/options.h"
#include "serve/shard_router.h"
#include "serve/transport.h"
#include "serve/wire_server.h"

namespace rnnhm {
namespace {

const Rect kDomain{{-0.1, -0.1}, {1.1, 1.1}};
constexpr int kSize = 28;
constexpr int kNumDeltas = 40;

std::vector<Point> RandomPoints(int n, Rng& rng) {
  std::vector<Point> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    out.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  return out;
}

// One replay's worth of ground truth: the frames that travel and the
// circle vector the server must be holding after each of them.
struct ReplayCorpus {
  std::vector<std::vector<uint8_t>> frames;    // [0] inline, then deltas
  std::vector<std::vector<NnCircle>> circles;  // state after frames[i]
  std::vector<uint64_t> hashes;                // content hash per tick
};

// Mirrors `rnnhm wire-pack --deltas`: a HeatmapSession replays random
// edits with the journal on; every tick ships as one delta frame naming
// the previous tick's hash and carrying the drained edit journal.
ReplayCorpus BuildReplay(Metric metric, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> clients = RandomPoints(30, rng);
  std::vector<Point> facilities = RandomPoints(6, rng);
  HeatmapSession session(std::move(clients), std::move(facilities), metric);
  ReplayCorpus corpus;
  const auto base = CircleSetSnapshot::Make(session.circles(), metric);
  corpus.frames.push_back(EncodeRequest(MakeWireRequest(
      *base, kDomain, kSize, kSize, /*include_circles=*/true)));
  corpus.circles.push_back(session.circles());
  corpus.hashes.push_back(base->content_hash());
  session.EnableEditJournal();
  uint64_t prev_hash = base->content_hash();
  for (int tick = 0; tick < kNumDeltas; ++tick) {
    const double dice = rng.NextDouble();
    if (dice < 0.55) {
      session.MoveClient(
          static_cast<int32_t>(rng.NextBounded(session.num_clients())),
          {rng.Uniform(0, 1), rng.Uniform(0, 1)});
    } else if (dice < 0.75) {
      session.AddClient({rng.Uniform(0, 1), rng.Uniform(0, 1)});
    } else if (dice < 0.9 || session.num_facilities() < 2) {
      session.AddFacility({rng.Uniform(0, 1), rng.Uniform(0, 1)});
    } else {
      session.RemoveFacility(
          static_cast<int32_t>(rng.NextBounded(session.num_facilities())));
    }
    WireDeltaRequest delta;
    delta.metric = metric;
    delta.base_hash = prev_hash;
    delta.edits = session.TakeCircleEdits();
    delta.new_hash = HashCircleSet(session.circles(), metric);
    delta.domain = kDomain;
    delta.width = kSize;
    delta.height = kSize;
    corpus.frames.push_back(EncodeDeltaRequest(delta));
    corpus.circles.push_back(session.circles());
    corpus.hashes.push_back(delta.new_hash);
    prev_hash = delta.new_hash;
  }
  return corpus;
}

TEST(WireDeltaDifferentialTest, ReplayMatchesFromScratchAtEverySlabCount) {
  for (const Metric metric : {Metric::kLInf, Metric::kL2, Metric::kL1}) {
    SCOPED_TRACE("metric " + std::to_string(static_cast<int>(metric)));
    const ReplayCorpus corpus = BuildReplay(metric, 77);
    for (const int slabs : {1, 2, 4, 8}) {
      SCOPED_TRACE("slabs " + std::to_string(slabs));
      SizeInfluence measure;
      HeatmapEngineOptions options;
      options.num_threads = 1;
      options.slabs_per_request = slabs;
      options.cache_bytes = 16 << 20;  // keeps every tick's raster spliceable
      HeatmapEngine engine(measure, options);
      WireServer server(engine);
      SizeInfluence reference_measure;
      for (size_t i = 0; i < corpus.frames.size(); ++i) {
        const auto reply = server.HandleFrame(corpus.frames[i]);
        std::string error;
        const auto decoded = DecodeResponse(reply, &error);
        ASSERT_TRUE(decoded.has_value()) << error;
        ASSERT_EQ(decoded->status, WireStatus::kOk)
            << "tick " << i << ": " << decoded->error;
        // The reference is always the sequential from-scratch recipe over
        // the tick's full circle vector — no deltas, no slabs, no cache.
        const HeatmapGrid reference =
            BuildHeatmapForMetric(metric, corpus.circles[i], reference_measure,
                                  kDomain, kSize, kSize);
        ASSERT_EQ(decoded->response->grid.values(), reference.values())
            << "tick " << i;
      }
      EXPECT_EQ(server.stats().deltas, static_cast<uint64_t>(kNumDeltas));
      EXPECT_EQ(server.stats().errors, 0u);
      // Same geometry every tick, so every delta deriving a set not seen
      // before takes the splice path — for every metric, L1 included; a
      // tick whose edits change nothing (e.g. a facility that shrinks no
      // circle) re-derives an already-cached hash and is answered from
      // the result cache.
      uint64_t fresh = 0;
      for (size_t i = 1; i < corpus.hashes.size(); ++i) {
        bool seen = false;
        for (size_t j = 0; j < i; ++j) {
          seen = seen || corpus.hashes[j] == corpus.hashes[i];
        }
        if (!seen) ++fresh;
      }
      EXPECT_EQ(server.stats().delta_splices, fresh);
    }
  }
}

// --- The 2-shard router leg ----------------------------------------------

class RouterHarness {
 public:
  ~RouterHarness() {
    if (router_ != nullptr && thread_.joinable()) Stop();
    // The router's front listener unlinks front.sock and the fleet's
    // shutdown its shard sockets; the directory itself is the harness's.
    router_.reset();
    fleet_.Shutdown();
    if (!options_.socket_dir.empty()) ::rmdir(options_.socket_dir.c_str());
  }

  Status Start(int num_shards, int worker_slabs) {
    options_.transport = TransportKind::kUnix;
    options_.num_shards = num_shards;
    options_.threads = 1;
    options_.slabs = worker_slabs;
    options_.idle_timeout_ms = 0;
    options_.drain_timeout_ms = 2000;
    options_.socket_dir = "/tmp/rnnhm-delta-diff-test-" +
                          std::to_string(::getpid()) + "-" +
                          std::to_string(++harness_counter_);
    // Fork the workers before this process grows any threads.
    if (const Status status = ShardFleet::Spawn(options_, &fleet_);
        !status.ok()) {
      return status;
    }
    front_path_ = options_.socket_dir + "/front.sock";
    Listener front;
    if (const Status status = Listener::ListenUnix(front_path_, &front);
        !status.ok()) {
      return status;
    }
    router_ = std::make_unique<ShardRouter>(std::move(front),
                                            fleet_.socket_paths(), options_);
    thread_ = std::thread([this] { result_ = router_->Run(); });
    return Status::Ok();
  }

  Status Connect(int* fd) const { return ConnectUnix(front_path_, fd); }

  Status Stop() {
    router_->RequestShutdown();
    thread_.join();
    fleet_.Shutdown();
    return result_;
  }

 private:
  static int harness_counter_;

  ServeOptions options_;
  ShardFleet fleet_;
  std::string front_path_;
  std::unique_ptr<ShardRouter> router_;
  std::thread thread_;
  Status result_;
};

int RouterHarness::harness_counter_ = 0;

Status RoundTrip(int fd, const std::vector<uint8_t>& request,
                 std::vector<uint8_t>* response) {
  if (const Status status = SendFrame(fd, request); !status.ok()) {
    return status;
  }
  return RecvFrame(fd, response);
}

TEST(WireDeltaDifferentialTest, ReplayThroughATwoShardRouterMatches) {
  // Fork first — the corpus and reference builds come after.
  RouterHarness harness;
  ASSERT_TRUE(harness.Start(/*num_shards=*/2, /*worker_slabs=*/2).ok());
  int fd = -1;
  ASSERT_TRUE(harness.Connect(&fd).ok());

  const Metric metric = Metric::kLInf;
  const ReplayCorpus corpus = BuildReplay(metric, 78);
  SizeInfluence measure;
  for (size_t i = 0; i < corpus.frames.size(); ++i) {
    std::vector<uint8_t> reply;
    ASSERT_TRUE(RoundTrip(fd, corpus.frames[i], &reply).ok()) << "tick " << i;
    std::string error;
    const auto decoded = DecodeResponse(reply, &error);
    ASSERT_TRUE(decoded.has_value()) << error;
    // Every delta names the previous tick's derived set as its base; the
    // chain only survives if the router pins each derived hash to the
    // shard that applied the delta (hash % 2 would scatter it).
    ASSERT_EQ(decoded->status, WireStatus::kOk)
        << "tick " << i << ": " << decoded->error;
    const HeatmapGrid reference = BuildHeatmapForMetric(
        metric, corpus.circles[i], measure, kDomain, kSize, kSize);
    ASSERT_EQ(decoded->response->grid.values(), reference.values())
        << "tick " << i;
  }

  // Derived-hash affinity also covers plain by-hash requests: the final
  // tick's set was registered by a delta, never inline.
  const auto final_set =
      CircleSetSnapshot::Make(corpus.circles.back(), metric);
  ASSERT_EQ(final_set->content_hash(), corpus.hashes.back());
  std::vector<uint8_t> reply;
  ASSERT_TRUE(RoundTrip(fd,
                        EncodeRequest(MakeWireRequest(
                            *final_set, kDomain, kSize, kSize,
                            /*include_circles=*/false)),
                        &reply)
                  .ok());
  std::string error;
  const auto by_hash = DecodeResponse(reply, &error);
  ASSERT_TRUE(by_hash.has_value()) << error;
  EXPECT_EQ(by_hash->status, WireStatus::kOk) << by_hash->error;

  // The merged fleet stats account for every delta the replay shipped.
  ASSERT_TRUE(RoundTrip(fd, EncodeStatsRequest(), &reply).ok());
  const auto stats = DecodeStatsResponse(reply, &error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ(stats->shards, 2u);
  EXPECT_EQ(stats->deltas, static_cast<uint64_t>(kNumDeltas));
  EXPECT_EQ(stats->errors, 0u);

  ::close(fd);
  EXPECT_TRUE(harness.Stop().ok());
}

}  // namespace
}  // namespace rnnhm
