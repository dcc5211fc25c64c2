// Shard-router differential tests: a forked 2-shard fleet behind the
// routing front must serve responses bit-identical to a direct
// HeatmapEngine::Execute, keep hash affinity (same set -> same shard, so
// inline-once registration works across processes), preserve per-client
// submission order, and merge stats across the fleet.
//
// Every harness forks its fleet FIRST, while the test process is still
// single-threaded — the router thread and any reference engines come
// after (fork must not carry sibling threads' lock state into workers).
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "heatmap/influence.h"
#include "query/circle_set_registry.h"
#include "query/heatmap_engine.h"
#include "query/wire.h"
#include "query/wire_layout.h"
#include "serve/options.h"
#include "serve/shard_router.h"
#include "serve/transport.h"

namespace rnnhm {
namespace {

std::vector<NnCircle> MakeCircles(uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<NnCircle> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    out.push_back(NnCircle{{rng.Uniform(0, 1), rng.Uniform(0, 1)},
                           rng.Uniform(0.02, 0.2), i});
  }
  return out;
}

const Rect kDomain{{-0.1, -0.1}, {1.1, 1.1}};

// Fleet + router front on a Unix socket, router loop on its own thread.
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

  /// tile_rows > 0 switches the router into by-tile mode with that grid.
  Status Start(int num_shards, int worker_slabs, int tile_rows = 0,
               int tile_cols = 0) {
    options_.transport = TransportKind::kUnix;
    options_.num_shards = num_shards;
    options_.threads = 1;
    options_.slabs = worker_slabs;
    options_.idle_timeout_ms = 0;
    options_.drain_timeout_ms = 2000;
    if (tile_rows > 0) {
      options_.route_by_tile = true;
      options_.tile_rows = tile_rows;
      options_.tile_cols = tile_cols;
    }
    options_.socket_dir = "/tmp/rnnhm-router-test-" +
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

  int num_shards() const { return fleet_.num_shards(); }
  pid_t worker_pid(int shard) const { return fleet_.worker_pid(shard); }

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

// Sends one request through the router and expects a kOk heat map back.
HeatmapGrid RoutedGrid(int fd, const WireRequest& request) {
  std::vector<uint8_t> reply;
  const Status status = RoundTrip(fd, EncodeRequest(request), &reply);
  EXPECT_TRUE(status.ok()) << status.ToString();
  std::string error;
  const auto decoded = DecodeResponse(reply, &error);
  EXPECT_TRUE(decoded.has_value()) << error;
  if (decoded.has_value()) {
    EXPECT_EQ(decoded->status, WireStatus::kOk) << decoded->error;
    if (decoded->response.has_value()) return decoded->response->grid;
  }
  return HeatmapGrid(1, 1, kDomain);
}

TEST(ShardRouterTest, RoutedResponsesAreBitIdenticalToDirectExecute) {
  // The differential corpus: every metric, workers sweeping with every
  // slab decomposition. The reference engine always runs the sequential
  // single-slab path — the routed raster must match it bit for bit.
  const Metric metrics[] = {Metric::kLInf, Metric::kL1, Metric::kL2};
  for (const int slabs : {1, 2, 4, 8}) {
    SCOPED_TRACE("worker slabs " + std::to_string(slabs));
    RouterHarness harness;
    ASSERT_TRUE(harness.Start(/*num_shards=*/2, slabs).ok());
    int fd = -1;
    ASSERT_TRUE(harness.Connect(&fd).ok());

    SizeInfluence measure;
    HeatmapEngineOptions reference_options;
    reference_options.num_threads = 1;
    HeatmapEngine reference(measure, reference_options);

    for (size_t m = 0; m < std::size(metrics); ++m) {
      SCOPED_TRACE("metric " + std::to_string(m));
      const auto set = CircleSetSnapshot::Make(
          MakeCircles(100 + 10 * slabs + m, 40), metrics[m]);
      const CircleSetHandle handle =
          reference.registry().Register(set->circles(), set->metric());
      // Inline once, then by hash — different rasters each time.
      bool inline_circles = true;
      for (const int size : {24, 33, 48}) {
        const HeatmapGrid routed = RoutedGrid(
            fd, MakeWireRequest(*set, kDomain, size, size, inline_circles));
        inline_circles = false;
        const HeatmapResponse direct =
            reference.Execute(HeatmapRequestV2{handle, kDomain, size, size});
        ASSERT_EQ(routed.width(), size);
        ASSERT_EQ(routed.height(), size);
        EXPECT_EQ(routed.values(), direct.grid.values());
      }
    }
    ::close(fd);
    EXPECT_TRUE(harness.Stop().ok());
  }
}

TEST(ShardRouterTest, HashAffinityKeepsByHashRequestsResolvable) {
  // Register several distinct sets inline-once, covering both shards,
  // then hammer each with by-hash requests: if routing were not a pure
  // function of the content hash, some request would land on a shard
  // that never saw the set and fail with kUnknownCircleSet.
  RouterHarness harness;
  ASSERT_TRUE(harness.Start(/*num_shards=*/2, /*worker_slabs=*/1).ok());
  int fd = -1;
  ASSERT_TRUE(harness.Connect(&fd).ok());

  std::map<uint64_t, int> sets_per_shard;
  constexpr int kSets = 6;
  for (int i = 0; i < kSets; ++i) {
    const auto set =
        CircleSetSnapshot::Make(MakeCircles(200 + i, 12), Metric::kLInf);
    ++sets_per_shard[set->content_hash() % 2];
    std::vector<uint8_t> reply;
    ASSERT_TRUE(
        RoundTrip(fd, EncodeRequest(MakeWireRequest(*set, kDomain, 8, 8, true)),
                  &reply)
            .ok());
    for (int j = 0; j < 3; ++j) {
      std::string error;
      const auto decoded = DecodeResponse(reply, &error);
      ASSERT_TRUE(decoded.has_value()) << error;
      EXPECT_EQ(decoded->status, WireStatus::kOk) << decoded->error;
      ASSERT_TRUE(RoundTrip(fd,
                            EncodeRequest(MakeWireRequest(*set, kDomain, 8, 8,
                                                          /*include=*/false)),
                            &reply)
                      .ok());
    }
  }
  // The seeds above really did exercise both shards.
  EXPECT_EQ(sets_per_shard.size(), 2u);

  // A hash nobody registered errors instead of hanging or misrouting.
  const auto stranger =
      CircleSetSnapshot::Make(MakeCircles(999, 12), Metric::kLInf);
  std::vector<uint8_t> reply;
  ASSERT_TRUE(RoundTrip(fd,
                        EncodeRequest(MakeWireRequest(*stranger, kDomain, 8, 8,
                                                      /*include=*/false)),
                        &reply)
                  .ok());
  std::string error;
  const auto decoded = DecodeResponse(reply, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->status, WireStatus::kUnknownCircleSet);

  // A frame the router cannot even peek a hash from is answered by the
  // router itself, as a malformed-request error.
  std::vector<uint8_t> garbage(80, 0xAB);
  ASSERT_TRUE(RoundTrip(fd, garbage, &reply).ok());
  const auto garbage_reply = DecodeResponse(reply, &error);
  ASSERT_TRUE(garbage_reply.has_value()) << error;
  EXPECT_EQ(garbage_reply->status, WireStatus::kMalformedRequest);

  ::close(fd);
  EXPECT_TRUE(harness.Stop().ok());
}

TEST(ShardRouterTest, ResponsesComeBackInSubmissionOrder) {
  // Interleave a burst of requests over two sets (usually living on
  // different shards) without reading a single response: the router's
  // per-client reorder buffer must hand the responses back in submission
  // order even though the two shards drain independently. Each request
  // uses a distinct raster size, so order is visible in the responses.
  RouterHarness harness;
  ASSERT_TRUE(harness.Start(/*num_shards=*/2, /*worker_slabs=*/1).ok());
  int fd = -1;
  ASSERT_TRUE(harness.Connect(&fd).ok());

  const auto set_a =
      CircleSetSnapshot::Make(MakeCircles(301, 30), Metric::kL2);
  const auto set_b =
      CircleSetSnapshot::Make(MakeCircles(302, 30), Metric::kL1);
  constexpr int kBurst = 16;
  std::vector<int> widths;
  for (int i = 0; i < kBurst; ++i) {
    const auto& set = (i % 2 == 0) ? set_a : set_b;
    const int width = 8 + i;  // distinct per request
    widths.push_back(width);
    ASSERT_TRUE(SendFrame(fd, EncodeRequest(MakeWireRequest(
                                  *set, kDomain, width, width,
                                  /*include_circles=*/i < 2)))
                    .ok());
  }
  for (int i = 0; i < kBurst; ++i) {
    std::vector<uint8_t> reply;
    ASSERT_TRUE(RecvFrame(fd, &reply).ok()) << "response " << i;
    std::string error;
    const auto decoded = DecodeResponse(reply, &error);
    ASSERT_TRUE(decoded.has_value()) << error;
    ASSERT_EQ(decoded->status, WireStatus::kOk) << decoded->error;
    EXPECT_EQ(decoded->response->grid.width(), widths[i])
        << "response " << i << " out of order";
  }
  ::close(fd);
  EXPECT_TRUE(harness.Stop().ok());
}

TEST(ShardRouterTest, StatsFanOutMergesTheWholeFleet) {
  RouterHarness harness;
  ASSERT_TRUE(harness.Start(/*num_shards=*/2, /*worker_slabs=*/1).ok());
  int fd = -1;
  ASSERT_TRUE(harness.Connect(&fd).ok());

  // Register two sets (one inline request each) and fan a few by-hash
  // requests over them.
  constexpr int kPerSet = 3;
  int total = 0;
  for (int s = 0; s < 2; ++s) {
    const auto set =
        CircleSetSnapshot::Make(MakeCircles(400 + s, 15), Metric::kLInf);
    for (int i = 0; i < kPerSet; ++i) {
      std::vector<uint8_t> reply;
      ASSERT_TRUE(RoundTrip(fd,
                            EncodeRequest(MakeWireRequest(*set, kDomain, 10, 10,
                                                          /*include=*/i == 0)),
                            &reply)
                      .ok());
      ++total;
    }
  }

  std::vector<uint8_t> reply;
  ASSERT_TRUE(RoundTrip(fd, EncodeStatsRequest(), &reply).ok());
  std::string error;
  const auto stats = DecodeStatsResponse(reply, &error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ(stats->shards, 2u);
  // Every shard counts the fanned-out stats request it answered, so the
  // merged totals are the heat-map requests plus one per shard.
  EXPECT_EQ(stats->requests, static_cast<uint64_t>(total + 2));
  EXPECT_EQ(stats->ok, static_cast<uint64_t>(total + 2));
  EXPECT_EQ(stats->errors, 0u);
  EXPECT_EQ(stats->sets_registered, 2u);

  ::close(fd);
  EXPECT_TRUE(harness.Stop().ok());
}

TEST(ShardRouterTest, ByTileRoutingIsBitIdenticalToDirectExecute) {
  // By-tile mode: the router decomposes each plain request into tile
  // sub-requests (shard = tile_id % N) and stitches the returned
  // fragments — the reassembled grid must match a direct single-engine
  // Execute bit for bit, for every metric, inline and by hash.
  RouterHarness harness;
  ASSERT_TRUE(
      harness.Start(/*num_shards=*/2, /*worker_slabs=*/2, 3, 3).ok());
  int fd = -1;
  ASSERT_TRUE(harness.Connect(&fd).ok());

  SizeInfluence measure;
  HeatmapEngineOptions reference_options;
  reference_options.num_threads = 1;
  HeatmapEngine reference(measure, reference_options);

  const Metric metrics[] = {Metric::kLInf, Metric::kL1, Metric::kL2};
  for (size_t m = 0; m < std::size(metrics); ++m) {
    SCOPED_TRACE("metric " + std::to_string(m));
    const auto set =
        CircleSetSnapshot::Make(MakeCircles(500 + m, 40), metrics[m]);
    const CircleSetHandle handle =
        reference.registry().Register(set->circles(), set->metric());
    // The inline fan-out registers the set on every shard that owns a
    // tile, so the later by-hash requests resolve everywhere.
    bool inline_circles = true;
    for (const int size : {24, 33}) {
      const HeatmapGrid routed = RoutedGrid(
          fd, MakeWireRequest(*set, kDomain, size, size, inline_circles));
      inline_circles = false;
      const HeatmapResponse direct =
          reference.Execute(HeatmapRequestV2{handle, kDomain, size, size});
      ASSERT_EQ(routed.width(), size);
      ASSERT_EQ(routed.height(), size);
      EXPECT_EQ(routed.values(), direct.grid.values());
    }
  }
  ::close(fd);
  EXPECT_TRUE(harness.Stop().ok());
}

TEST(ShardRouterTest, ByTileStitchEncodesTheSameGridBytesAsOneEngine) {
  // The grid encoding is a pure function of the pixels: the router's
  // stitched map (fragments packed by the shards, widened, stitched and
  // packed again) carries byte-for-byte the grid blob a single engine
  // sends for the same map, counts included.
  RouterHarness harness;
  ASSERT_TRUE(
      harness.Start(/*num_shards=*/2, /*worker_slabs=*/1, 2, 2).ok());
  int fd = -1;
  ASSERT_TRUE(harness.Connect(&fd).ok());

  SizeInfluence measure;
  HeatmapEngineOptions reference_options;
  reference_options.num_threads = 1;
  reference_options.cache_bytes = 8 << 20;
  HeatmapEngine reference(measure, reference_options);
  const size_t grid_at = wire_layout::kResponseHeaderBytes +
                         wire_layout::kResponseStatsWords * sizeof(uint64_t);

  const Metric metrics[] = {Metric::kLInf, Metric::kL1, Metric::kL2};
  for (size_t m = 0; m < std::size(metrics); ++m) {
    SCOPED_TRACE("metric " + std::to_string(m));
    const auto set =
        CircleSetSnapshot::Make(MakeCircles(700 + m, 40), metrics[m]);
    std::vector<uint8_t> routed;
    ASSERT_TRUE(RoundTrip(fd,
                          EncodeRequest(MakeWireRequest(*set, kDomain, 31, 31,
                                                        /*include_circles=*/
                                                        true)),
                          &routed)
                    .ok());
    const CircleSetHandle handle =
        reference.registry().Register(set->circles(), set->metric());
    std::optional<PackedHeatmapResponse> direct;
    ASSERT_TRUE(reference
                    .ExecuteChecked(HeatmapRequestV2{handle, kDomain, 31, 31},
                                    &direct)
                    .ok());
    ASSERT_TRUE(direct->grid->is_counts());
    const std::vector<uint8_t> want = EncodeResponse(*direct);
    ASSERT_GT(routed.size(), grid_at);
    EXPECT_EQ(std::vector<uint8_t>(routed.begin() + grid_at, routed.end()),
              std::vector<uint8_t>(want.begin() + grid_at, want.end()));
  }
  ::close(fd);
  EXPECT_TRUE(harness.Stop().ok());
}

TEST(ShardRouterTest, ByTileStatsCountTileFragmentsAcrossTheFleet) {
  // One plain request through a 2x2 by-tile router fans four tile
  // sub-requests across the fleet; the merged stats must report them as
  // tile requests/fragments (both shards contribute).
  RouterHarness harness;
  ASSERT_TRUE(
      harness.Start(/*num_shards=*/2, /*worker_slabs=*/1, 2, 2).ok());
  int fd = -1;
  ASSERT_TRUE(harness.Connect(&fd).ok());

  const auto set =
      CircleSetSnapshot::Make(MakeCircles(600, 20), Metric::kLInf);
  std::vector<uint8_t> reply;
  ASSERT_TRUE(RoundTrip(fd,
                        EncodeRequest(MakeWireRequest(*set, kDomain, 16, 16,
                                                      /*include=*/true)),
                        &reply)
                  .ok());
  std::string error;
  const auto decoded = DecodeResponse(reply, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  ASSERT_EQ(decoded->status, WireStatus::kOk) << decoded->error;

  ASSERT_TRUE(RoundTrip(fd, EncodeStatsRequest(), &reply).ok());
  const auto stats = DecodeStatsResponse(reply, &error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ(stats->shards, 2u);
  EXPECT_EQ(stats->tile_requests, 4u);
  EXPECT_EQ(stats->tile_fragments, 4u);
  // Every shard saw the inline circles once (tile_id % 2 covers both).
  EXPECT_EQ(stats->sets_registered, 2u);
  EXPECT_EQ(stats->errors, 0u);

  ::close(fd);
  EXPECT_TRUE(harness.Stop().ok());
}

TEST(ShardRouterTest, ByTileKilledShardYieldsOneErrorNotAPartialGrid) {
  // Kill a worker out from under the router, then route a request whose
  // fan-out needs it: the reply must be a single error response — never
  // a stitched grid missing the dead shard's tiles.
  RouterHarness harness;
  ASSERT_TRUE(
      harness.Start(/*num_shards=*/2, /*worker_slabs=*/1, 2, 2).ok());
  int fd = -1;
  ASSERT_TRUE(harness.Connect(&fd).ok());

  const auto set =
      CircleSetSnapshot::Make(MakeCircles(700, 20), Metric::kL2);
  // A healthy round-trip first, so the kill really happens mid-stream.
  std::vector<uint8_t> reply;
  ASSERT_TRUE(RoundTrip(fd,
                        EncodeRequest(MakeWireRequest(*set, kDomain, 12, 12,
                                                      /*include=*/true)),
                        &reply)
                  .ok());
  std::string error;
  auto decoded = DecodeResponse(reply, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  ASSERT_EQ(decoded->status, WireStatus::kOk) << decoded->error;

  ASSERT_EQ(::kill(harness.worker_pid(1), SIGKILL), 0);

  // Whether the router has already noticed the death (alive pre-check
  // refuses to fan) or discovers it when the shard connection drops
  // (FailShard resolves the outstanding fragments), the client gets
  // exactly one well-formed error response.
  ASSERT_TRUE(RoundTrip(fd,
                        EncodeRequest(MakeWireRequest(*set, kDomain, 12, 12,
                                                      /*include=*/true)),
                        &reply)
                  .ok());
  decoded = DecodeResponse(reply, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_NE(decoded->status, WireStatus::kOk);
  EXPECT_FALSE(decoded->response.has_value());

  ::close(fd);
  EXPECT_TRUE(harness.Stop().ok());
}

TEST(ShardRouterTest, ByTileOversizedRasterIsRefusedAndTheConnectionServesOn) {
  // A by-tile router allocates the stitched grid itself before any shard
  // sees the frame, so the pixel ceiling must hold at decode: a
  // well-formed request whose raster could never be allocated gets
  // kMalformedRequest, and the same connection keeps serving.
  RouterHarness harness;
  ASSERT_TRUE(
      harness.Start(/*num_shards=*/2, /*worker_slabs=*/1, 2, 2).ok());
  int fd = -1;
  ASSERT_TRUE(harness.Connect(&fd).ok());

  const auto set =
      CircleSetSnapshot::Make(MakeCircles(800, 16), Metric::kLInf);
  WireRequest oversized =
      MakeWireRequest(*set, kDomain, 1, 1, /*include_circles=*/false);
  oversized.width = std::numeric_limits<int32_t>::max();
  oversized.height = std::numeric_limits<int32_t>::max();
  std::vector<uint8_t> reply;
  ASSERT_TRUE(RoundTrip(fd, EncodeRequest(oversized), &reply).ok());
  std::string error;
  const auto decoded = DecodeResponse(reply, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->status, WireStatus::kMalformedRequest);

  const HeatmapGrid routed = RoutedGrid(
      fd, MakeWireRequest(*set, kDomain, 16, 16, /*include_circles=*/true));
  EXPECT_EQ(routed.width(), 16);
  EXPECT_EQ(routed.height(), 16);

  ::close(fd);
  EXPECT_TRUE(harness.Stop().ok());
}

TEST(ShardFleetTest, WorkersExitWhenTheSpawnerIsKilled) {
  // A helper process spawns a 1-shard fleet, reports the worker's pid and
  // is SIGKILLed, so it never runs Shutdown. As the subreaper, this
  // process inherits the orphaned worker and can tell when it exits.
  ASSERT_EQ(::prctl(PR_SET_CHILD_SUBREAPER, 1), 0);
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  const std::string dir =
      "/tmp/rnnhm-orphan-test-" + std::to_string(::getpid());
  const pid_t helper = ::fork();
  ASSERT_GE(helper, 0);
  if (helper == 0) {
    ::close(pipe_fds[0]);
    ServeOptions options;
    options.transport = TransportKind::kUnix;
    options.num_shards = 1;
    options.threads = 1;
    options.slabs = 1;
    options.socket_dir = dir;
    ShardFleet fleet;
    if (!ShardFleet::Spawn(options, &fleet).ok()) std::_Exit(1);
    const pid_t worker = fleet.worker_pid(0);
    if (::write(pipe_fds[1], &worker, sizeof worker) != sizeof worker) {
      std::_Exit(1);
    }
    for (;;) ::pause();  // until SIGKILLed
  }
  ::close(pipe_fds[1]);
  pid_t worker = -1;
  const ssize_t got = ::read(pipe_fds[0], &worker, sizeof worker);
  ::close(pipe_fds[0]);
  ::kill(helper, SIGKILL);
  ::waitpid(helper, nullptr, 0);
  ASSERT_EQ(got, static_cast<ssize_t>(sizeof worker));

  bool exited = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (::waitpid(worker, nullptr, WNOHANG) == worker) {
      exited = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!exited) {
    ::kill(worker, SIGKILL);
    ::waitpid(worker, nullptr, 0);
  }
  EXPECT_TRUE(exited) << "shard worker " << worker
                      << " outlived its spawner";
  ::prctl(PR_SET_CHILD_SUBREAPER, 0);
  ::unlink((dir + "/shard-0.sock").c_str());
  ::rmdir(dir.c_str());
}

}  // namespace
}  // namespace rnnhm
