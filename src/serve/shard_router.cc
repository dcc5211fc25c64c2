#include "serve/shard_router.h"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <thread>
#include <utility>

#include "heatmap/heatmap.h"
#include "heatmap/influence.h"
#include "query/heatmap_engine.h"
#include "query/wire.h"
#include "tile/tile_plan.h"

namespace rnnhm {

// --- ShardFleet -----------------------------------------------------------

namespace {

/// The worker process body: a whole serving stack over the inherited
/// listener. Never returns.
[[noreturn]] void RunShardWorker(Listener listener,
                                 const ServeOptions& options) {
  SizeInfluence measure;
  HeatmapEngineOptions engine_options;
  engine_options.num_threads = options.threads;
  engine_options.slabs_per_request = options.slabs;
  engine_options.cache_bytes = options.cache_bytes;
  // Bounded retention: connections own their registrations (released on
  // disconnect by the per-connection scope), and fully released sets stay
  // resolvable-by-hash up to the retention budget, LRU-evicted past it.
  CircleSetRegistryOptions registry_options;
  registry_options.max_unpinned_entries = options.retain_sets;
  engine_options.registry =
      std::make_shared<CircleSetRegistry>(registry_options);
  HeatmapEngine engine(measure, engine_options);
  ServeOptions worker_options = options;
  // The router holds one long-lived connection per worker; an idle
  // timeout here would sever the fleet under a quiet workload.
  worker_options.idle_timeout_ms = 0;
  EventLoopServer server(std::move(listener), engine, worker_options);
  InstallShutdownSignalHandlers(&server);
  const Status status = server.Run();
  InstallShutdownSignalHandlers(nullptr);
  std::_Exit(status.ok() ? 0 : 1);
}

}  // namespace

ShardFleet::~ShardFleet() { Shutdown(); }

Status ShardFleet::Spawn(const ServeOptions& options, ShardFleet* out) {
  if (options.num_shards <= 0) {
    return Status::InvalidArgument("a fleet needs at least one shard");
  }
  std::string dir = options.socket_dir;
  bool owns_dir = false;
  if (dir.empty()) {
    dir = "/tmp/rnnhm-fleet-" + std::to_string(::getpid());
    owns_dir = true;
  }
  ::mkdir(dir.c_str(), 0700);  // fine if it already exists

  // Bind every listener BEFORE forking: the fleet is connectable the
  // moment Spawn returns — an early connection queues in the backlog
  // until its worker reaches the accept loop.
  std::vector<Listener> listeners(options.num_shards);
  std::vector<std::string> paths;
  for (int i = 0; i < options.num_shards; ++i) {
    const std::string path = dir + "/shard-" + std::to_string(i) + ".sock";
    if (const Status status = Listener::ListenUnix(path, &listeners[i]);
        !status.ok()) {
      return status;
    }
    paths.push_back(path);
  }

  const pid_t spawner = ::getpid();
  std::vector<pid_t> pids;
  for (int i = 0; i < options.num_shards; ++i) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      const Status status = Status::Unavailable(std::string("fork: ") +
                                                std::strerror(errno));
      for (const pid_t child : pids) ::kill(child, SIGKILL);
      for (const pid_t child : pids) ::waitpid(child, nullptr, 0);
      return status;
    }
    if (pid == 0) {
      // Child: die with the spawner, however it ends. The kernel sends
      // SIGTERM (a graceful shutdown) when the forking thread exits; a
      // spawner that died before prctl ran has already reparented us.
      if (::prctl(PR_SET_PDEATHSIG, SIGTERM) != 0 ||
          ::getppid() != spawner) {
        std::_Exit(1);
      }
      // Keep only shard i's listener fd; raw-close the siblings'
      // (no unlink — their owners are still serving on those paths).
      for (int j = 0; j < options.num_shards; ++j) {
        if (j != i) ::close(listeners[j].fd());
      }
      RunShardWorker(std::move(listeners[i]), options);
    }
    pids.push_back(pid);
  }

  // Parent: drop the accepting fds (the children own them now) but keep
  // the paths for post-shutdown cleanup.
  for (Listener& listener : listeners) listener.CloseFdOnly();
  out->Shutdown();  // replace any previous fleet
  out->pids_ = std::move(pids);
  out->socket_paths_ = std::move(paths);
  out->parent_listeners_ = std::move(listeners);
  out->socket_dir_ = dir;
  out->owns_socket_dir_ = owns_dir;
  return Status::Ok();
}

void ShardFleet::Shutdown() {
  if (!pids_.empty()) {
    for (const pid_t pid : pids_) ::kill(pid, SIGTERM);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (const pid_t pid : pids_) {
      for (;;) {
        const pid_t done = ::waitpid(pid, nullptr, WNOHANG);
        if (done == pid || (done < 0 && errno == ECHILD)) break;
        if (std::chrono::steady_clock::now() >= deadline) {
          ::kill(pid, SIGKILL);
          ::waitpid(pid, nullptr, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    pids_.clear();
  }
  for (Listener& listener : parent_listeners_) listener.Close();
  parent_listeners_.clear();
  socket_paths_.clear();
  if (owns_socket_dir_ && !socket_dir_.empty()) {
    ::rmdir(socket_dir_.c_str());
  }
  socket_dir_.clear();
  owns_socket_dir_ = false;
}

// --- ShardRouter ----------------------------------------------------------

struct ShardRouter::Tag {
  uint64_t client_id = 0;
  uint64_t seq = 0;
  /// By-tile fan-out only: which tile of the slot's decomposition this
  /// forwarded sub-request computes; -1 for ordinary forwards.
  int32_t tile_id = -1;
};

namespace {

/// One outstanding response position in a client's submission order.
struct RouterSlot {
  bool ready = false;
  std::vector<uint8_t> payload;
  // Stats fan-out bookkeeping (is_stats slots only).
  bool is_stats = false;
  int stats_remaining = 0;
  bool stats_failed = false;
  std::string stats_error;
  WireStatsReply merged;
  // Tile fan-out bookkeeping (is_tile slots only): fragments stitch into
  // `tile_grid` as they arrive; any failed fragment fails the whole slot —
  // the client gets one error response, never a partially stitched grid.
  bool is_tile = false;
  int tile_remaining = 0;
  bool tile_failed = false;
  WireStatus tile_status = WireStatus::kOk;
  std::string tile_error;
  std::vector<TileWindow> tile_windows;  // indexed by tile id
  std::optional<HeatmapGrid> tile_grid;
  CrestStats tile_stats;
  CrestL2Stats tile_l2;
  SweepCacheStats tile_cache;
  bool tile_from_cache = true;
};

void FailTileSlot(RouterSlot& slot, WireStatus status,
                  const std::string& reason) {
  if (slot.tile_failed) return;  // first failure names the error
  slot.tile_failed = true;
  slot.tile_status = status;
  slot.tile_error = reason;
}

void FoldTileFragment(RouterSlot& slot, int32_t tile_id,
                      const std::vector<uint8_t>& payload) {
  std::string error;
  const std::optional<WireResponse> response = DecodeResponse(payload, &error);
  if (!response.has_value()) {
    FailTileSlot(slot, WireStatus::kServerError,
                 "undecodable tile fragment response: " + error);
    return;
  }
  if (response->status != WireStatus::kOk) {
    FailTileSlot(slot, response->status,
                 "tile fragment failed: " + response->error);
    return;
  }
  const TileWindow& window = slot.tile_windows[tile_id];
  const HeatmapResponse& fragment = *response->response;
  if (fragment.grid.width() != window.width() ||
      fragment.grid.height() != window.height()) {
    FailTileSlot(slot, WireStatus::kServerError,
                 "tile fragment has the wrong window size");
    return;
  }
  StitchFragment(window, fragment.grid, &*slot.tile_grid);
  slot.tile_stats.num_circles += fragment.stats.num_circles;
  slot.tile_stats.num_skipped_circles += fragment.stats.num_skipped_circles;
  slot.tile_stats.num_events += fragment.stats.num_events;
  slot.tile_stats.num_labelings += fragment.stats.num_labelings;
  slot.tile_stats.num_merged_intervals += fragment.stats.num_merged_intervals;
  slot.tile_stats.num_elements_walked += fragment.stats.num_elements_walked;
  slot.tile_l2.num_circles += fragment.l2_stats.num_circles;
  slot.tile_l2.num_skipped_circles += fragment.l2_stats.num_skipped_circles;
  slot.tile_l2.num_events += fragment.l2_stats.num_events;
  slot.tile_l2.num_cross_events += fragment.l2_stats.num_cross_events;
  slot.tile_l2.num_labelings += fragment.l2_stats.num_labelings;
  slot.tile_cache.hits += fragment.cache.hits;
  slot.tile_cache.misses += fragment.cache.misses;
  slot.tile_cache.insertions += fragment.cache.insertions;
  slot.tile_cache.evictions += fragment.cache.evictions;
  slot.tile_cache.entries += fragment.cache.entries;
  slot.tile_cache.bytes += fragment.cache.bytes;
  slot.tile_from_cache = slot.tile_from_cache && fragment.from_cache;
}

}  // namespace

struct ShardRouter::Client {
  explicit Client(uint64_t id_in)
      : id(id_in), assembler(kMaxFramePayloadBytes) {}

  uint64_t id;
  FrameAssembler assembler;
  OutputBuffer output;
  /// Responses owed to this client, in submission order; front() flushes
  /// once ready. slots[k] answers request base_seq + k.
  std::deque<RouterSlot> slots;
  uint64_t base_seq = 0;
  uint64_t next_seq = 0;
  std::chrono::steady_clock::time_point last_activity;
  bool peer_done = false;
};

struct ShardRouter::Shard {
  Shard() : assembler(kMaxFramePayloadBytes) {}

  int fd = -1;
  FrameAssembler assembler;
  OutputBuffer output;
  /// Requests forwarded but unanswered, in forwarding order — a worker
  /// answers its stream strictly in order, so response k resolves
  /// pending[k].
  std::deque<Tag> pending;
  bool alive = false;
};

ShardRouter::ShardRouter(Listener front, std::vector<std::string> shard_paths,
                         const ServeOptions& options)
    : front_(std::move(front)),
      shard_paths_(std::move(shard_paths)),
      options_(options) {
  shards_.reserve(shard_paths_.size());
  for (size_t i = 0; i < shard_paths_.size(); ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (::pipe(wake_fds_) == 0) {
    MakeNonblocking(wake_fds_[0]);
    MakeNonblocking(wake_fds_[1]);
  } else {
    wake_fds_[0] = wake_fds_[1] = -1;
  }
}

ShardRouter::~ShardRouter() {
  for (const auto& [fd, client] : clients_) {
    (void)client;
    ::close(fd);
  }
  for (const auto& shard : shards_) {
    if (shard->fd >= 0) ::close(shard->fd);
  }
  if (wake_fds_[0] >= 0) ::close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) ::close(wake_fds_[1]);
}

void ShardRouter::RequestShutdown() {
  // Async-signal-safe: a lock-free atomic bump plus a pipe write, and
  // (enforced by the analysis — no loop_thread_ held here) no touch of
  // the loop-confined routing state.
  static_assert(std::atomic<int>::is_always_lock_free,
                "RequestShutdown must stay async-signal-safe");
  shutdown_requests_.fetch_add(1, std::memory_order_relaxed);
  if (wake_fds_[1] >= 0) {
    const uint8_t byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &byte, 1);
  }
}

void ShardRouter::CloseClient(int fd) {
  auto it = clients_.find(fd);
  if (it == clients_.end()) return;
  client_fd_by_id_.erase(it->second->id);
  poller_.Remove(fd);
  ::close(fd);
  clients_.erase(it);
}

void ShardRouter::RouteFrame(Client& client,
                             const std::vector<uint8_t>& frame) {
  const uint64_t seq = client.next_seq++;
  (void)seq;  // == base_seq + slots.size(), by construction
  client.slots.emplace_back();
  RouterSlot& slot = client.slots.back();

  if (IsStatsRequest(frame)) {
    if (const Status status = DecodeStatsRequest(frame); !status.ok()) {
      slot.ready = true;
      slot.payload =
          EncodeErrorResponse(ToWireStatus(status.code), status.message);
      return;
    }
    slot.is_stats = true;
    int fanned = 0;
    for (size_t s = 0; s < shards_.size(); ++s) {
      Shard& shard = *shards_[s];
      if (!shard.alive) continue;
      shard.output.AppendFrame(frame);
      shard.pending.push_back(Tag{client.id, client.next_seq - 1});
      poller_.Modify(shard.fd, true, true);
      ++fanned;
    }
    if (fanned == 0) {
      slot.is_stats = false;
      slot.ready = true;
      slot.payload =
          EncodeErrorResponse(WireStatus::kServerError, "no live shards");
    } else {
      slot.stats_remaining = fanned;
    }
    return;
  }

  const std::optional<WireRouteInfo> route = PeekRouteInfo(frame);
  if (!route.has_value()) {
    slot.ready = true;
    slot.payload = EncodeErrorResponse(
        WireStatus::kMalformedRequest,
        "router could not parse the request header");
    return;
  }
  // By-tile mode: a plain heat-map request is decomposed here — one tile
  // sub-request per non-empty tile window, fanned to shard
  // tile_id % num_shards — and the fragments stitch back into one
  // response. Delta frames keep hash/affinity routing (a splice needs the
  // whole base raster on one shard) and tile frames pass through like
  // plain ones.
  if (options_.route_by_tile && !route->is_delta && !route->is_tile) {
    std::string decode_error;
    std::optional<WireRequest> request = DecodeRequest(frame, &decode_error);
    if (!request.has_value()) {
      slot.ready = true;
      slot.payload =
          EncodeErrorResponse(WireStatus::kMalformedRequest, decode_error);
      return;
    }
    const int tile_rows = options_.tile_rows;
    const int tile_cols = options_.tile_cols;
    slot.tile_windows = TileWindows(request->domain, request->width,
                                    request->height, tile_rows, tile_cols);
    // All-or-nothing: verify every target shard is up before sending any
    // sub-request, so a down shard yields one clean error, not a half-fan.
    for (int tile_id = 0; tile_id < tile_rows * tile_cols; ++tile_id) {
      if (slot.tile_windows[tile_id].empty()) continue;
      if (!shards_[tile_id % shards_.size()]->alive) {
        slot.ready = true;
        slot.payload = EncodeErrorResponse(
            WireStatus::kServerError,
            "shard " + std::to_string(tile_id % shards_.size()) +
                " is down");
        return;
      }
    }
    slot.is_tile = true;
    slot.tile_grid.emplace(request->width, request->height, request->domain,
                           0.0);
    int fanned = 0;
    WireTileRequest sub{std::move(*request), tile_rows, tile_cols, 0};
    for (int tile_id = 0; tile_id < tile_rows * tile_cols; ++tile_id) {
      if (slot.tile_windows[tile_id].empty()) continue;
      sub.tile_id = tile_id;
      const size_t shard_index = tile_id % shards_.size();
      Shard& shard = *shards_[shard_index];
      shard.output.AppendFrame(EncodeTileRequest(sub));
      shard.pending.push_back(Tag{client.id, client.next_seq - 1, tile_id});
      poller_.Modify(shard.fd, true, true);
      ++fanned;
    }
    // The windows partition a positive raster, so at least one is
    // non-empty and the slot always has fragments to wait for.
    slot.tile_remaining = fanned;
    return;
  }
  // Affinity first, hash partition second: a set derived by a delta lives
  // on the shard that held its base (which is where the delta was routed),
  // not necessarily at derived_hash % N — so requests and chained deltas
  // for a derived hash must follow the recorded affinity.
  const auto affinity_it = affinity_.find(route->route_hash);
  const size_t shard_index = affinity_it != affinity_.end()
                                 ? affinity_it->second
                                 : route->route_hash % shards_.size();
  Shard& shard = *shards_[shard_index];
  if (!shard.alive) {
    slot.ready = true;
    slot.payload = EncodeErrorResponse(
        WireStatus::kServerError,
        "shard " + std::to_string(shard_index) + " is down");
    return;
  }
  if (route->is_delta) {
    RecordAffinity(route->derived_hash, shard_index);
  }
  shard.output.AppendFrame(frame);
  shard.pending.push_back(Tag{client.id, client.next_seq - 1});
  poller_.Modify(shard.fd, true, true);
}

void ShardRouter::RecordAffinity(uint64_t hash, size_t shard_index) {
  const auto [it, inserted] = affinity_.emplace(hash, shard_index);
  if (!inserted) {
    it->second = shard_index;  // a re-derivation may land elsewhere
    return;
  }
  affinity_fifo_.push_back(hash);
  while (affinity_fifo_.size() > kMaxAffinityEntries) {
    affinity_.erase(affinity_fifo_.front());
    affinity_fifo_.pop_front();
  }
}

void ShardRouter::HandleClientReadable(int fd, Client& client) {
  uint8_t chunk[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      client.last_activity = std::chrono::steady_clock::now();
      client.assembler.Feed(
          std::span<const uint8_t>(chunk, static_cast<size_t>(n)));
      continue;
    }
    if (n == 0) {
      client.peer_done = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    client.peer_done = true;
    break;
  }
  while (std::optional<std::vector<uint8_t>> frame = client.assembler.Next()) {
    RouteFrame(client, *frame);
  }
  if (client.assembler.poisoned() && !client.peer_done) {
    const Status& status = client.assembler.status();
    client.slots.emplace_back();
    RouterSlot& slot = client.slots.back();
    ++client.next_seq;
    slot.ready = true;
    slot.payload =
        EncodeErrorResponse(ToWireStatus(status.code), status.message);
    client.peer_done = true;
  }
}

void ShardRouter::FlushClient(int fd, Client& client) {
  while (!client.slots.empty() && client.slots.front().ready) {
    client.output.AppendFrame(client.slots.front().payload);
    client.slots.pop_front();
    ++client.base_seq;
  }
  if (!client.output.empty()) {
    if (client.output.WriteSome(fd) < 0) {
      CloseClient(fd);
      return;
    }
  }
  if (client.peer_done && client.slots.empty() && client.output.empty()) {
    CloseClient(fd);
    return;
  }
  UpdateClientInterest(fd, client);
}

void ShardRouter::UpdateClientInterest(int fd, Client& client) {
  poller_.Modify(fd, !client.peer_done, !client.output.empty());
}

void ShardRouter::UpdateShardInterest(Shard& shard) {
  if (!shard.alive) return;
  poller_.Modify(shard.fd, true, !shard.output.empty());
}

namespace {

/// Folds one shard's answer (or its loss) into the slot; returns true
/// when the slot just became ready. `tile_id` is the forwarding tag's
/// tile (-1 for ordinary forwards) — it names the window a tile
/// fragment stitches into.
bool ResolveSlot(RouterSlot& slot, int32_t tile_id,
                 const std::vector<uint8_t>& payload, bool failed,
                 const std::string& reason) {
  if (slot.is_tile) {
    if (failed) {
      FailTileSlot(slot, WireStatus::kServerError, reason);
    } else {
      FoldTileFragment(slot, tile_id, payload);
    }
    if (--slot.tile_remaining > 0) return false;
    if (slot.tile_failed) {
      slot.payload = EncodeErrorResponse(slot.tile_status, slot.tile_error);
    } else {
      slot.payload = EncodeResponse(
          HeatmapResponse{std::move(*slot.tile_grid), slot.tile_stats,
                          slot.tile_l2, slot.tile_from_cache,
                          slot.tile_cache});
    }
    slot.ready = true;
    return true;
  }
  if (!slot.is_stats) {
    slot.payload = failed
                       ? EncodeErrorResponse(WireStatus::kServerError, reason)
                       : payload;
    slot.ready = true;
    return true;
  }
  if (failed) {
    slot.stats_failed = true;
    slot.stats_error = reason;
  } else {
    std::string error;
    const std::optional<WireStatsReply> reply =
        DecodeStatsResponse(payload, &error);
    if (!reply.has_value()) {
      slot.stats_failed = true;
      slot.stats_error = "a shard answered the stats op with an error";
    } else {
      slot.merged.shards += reply->shards;
      slot.merged.requests += reply->requests;
      slot.merged.ok += reply->ok;
      slot.merged.errors += reply->errors;
      slot.merged.sets_registered += reply->sets_registered;
      slot.merged.deltas += reply->deltas;
      slot.merged.delta_splices += reply->delta_splices;
      slot.merged.sets_evicted += reply->sets_evicted;
      slot.merged.delta_dirty_columns += reply->delta_dirty_columns;
      slot.merged.tile_requests += reply->tile_requests;
      slot.merged.tile_fragments += reply->tile_fragments;
    }
  }
  if (--slot.stats_remaining > 0) return false;
  slot.payload = slot.stats_failed
                     ? EncodeErrorResponse(WireStatus::kServerError,
                                           slot.stats_error)
                     : EncodeStatsResponse(slot.merged);
  slot.ready = true;
  return true;
}

}  // namespace

void ShardRouter::HandleShardReadable(size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  bool lost = false;
  uint8_t chunk[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(shard.fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      shard.assembler.Feed(
          std::span<const uint8_t>(chunk, static_cast<size_t>(n)));
      continue;
    }
    if (n == 0) {
      lost = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    lost = true;
    break;
  }
  while (std::optional<std::vector<uint8_t>> frame = shard.assembler.Next()) {
    if (shard.pending.empty()) continue;  // unsolicited; drop
    const Tag tag = shard.pending.front();
    shard.pending.pop_front();
    const auto fd_it = client_fd_by_id_.find(tag.client_id);
    if (fd_it == client_fd_by_id_.end()) continue;  // client already gone
    const int client_fd = fd_it->second;
    Client& client = *clients_.at(client_fd);
    RouterSlot& slot = client.slots[tag.seq - client.base_seq];
    if (ResolveSlot(slot, tag.tile_id, *frame, false, "")) {
      FlushClient(client_fd, client);
    }
  }
  if (shard.assembler.poisoned()) lost = true;
  if (lost) {
    FailShard(shard_index,
              "shard " + std::to_string(shard_index) + " connection lost");
  }
}

void ShardRouter::FailShard(size_t shard_index, const std::string& reason) {
  Shard& shard = *shards_[shard_index];
  if (!shard.alive) return;
  shard.alive = false;
  poller_.Remove(shard.fd);
  shard_index_by_fd_.erase(shard.fd);
  ::close(shard.fd);
  shard.fd = -1;
  std::deque<Tag> orphaned;
  orphaned.swap(shard.pending);
  const std::vector<uint8_t> empty;
  for (const Tag& tag : orphaned) {
    const auto fd_it = client_fd_by_id_.find(tag.client_id);
    if (fd_it == client_fd_by_id_.end()) continue;
    const int client_fd = fd_it->second;
    Client& client = *clients_.at(client_fd);
    RouterSlot& slot = client.slots[tag.seq - client.base_seq];
    if (ResolveSlot(slot, tag.tile_id, empty, true, reason)) {
      FlushClient(client_fd, client);  // may close the client
    }
  }
}

Status ShardRouter::Run() {
  // The calling thread becomes the loop thread; holding the confinement
  // role for the whole body licenses every touch of the guarded routing
  // state and every RNNHM_REQUIRES(loop_thread_) helper call.
  ThreadRoleGuard loop(&loop_thread_);
  if (!front_.valid()) {
    return Status::InvalidArgument("router needs a bound front listener");
  }
  if (shard_paths_.empty()) {
    return Status::InvalidArgument("router needs at least one shard");
  }
  if (options_.route_by_tile) {
    if (options_.tile_rows < 1 || options_.tile_cols < 1 ||
        options_.tile_rows > kMaxWireTileGridSide ||
        options_.tile_cols > kMaxWireTileGridSide) {
      return Status::InvalidArgument(
          "by-tile routing needs a tile grid within the wire ceiling");
    }
    if (static_cast<size_t>(options_.tile_rows) *
            static_cast<size_t>(options_.tile_cols) <
        shard_paths_.size()) {
      return Status::InvalidArgument(
          "by-tile routing needs at least as many tiles as shards");
    }
  }
  if (wake_fds_[0] < 0) {
    return Status::Unavailable("failed to create the shutdown wake pipe");
  }
  if (const Status status = Poller::Create(options_.prefer_epoll, &poller_);
      !status.ok()) {
    return status;
  }
  for (size_t i = 0; i < shard_paths_.size(); ++i) {
    Shard& shard = *shards_[i];
    if (const Status status = ConnectUnix(shard_paths_[i], &shard.fd);
        !status.ok()) {
      return status;
    }
    if (const Status status = MakeNonblocking(shard.fd); !status.ok()) {
      ::close(shard.fd);
      return status;
    }
    shard.alive = true;
    if (const Status status = poller_.Add(shard.fd, true, false);
        !status.ok()) {
      return status;
    }
    shard_index_by_fd_[shard.fd] = i;
  }
  if (const Status status = poller_.Add(wake_fds_[0], true, false);
      !status.ok()) {
    return status;
  }
  if (const Status status = poller_.Add(front_.fd(), true, false);
      !status.ok()) {
    return status;
  }

  const auto idle_limit = std::chrono::milliseconds(options_.idle_timeout_ms);
  std::vector<Poller::Event> events;
  for (;;) {
    const int requests = shutdown_requests_.load(std::memory_order_relaxed);
    if (requests >= 2) break;
    if (requests >= 1 && !draining_) {
      draining_ = true;
      poller_.Remove(front_.fd());
      front_.Close();
      drain_deadline_ = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.drain_timeout_ms);
    }
    if (draining_ && clients_.empty()) break;

    const auto now = std::chrono::steady_clock::now();
    int timeout_ms = -1;
    auto bound_timeout = [&timeout_ms,
                          now](std::chrono::steady_clock::time_point dl) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(dl - now)
              .count();
      const int ms =
          remaining < 0
              ? 0
              : static_cast<int>(std::min<long long>(remaining, 60 * 1000));
      if (timeout_ms < 0 || ms < timeout_ms) timeout_ms = ms;
    };
    if (draining_) {
      if (now >= drain_deadline_) break;
      bound_timeout(drain_deadline_);
    }
    if (options_.idle_timeout_ms > 0) {
      for (const auto& [fd, client] : clients_) {
        (void)fd;
        bound_timeout(client->last_activity + idle_limit);
      }
    }

    if (const Status status = poller_.Wait(timeout_ms, &events);
        !status.ok()) {
      return status;
    }

    for (const Poller::Event& event : events) {
      if (event.fd == wake_fds_[0]) {
        uint8_t drain[64];
        while (::read(wake_fds_[0], drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      if (event.fd == front_.fd() && front_.valid()) {
        for (;;) {
          int client_fd = -1;
          const Status status = front_.Accept(&client_fd);
          if (!status.ok()) break;
          if (draining_ ||
              clients_.size() >=
                  static_cast<size_t>(options_.max_connections)) {
            ::close(client_fd);
            continue;
          }
          auto client = std::make_unique<Client>(next_client_id_++);
          client->last_activity = std::chrono::steady_clock::now();
          if (!poller_.Add(client_fd, true, false).ok()) {
            ::close(client_fd);
            continue;
          }
          client_fd_by_id_[client->id] = client_fd;
          clients_.emplace(client_fd, std::move(client));
        }
        continue;
      }
      if (const auto shard_it = shard_index_by_fd_.find(event.fd);
          shard_it != shard_index_by_fd_.end()) {
        const size_t shard_index = shard_it->second;
        Shard& shard = *shards_[shard_index];
        if (event.readable || event.broken) {
          HandleShardReadable(shard_index);
        }
        if (shard.alive && event.writable && !shard.output.empty()) {
          if (shard.output.WriteSome(shard.fd) < 0) {
            FailShard(shard_index, "shard " + std::to_string(shard_index) +
                                       " write failed");
            continue;
          }
        }
        UpdateShardInterest(shard);
        continue;
      }
      auto client_it = clients_.find(event.fd);
      if (client_it == clients_.end()) continue;
      Client& client = *client_it->second;
      if (event.readable || event.broken) {
        HandleClientReadable(event.fd, client);
      }
      FlushClient(event.fd, client);  // flush + interest + close check
    }

    if (options_.idle_timeout_ms > 0) {
      const auto cutoff = std::chrono::steady_clock::now() - idle_limit;
      std::vector<int> stale;
      for (const auto& [fd, client] : clients_) {
        if (client->last_activity <= cutoff) stale.push_back(fd);
      }
      for (const int fd : stale) CloseClient(fd);
    }
  }

  std::vector<int> open;
  open.reserve(clients_.size());
  for (const auto& [fd, client] : clients_) {
    (void)client;
    open.push_back(fd);
  }
  for (const int fd : open) CloseClient(fd);
  for (const auto& shard : shards_) {
    if (shard->fd >= 0) {
      poller_.Remove(shard->fd);
      ::close(shard->fd);
      shard->fd = -1;
      shard->alive = false;
    }
  }
  shard_index_by_fd_.clear();
  front_.Close();
  return Status::Ok();
}

// --- Signal wiring --------------------------------------------------------

namespace {

// Same async-signal-safety shape as the EventLoopServer handler: relaxed
// lock-free pointer load, then RequestShutdown's atomic bump + pipe
// write. InstallRouterSignalHandlers(nullptr) must run before the router
// is destroyed — the handler holds a raw pointer.
std::atomic<ShardRouter*> g_signal_router{nullptr};
static_assert(std::atomic<ShardRouter*>::is_always_lock_free,
              "signal handler must not take a lock to load the target");

void RouterSignalHandler(int /*signum*/) {
  ShardRouter* router = g_signal_router.load(std::memory_order_relaxed);
  if (router != nullptr) router->RequestShutdown();
}

}  // namespace

void InstallRouterSignalHandlers(ShardRouter* router) {
  g_signal_router.store(router, std::memory_order_relaxed);
  struct sigaction action{};
  if (router != nullptr) {
    action.sa_handler = RouterSignalHandler;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;
  } else {
    action.sa_handler = SIG_DFL;
  }
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
}

}  // namespace rnnhm
