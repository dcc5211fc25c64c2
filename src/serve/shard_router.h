// Multi-process sharding: a fleet of shared-nothing engine workers behind
// one routing front.
//
// ShardFleet forks ServeOptions::num_shards worker processes. Each worker
// owns a whole serving stack — HeatmapEngine (its own registry, cache and
// threads), EventLoopServer — and listens on its own Unix-domain socket
// under ServeOptions::socket_dir. Nothing is shared between workers, so
// there is no cross-process synchronization anywhere in the hot path.
// The parent binds every listener BEFORE forking: a connection raced in
// before a worker reaches its accept loop just queues in that listener's
// backlog, so the fleet is connectable the moment Spawn returns.
//
// ShardRouter is the front process's loop. It accepts client connections
// (TCP or Unix), peeks each request frame's routing hash (PeekRouteInfo —
// no full decode) and forwards the frame verbatim to shard
// `hash % num_shards`. Hash-affinity is what makes inline-once
// registration work across processes: the first request for a set
// carries the circles inline, lands on the owning shard and registers
// there; every later by-hash request for the same set hashes to the same
// shard, where the set is known. Delta frames route by their *base* hash
// (the shard holding the base applies the edits), and the router records
// the derived hash's affinity to that shard so follow-up requests — and
// chained deltas — for the derived set land where it was registered. Responses are forwarded back verbatim
// (so a routed response is bit-identical to a direct engine Execute) and
// re-ordered per client: shard replies arrive in each shard's FIFO
// order, and a per-client slot queue restores the client's submission
// order. A stats request fans out to every shard and comes back as one
// merged WireStatsReply with `shards` = fleet size.
#ifndef RNNHM_SERVE_SHARD_ROUTER_H_
#define RNNHM_SERVE_SHARD_ROUTER_H_

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "serve/event_loop.h"
#include "serve/frame_buffer.h"
#include "serve/options.h"
#include "serve/transport.h"

namespace rnnhm {

/// A set of forked worker processes, one engine each, listening on
/// per-shard Unix-domain sockets. Move-free (construct in place via
/// Spawn); Shutdown (or destruction) SIGTERMs and reaps the workers.
///
/// Concurrency model: thread-compatible, no locks by design — the fleet
/// is confined to the supervising thread (Spawn's fork requirement below
/// already forces single-threaded use), and cross-*process* isolation is
/// total: workers share no memory, so there is nothing to annotate.
class ShardFleet {
 public:
  ShardFleet() = default;
  ~ShardFleet();

  ShardFleet(const ShardFleet&) = delete;
  ShardFleet& operator=(const ShardFleet&) = delete;

  /// Binds `options.num_shards` listeners under `options.socket_dir`
  /// (empty derives /tmp/rnnhm-fleet-<pid>), then forks one worker per
  /// listener. Worker engines take `options.threads/slabs/cache_bytes`.
  /// Call from a single-threaded process state (before spawning local
  /// engine threads): fork does not carry sibling threads into children.
  /// Workers get SIGTERM when the calling thread exits, so a spawner that
  /// dies abnormally leaves no worker behind; keep that thread alive for
  /// the fleet's lifetime.
  static Status Spawn(const ServeOptions& options, ShardFleet* out);

  /// The per-shard socket paths, index == shard id.
  const std::vector<std::string>& socket_paths() const {
    return socket_paths_;
  }

  int num_shards() const { return static_cast<int>(pids_.size()); }

  /// The worker process of one shard — lets a supervisor (or a fault
  /// test) target an individual worker.
  pid_t worker_pid(int shard) const { return pids_[shard]; }

  /// SIGTERMs every worker (triggering its graceful drain) and reaps it;
  /// escalates to SIGKILL for a worker that outlives the drain bound.
  void Shutdown();

 private:
  std::vector<pid_t> pids_;
  std::vector<std::string> socket_paths_;
  /// The parent's copies of the worker listeners: fds closed right after
  /// fork (CloseFdOnly — the children own the accepting), paths retained
  /// so Shutdown can unlink any socket file a killed worker left behind.
  std::vector<Listener> parent_listeners_;
  std::string socket_dir_;
  bool owns_socket_dir_ = false;
};

/// The routing front: one nonblocking loop multiplexing client
/// connections and the per-shard upstream connections.
class ShardRouter {
 public:
  /// Takes the already-bound front listener and the shard socket paths
  /// (index == shard id; connections are opened inside Run).
  ShardRouter(Listener front, std::vector<std::string> shard_paths,
              const ServeOptions& options);
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Connects to every shard, then serves until shutdown completes (same
  /// lame-duck drain protocol as EventLoopServer). Single-threaded: the
  /// calling thread becomes the loop thread and the sole holder of
  /// `loop_thread_` below.
  Status Run() RNNHM_EXCLUDES(loop_thread_);

  /// Async-signal-safe and thread-safe; first call drains, second stops.
  /// Not a holder of `loop_thread_` — the analysis proves it never
  /// touches the loop-confined routing state.
  void RequestShutdown();

  const Listener& listener() const { return front_; }

 private:
  struct Client;
  struct Shard;
  struct Tag;

  void CloseClient(int fd) RNNHM_REQUIRES(loop_thread_);
  void HandleClientReadable(int fd, Client& client)
      RNNHM_REQUIRES(loop_thread_);
  void RouteFrame(Client& client, const std::vector<uint8_t>& frame)
      RNNHM_REQUIRES(loop_thread_);
  /// Pins `hash` to `shard_index` for future route lookups (FIFO-bounded).
  void RecordAffinity(uint64_t hash, size_t shard_index)
      RNNHM_REQUIRES(loop_thread_);
  void HandleShardReadable(size_t shard_index) RNNHM_REQUIRES(loop_thread_);
  /// Resolves every outstanding tag of a dying shard with an error reply.
  void FailShard(size_t shard_index, const std::string& reason)
      RNNHM_REQUIRES(loop_thread_);
  /// Moves a client's ready front slots into its output buffer and pushes
  /// bytes; closes the client when it is finished.
  void FlushClient(int fd, Client& client) RNNHM_REQUIRES(loop_thread_);
  void UpdateClientInterest(int fd, Client& client)
      RNNHM_REQUIRES(loop_thread_);
  void UpdateShardInterest(Shard& shard) RNNHM_REQUIRES(loop_thread_);

  Listener front_;
  const std::vector<std::string> shard_paths_;
  const ServeOptions options_;

  /// Thread-confinement capability (see EventLoopServer::loop_thread_):
  /// Run holds it for its whole body; everything below is loop-thread
  /// state, so a cross-thread touch is a compile error.
  ThreadRole loop_thread_;
  Poller poller_ RNNHM_GUARDED_BY(loop_thread_);
  std::vector<std::unique_ptr<Shard>> shards_ RNNHM_GUARDED_BY(loop_thread_);
  std::map<int, std::unique_ptr<Client>> clients_  // by fd
      RNNHM_GUARDED_BY(loop_thread_);
  std::map<uint64_t, int> client_fd_by_id_ RNNHM_GUARDED_BY(loop_thread_);
  std::map<int, size_t> shard_index_by_fd_ RNNHM_GUARDED_BY(loop_thread_);
  /// Derived-set affinity (see RouteFrame): content hash -> shard that
  /// registered it via a delta. FIFO-bounded so a churning workload
  /// cannot grow the router without bound; an evicted affinity entry
  /// degrades to hash % N routing (a clean kUnknownCircleSet at worst).
  std::unordered_map<uint64_t, size_t> affinity_
      RNNHM_GUARDED_BY(loop_thread_);
  std::deque<uint64_t> affinity_fifo_ RNNHM_GUARDED_BY(loop_thread_);
  static constexpr size_t kMaxAffinityEntries = size_t{1} << 16;
  uint64_t next_client_id_ RNNHM_GUARDED_BY(loop_thread_) = 1;
  /// Self-pipe [read, write]: fixed after construction; the write end is
  /// the one thing RequestShutdown may touch besides the atomic below.
  int wake_fds_[2] = {-1, -1};
  std::atomic<int> shutdown_requests_{0};
  bool draining_ RNNHM_GUARDED_BY(loop_thread_) = false;
  std::chrono::steady_clock::time_point drain_deadline_
      RNNHM_GUARDED_BY(loop_thread_){};
};

/// Points SIGINT/SIGTERM at `router->RequestShutdown()` (nullptr
/// restores the default dispositions). Independent of the
/// EventLoopServer handler installer.
void InstallRouterSignalHandlers(ShardRouter* router);

}  // namespace rnnhm

#endif  // RNNHM_SERVE_SHARD_ROUTER_H_
