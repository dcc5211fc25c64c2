// The server under test as a child process, and the benchmark's side of
// its socket.
//
// Every path is relative to the run directory the benchmark works in, so
// socket paths stay short whatever the checkout's location is. A
// launched server is tracked until it is stopped and reaped; StopAll is
// the exit path for errors and signals.
#ifndef SERVEBENCH_SERVER_PROC_H_
#define SERVEBENCH_SERVER_PROC_H_

#include <sys/types.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "inputs.h"
#include "query/wire.h"

namespace servebench {

struct ServerProcess {
  pid_t pid = -1;
  std::string socket_path;
  std::string log_path;
};

/// Forks and executes `cli` with the spec's flags plus `--path socket`.
/// The child's stdout and stderr go to `log_path`.
bool LaunchServer(const std::string& cli, const ServerSpec& spec,
                  const std::string& socket, const std::string& log_path,
                  ServerProcess* out, std::string* error);

/// Waits until the server answers a stats op on its socket.
bool WaitReady(const ServerProcess& server, int timeout_ms,
               std::string* error);

/// SIGTERM (graceful drain), then SIGKILL for the server and any worker
/// it forked that outlives the grace period; reaps the server.
void StopServer(ServerProcess* server);

/// Stops every server still running (error exits).
void StopAllServers();

/// Async-signal-safe: SIGKILLs every server still running.
void KillServersFromSignal();

/// The server's pid plus the pids of the processes it forked (the by-tile
/// router's shard workers).
std::vector<pid_t> ServerPids(const ServerProcess& server);

/// CPU time (user + system, ms) and peak resident set (VmHWM, MB) summed
/// over `pids`.
struct ProcUsage {
  double cpu_ms = 0.0;
  double peak_rss_mb = 0.0;
};
ProcUsage ReadUsage(const std::vector<pid_t>& pids);

/// Timestamps of one closed-loop round trip.
struct RoundTripTimes {
  int64_t start = 0;      ///< before the first byte is written
  int64_t sent = 0;       ///< after the last byte is written
  int64_t first_byte = 0; ///< after the reply's length prefix arrived
  int64_t end = 0;        ///< after the last reply byte arrived
};

/// A blocking client connection.
class Client {
 public:
  Client() = default;
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool Connect(const std::string& socket, std::string* error);
  void Close();

  /// Sends one prefixed frame and reads the reply payload into `*reply`.
  bool RoundTrip(const std::vector<uint8_t>& wire, std::vector<uint8_t>* reply,
                 RoundTripTimes* times);

  /// Sends a stats op and decodes the reply.
  std::optional<rnnhm::WireStatsReply> Stats();

 private:
  int fd_ = -1;
};

}  // namespace servebench

#endif  // SERVEBENCH_SERVER_PROC_H_
