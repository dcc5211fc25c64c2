#include "server_proc.h"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench_util.h"
#include "serve/transport.h"

namespace servebench {

namespace {

// Servers launched and not yet reaped; a fixed array so a signal handler
// can read it.
constexpr int kMaxLive = 8;
std::atomic<pid_t> g_live[kMaxLive];

void Remember(pid_t pid) {
  for (std::atomic<pid_t>& slot : g_live) {
    pid_t empty = 0;
    if (slot.compare_exchange_strong(empty, pid)) return;
  }
}

void Forget(pid_t pid) {
  for (std::atomic<pid_t>& slot : g_live) {
    pid_t expected = pid;
    slot.compare_exchange_strong(expected, 0);
  }
}

// Parent pid and CPU ticks from /proc/<pid>/stat; false when the process
// is gone or a zombie.
bool ReadStat(pid_t pid, pid_t* ppid, uint64_t* cpu_ticks) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return false;
  const size_t close = line.rfind(')');
  if (close == std::string::npos) return false;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  std::vector<std::string> fields;
  while (rest >> field) fields.push_back(field);
  // fields[0] is the state (stat field 3); utime/stime are fields 14/15.
  if (fields.size() < 13 || fields[0] == "Z") return false;
  *ppid = static_cast<pid_t>(std::atol(fields[1].c_str()));
  *cpu_ticks = std::strtoull(fields[11].c_str(), nullptr, 10) +
               std::strtoull(fields[12].c_str(), nullptr, 10);
  return true;
}

double ReadHwmMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

std::vector<pid_t> ChildrenOf(pid_t parent) {
  std::vector<pid_t> out;
  DIR* dir = ::opendir("/proc");
  if (dir == nullptr) return out;
  while (const dirent* entry = ::readdir(dir)) {
    const char* name = entry->d_name;
    if (name[0] < '0' || name[0] > '9') continue;
    const pid_t pid = static_cast<pid_t>(std::atol(name));
    pid_t ppid = 0;
    uint64_t ticks = 0;
    if (ReadStat(pid, &ppid, &ticks) && ppid == parent) out.push_back(pid);
  }
  ::closedir(dir);
  return out;
}

bool ReadFull(int fd, uint8_t* data, size_t n) {
  size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, data + got, n - got, MSG_WAITALL);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    got += static_cast<size_t>(r);
  }
  return true;
}

bool WriteFull(int fd, const uint8_t* data, size_t n) {
  size_t sent = 0;
  while (sent < n) {
    const ssize_t r = ::send(fd, data + sent, n - sent, MSG_NOSIGNAL);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    sent += static_cast<size_t>(r);
  }
  return true;
}

}  // namespace

bool LaunchServer(const std::string& cli, const ServerSpec& spec,
                  const std::string& socket, const std::string& log_path,
                  ServerProcess* out, std::string* error) {
  std::vector<std::string> args = {cli};
  args.insert(args.end(), spec.flags.begin(), spec.flags.end());
  args.push_back("--path");
  args.push_back(socket);
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    return false;
  }
  if (pid == 0) {
    // The server must not outlive the benchmark, whatever ends it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log >= 0) {
      ::dup2(log, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
      ::close(log);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  Remember(pid);
  out->pid = pid;
  out->socket_path = socket;
  out->log_path = log_path;
  return true;
}

bool WaitReady(const ServerProcess& server, int timeout_ms,
               std::string* error) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_ms) * 1000000;
  while (NowNs() < deadline) {
    int status = 0;
    if (::waitpid(server.pid, &status, WNOHANG) == server.pid) {
      Forget(server.pid);
      *error = "server exited during start-up; see " + server.log_path;
      return false;
    }
    Client probe;
    std::string connect_error;
    if (probe.Connect(server.socket_path, &connect_error)) {
      if (probe.Stats().has_value()) return true;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  *error = "server not ready within " + std::to_string(timeout_ms) + " ms";
  return false;
}

void StopServer(ServerProcess* server) {
  if (server->pid <= 0) return;
  const std::vector<pid_t> workers = ChildrenOf(server->pid);
  ::kill(server->pid, SIGTERM);
  bool reaped = false;
  const int64_t deadline = NowNs() + 5000000000LL;
  while (NowNs() < deadline) {
    if (::waitpid(server->pid, nullptr, WNOHANG) == server->pid) {
      reaped = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!reaped) {
    ::kill(server->pid, SIGKILL);
    ::waitpid(server->pid, nullptr, 0);
  }
  // A router reaps its workers on a graceful stop; after a forced one
  // they are orphans, so kill them and wait for them to disappear.
  for (const pid_t w : workers) ::kill(w, SIGKILL);
  for (const pid_t w : workers) {
    const int64_t gone_by = NowNs() + 2000000000LL;
    pid_t ppid = 0;
    uint64_t ticks = 0;
    while (ReadStat(w, &ppid, &ticks) && NowNs() < gone_by) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  Forget(server->pid);
  server->pid = -1;
}

void StopAllServers() {
  for (std::atomic<pid_t>& slot : g_live) {
    ServerProcess p;
    p.pid = slot.load();
    StopServer(&p);
  }
}

void KillServersFromSignal() {
  for (std::atomic<pid_t>& slot : g_live) {
    const pid_t pid = slot.load();
    if (pid > 0) ::kill(pid, SIGKILL);
  }
}

std::vector<pid_t> ServerPids(const ServerProcess& server) {
  std::vector<pid_t> pids = {server.pid};
  for (const pid_t child : ChildrenOf(server.pid)) pids.push_back(child);
  return pids;
}

ProcUsage ReadUsage(const std::vector<pid_t>& pids) {
  static const double ms_per_tick = 1000.0 / ::sysconf(_SC_CLK_TCK);
  ProcUsage usage;
  for (const pid_t pid : pids) {
    pid_t ppid = 0;
    uint64_t ticks = 0;
    if (ReadStat(pid, &ppid, &ticks)) {
      usage.cpu_ms += static_cast<double>(ticks) * ms_per_tick;
    }
    usage.peak_rss_mb += ReadHwmMb(pid);
  }
  return usage;
}

Client::~Client() { Close(); }

bool Client::Connect(const std::string& socket, std::string* error) {
  Close();
  const rnnhm::Status status = rnnhm::ConnectUnix(socket, &fd_);
  if (!status.ok()) {
    *error = status.message;
    fd_ = -1;
    return false;
  }
  return true;
}

void Client::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool Client::RoundTrip(const std::vector<uint8_t>& wire,
                       std::vector<uint8_t>* reply, RoundTripTimes* times) {
  times->start = NowNs();
  if (!WriteFull(fd_, wire.data(), wire.size())) return false;
  times->sent = NowNs();
  uint8_t prefix[4];
  if (!ReadFull(fd_, prefix, 4)) return false;
  times->first_byte = NowNs();
  const uint32_t n = static_cast<uint32_t>(prefix[0]) |
                     static_cast<uint32_t>(prefix[1]) << 8 |
                     static_cast<uint32_t>(prefix[2]) << 16 |
                     static_cast<uint32_t>(prefix[3]) << 24;
  if (n > rnnhm::kMaxFramePayloadBytes) return false;
  reply->resize(n);
  if (!ReadFull(fd_, reply->data(), n)) return false;
  times->end = NowNs();
  return true;
}

std::optional<rnnhm::WireStatsReply> Client::Stats() {
  const std::vector<uint8_t> wire =
      WithLengthPrefix(rnnhm::EncodeStatsRequest());
  std::vector<uint8_t> reply;
  RoundTripTimes times;
  if (!RoundTrip(wire, &reply, &times)) return std::nullopt;
  std::string error;
  return rnnhm::DecodeStatsResponse(reply, &error);
}

}  // namespace servebench
