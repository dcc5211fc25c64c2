// servebench — one run of one workload of the serving benchmark.
//
//   servebench --workload NAME --seed N --seconds S --trace 0|1
//                     --cli PATH [--trace-out FILE] [--requests-out FILE]
//                     [--revision REV]
//
// Starts `rnnhm_cli serve` (or `route --by-tile`) as a child process on a
// Unix socket in the current directory, sets it up (launch until ready,
// plus the workload's warm-up) several times, drives the workload's
// connections closed-loop for S seconds, checks a deterministic sample of
// the responses against the oracle, and prints one JSON result line:
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// The traced run drives the same frames twice, each time on a fresh
// server: for half of S untraced, then with client-side spans; then it
// replays the frames in-process through the library's public functions.
// Exit status: 0 when every request and check succeeded, 1 when any
// failed (the result line is still printed), 2 on a usage or start-up
// error (no result line).
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <latch>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "heatmap/heatmap.h"
#include "heatmap/influence.h"
#include "inputs.h"
#include "query/wire.h"
#include "query/wire_layout.h"
#include "replay.h"
#include "server_proc.h"
#include "trace.h"

namespace servebench {
namespace {

// Set-up runs at least kMinSetups times, and keeps repeating (up to
// kMaxSetups) while the repetitions so far took under kSetupBudgetS, so a
// set-up of a few milliseconds still gets a steady median. The untraced
// run does that many repetitions before the timed phase and as many after
// it, so their median spans the run as the timed metrics do.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 101;
constexpr double kSetupBudgetS = 1.0;
constexpr int kReadyTimeoutMs = 30000;
// Time the traced run's in-process replay may spend on timed frames.
constexpr double kReplayBudgetS = 5.0;

// The end-to-end metrics (untraced run) and per-layer metrics (traced
// run), in BENCHMARK.json order.
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"setup_s", "s"},
    {"throughput_rps", "requests/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p50_ms.linf", "ms"},
    {"latency_p50_ms.l2", "ms"},
    {"server_rss_mb", "MB"},
    {"server_cpu_ms_per_req", "ms"},
};

const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"core.sweep_ms_p50.linf", "ms"},
    {"core.sweep_ms_p50.l1", "ms"},
    {"core.sweep_ms_p50.l2", "ms"},
    {"core.labelings_per_map", "count"},
    {"core.events_per_map", "count"},
    {"core.elements_walked_per_map", "count"},
    {"core.cross_events_per_map", "count"},
    {"heatmap.build_ms_p50.linf", "ms"},
    {"heatmap.build_ms_p50.l1", "ms"},
    {"heatmap.build_ms_p50.l2", "ms"},
    {"heatmap.splice_ratio", "fraction"},
    {"heatmap.dirty_column_frac", "fraction"},
    {"heatmap.l1_oracle_mismatch_frac", "fraction"},
    {"query.wire.decode_us_p50", "us"},
    {"query.wire.encode_us_p50", "us"},
    {"query.registry.register_us_p50", "us"},
    {"query.registry.resolve_us_p50", "us"},
    {"query.registry.apply_delta_us_p50", "us"},
    {"query.registry.sets_evicted", "count"},
    {"query.cache.hit_ratio", "fraction"},
    {"query.cache.hit_us_p50", "us"},
    {"query.cache.bytes", "bytes"},
    {"query.engine.execute_ms_p50", "ms"},
    {"query.engine.delta_ms_p50", "ms"},
    {"serve.handle_frame_ms_p50", "ms"},
    {"serve.transport_ms_mean", "ms"},
    {"serve.response_kb_mean", "kB"},
    {"tile.fragments_per_request", "count"},
    {"tile.fragment_ms_max", "ms"},
    {"tile.fragment_ms_sum", "ms"},
    {"nn.build_circles_ms_p50", "ms"},
    {"trace.unattributed_ms_mean", "ms"},
    {"trace.overhead_frac", "fraction"},
    {"trace.span_cost_ns", "ns"},
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string cli;
  std::string trace_out;
  std::string requests_out;
  std::string revision = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a->workload = value;
    } else if (key == "--seed") {
      a->seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      a->seconds = std::atof(value.c_str());
      have_seconds = a->seconds > 0;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      a->trace = value == "1";
      have_trace = true;
    } else if (key == "--cli") {
      a->cli = value;
    } else if (key == "--trace-out") {
      a->trace_out = value;
    } else if (key == "--requests-out") {
      a->requests_out = value;
    } else if (key == "--revision") {
      a->revision = value;
    } else {
      return false;
    }
  }
  return (argc % 2 == 1) && !a->workload.empty() && have_seed &&
         have_seconds && have_trace && !a->cli.empty();
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// One timed request as the client saw it.
struct Record {
  int conn = 0;
  size_t index = 0;
  rnnhm::Metric metric = rnnhm::Metric::kLInf;
  int city = 0;
  double rt_ms = 0.0;
  bool ok = false;
  bool from_cache = false;
  size_t bytes = 0;
};

struct SocketResult {
  std::vector<Record> records;
  int64_t elapsed_ns = 0;  ///< start line to the last reply
  size_t transport_errors = 0;
  size_t status_errors = 0;
  std::map<int, std::vector<uint8_t>> captured;  // check id -> reply
  uint64_t cache_bytes = 0;  // from the last ok response
};

// Status byte of a reply payload, or -1 when it is not a response frame.
int ReplyStatus(const std::vector<uint8_t>& reply) {
  if (reply.size() < rnnhm::wire_layout::kResponseHeaderBytes ||
      std::memcmp(reply.data(), "RNWS", 4) != 0) {
    return -1;
  }
  return reply[8];
}

uint64_t ReplyWord(const std::vector<uint8_t>& reply, size_t word) {
  const size_t at = rnnhm::wire_layout::kResponseHeaderBytes + 8 * word;
  uint64_t v = 0;
  if (at + 8 <= reply.size()) {
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(reply[at + i]) << (8 * i);
    }
  }
  return v;
}

// Sends each connection's warm-up frames (in parallel across
// connections); returns the number that failed.
size_t WarmUp(const Inputs& in, std::vector<Client>& clients) {
  std::atomic<size_t> failed{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < in.connections.size(); ++c) {
    threads.emplace_back([&, c] {
      std::vector<uint8_t> reply;
      RoundTripTimes times;
      for (const Frame& f : in.connections[c].warmup) {
        if (!clients[c].RoundTrip(f.wire, &reply, &times) ||
            ReplyStatus(reply) != 0) {
          ++failed;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return failed.load();
}

// The timed phase: every connection closed-loop on its own thread until
// the deadline, the end of its script or, when `limits` is not empty, its
// limit of requests. With a tracer, every request records send / wait /
// receive spans under a round-trip span, and its round trip is that span,
// so it includes the cost of tracing.
SocketResult DriveConnections(const Inputs& in, std::vector<Client>& clients,
                              double seconds,
                              const std::vector<size_t>& limits,
                              Tracer* tracer) {
  const size_t n = in.connections.size();
  std::vector<SocketResult> per(n);
  std::vector<Tracer> tracers(n);
  std::vector<int64_t> last_end(n, 0);
  std::latch start_line(static_cast<std::ptrdiff_t>(n) + 1);
  int64_t start = 0;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      const ConnectionScript& script = in.connections[c];
      SocketResult& r = per[c];
      r.records.reserve(std::min<size_t>(script.timed_length(), 1 << 20));
      std::vector<uint8_t> reply;
      RoundTripTimes times;
      start_line.arrive_and_wait();
      const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
      const size_t length = limits.empty()
                                ? script.timed_length()
                                : std::min(limits[c], script.timed_length());
      for (size_t i = 0; i < length && NowNs() < deadline; ++i) {
        const Frame& f = script.timed(i);
        Record rec;
        rec.conn = static_cast<int>(c);
        rec.index = i;
        rec.metric = f.metric;
        rec.city = f.city;
        const int32_t req = static_cast<int32_t>(c * 1000000 + i);
        Tracer& t = tracers[c];
        const int32_t root =
            tracer != nullptr ? t.Begin("socket.round_trip", req) : -1;
        const bool sent = clients[c].RoundTrip(f.wire, &reply, &times);
        if (root >= 0) {
          t.Add("socket.send", times.start, times.sent, req, root);
          t.Add("socket.wait", times.sent, times.first_byte, req, root);
          t.Add("socket.receive", times.first_byte, times.end, req, root);
          t.End(root);
          times.start = t.spans()[root].start;
          times.end = t.spans()[root].end;
        }
        if (!sent) {
          ++r.transport_errors;
          break;  // the connection is gone
        }
        rec.rt_ms = NsToMs(times.end - times.start);
        rec.bytes = reply.size();
        last_end[c] = times.end;
        if (ReplyStatus(reply) == 0) {
          rec.ok = true;
          rec.from_cache = reply[9] != 0;
          r.cache_bytes = ReplyWord(reply, 16);
        } else {
          ++r.status_errors;
        }
        if (f.check >= 0 && r.captured.count(f.check) == 0) {
          r.captured[f.check] = reply;
        }
        r.records.push_back(rec);
      }
    });
  }
  start = NowNs();
  start_line.arrive_and_wait();
  for (std::thread& t : threads) t.join();
  SocketResult out;
  int64_t end = start;
  for (size_t c = 0; c < n; ++c) {
    SocketResult& r = per[c];
    out.records.insert(out.records.end(), r.records.begin(), r.records.end());
    out.transport_errors += r.transport_errors;
    out.status_errors += r.status_errors;
    for (auto& [id, bytes] : r.captured) out.captured.emplace(id, bytes);
    if (r.cache_bytes > 0) out.cache_bytes = r.cache_bytes;
    end = std::max(end, last_end[c]);
    if (tracer != nullptr) {
      const int32_t offset = static_cast<int32_t>(tracer->spans().size());
      for (const Span& s : tracers[c].spans()) {
        tracer->Add(s.name, s.start, s.end, s.request,
                    s.parent >= 0 ? s.parent + offset : -1);
      }
    }
  }
  out.elapsed_ns = std::max<int64_t>(end - start, 1);
  return out;
}

// Compares every captured response with its reference: brute force for
// L-inf and L2, the documented sequential builder for L1. A check whose
// frame was not sent in the timed phase fails too. Returns the number of
// failed checks.
size_t CheckOutputs(const Inputs& in, const SocketResult& socket) {
  rnnhm::SizeInfluence measure;
  size_t failed = 0;
  for (size_t id = 0; id < in.checks.size(); ++id) {
    const Check& check = in.checks[id];
    const auto it = socket.captured.find(static_cast<int>(id));
    if (it == socket.captured.end()) {
      std::printf("check %-28s FAILED: not reached in the timed phase\n",
                  check.label.c_str());
      ++failed;
      continue;
    }
    std::string error;
    const auto response = rnnhm::DecodeResponse(it->second, &error);
    if (!response.has_value() || !response->response.has_value()) {
      std::printf("check %-28s FAILED: undecodable or error response %s\n",
                  check.label.c_str(), error.c_str());
      ++failed;
      continue;
    }
    const rnnhm::HeatmapGrid& got = response->response->grid;
    const rnnhm::Metric metric = check.set->metric();
    const rnnhm::HeatmapGrid want =
        metric == rnnhm::Metric::kL1
            ? rnnhm::BuildHeatmapForMetric(metric, check.set->circles(),
                                           measure, check.domain, check.width,
                                           check.height)
            : rnnhm::BuildHeatmapBruteForce(check.set->circles(), metric,
                                            measure, check.domain, check.width,
                                            check.height);
    size_t diff = 0;
    if (got.width() != want.width() || got.height() != want.height()) {
      diff = want.values().size();
    } else {
      for (size_t i = 0; i < want.values().size(); ++i) {
        if (std::memcmp(&want.values()[i], &got.values()[i],
                        sizeof(double)) != 0) {
          ++diff;
        }
      }
    }
    std::printf("check %-28s %s (%zu of %zu pixels differ from %s)\n",
                check.label.c_str(), diff == 0 ? "ok" : "FAILED", diff,
                want.values().size(),
                metric == rnnhm::Metric::kL1 ? "the sequential builder"
                                             : "brute force");
    if (diff != 0) ++failed;
  }
  return failed;
}

// One CSV line per timed request, in completion order per connection.
void WriteRequests(const std::string& path, const SocketResult& socket) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "conn,index,metric,rt_ms,ok,from_cache,reply_bytes\n");
  for (const Record& r : socket.records) {
    std::fprintf(f, "%d,%zu,%s,%.6f,%d,%d,%zu\n", r.conn, r.index,
                 MetricTag(r.metric), r.rt_ms, r.ok ? 1 : 0, r.from_cache ? 1 : 0,
                 r.bytes);
  }
  std::fclose(f);
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<std::pair<const char*, const char*>>& keys,
                 const MetricList& metrics) {
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : keys) {
    double value = 0.0;
    bool found = false;
    for (const MetricList::Entry& e : metrics.entries) {
      if (e.name == name) {
        value = e.value;
        found = true;
      }
    }
    if (!found) std::printf("warning: metric %s was not measured\n", name);
    line += std::string(first ? "" : ", ") + JsonString(name) +
            ": {\"value\": " + JsonNumber(value) +
            ", \"unit\": " + JsonString(unit) + "}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

double SpanCostNs() {
  Tracer t;
  constexpr int kSpans = 200000;
  const int64_t start = NowNs();
  for (int i = 0; i < kSpans; ++i) t.End(t.Begin("x", i));
  return static_cast<double>(NowNs() - start) / kSpans;
}

// Cumulative time the hypervisor took from all CPUs (ms), the steal column
// of /proc/stat; reported, not used by any metric.
double ReadStealMs() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t v[8] = {};
  in >> cpu >> v[0] >> v[1] >> v[2] >> v[3] >> v[4] >> v[5] >> v[6] >> v[7];
  return static_cast<double>(v[7]) * 1000.0 /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

[[noreturn]] void OnSignal(int) {
  KillServersFromSignal();
  ::_exit(3);
}

// Median round trip taken per metric and city, averaged over those
// strata; with `only`, over that metric's strata alone. Each metric and
// city forms its own cluster of costs, and the workloads rotate through
// them in equal shares, so a plain median of the mix falls in the gap
// between two clusters and jumps with one request more or less of either.
double StratifiedP50(const std::vector<const Record*>& records,
                     std::optional<rnnhm::Metric> only = std::nullopt) {
  std::map<std::pair<rnnhm::Metric, int>, std::vector<double>> strata;
  for (const Record* r : records) {
    if (!only.has_value() || r->metric == *only) {
      strata[{r->metric, r->city}].push_back(r->rt_ms);
    }
  }
  std::vector<double> medians;
  for (const auto& [key, v] : strata) medians.push_back(Median(v));
  return Mean(medians);
}

// The end-to-end metrics: set-up median, RSS peak, and the throughput,
// latencies and CPU cost of the whole timed phase.
void EndToEnd(const SocketResult& socket, const std::vector<double>& setup_s,
              double server_cpu_ms, double peak_rss_mb, MetricList* out) {
  std::printf("  setup_s per repetition:");
  for (const double s : setup_s) std::printf(" %.4f", s);
  std::printf("\n");
  std::vector<const Record*> ok;
  for (const Record& r : socket.records) {
    if (r.ok) ok.push_back(&r);
  }
  const double done = static_cast<double>(std::max<size_t>(ok.size(), 1));
  out->Set("setup_s", Median(setup_s), "s");
  out->Set("throughput_rps",
           static_cast<double>(ok.size()) /
               (static_cast<double>(socket.elapsed_ns) * 1e-9),
           "requests/s");
  out->Set("latency_p50_ms", StratifiedP50(ok), "ms");
  out->Set("latency_p50_ms.linf", StratifiedP50(ok, rnnhm::Metric::kLInf),
           "ms");
  out->Set("latency_p50_ms.l2", StratifiedP50(ok, rnnhm::Metric::kL2), "ms");
  out->Set("server_rss_mb", peak_rss_mb, "MB");
  out->Set("server_cpu_ms_per_req", server_cpu_ms / done, "ms");
}

// The per-layer metrics: counters read over the wire and from the
// replies, then the in-process replay and the direct layer measurements.
// Returns the number of replayed frames that failed.
size_t PerLayer(const Inputs& in, const SocketResult& plain,
                const SocketResult& socket,
                const rnnhm::WireStatsReply& before,
                const rnnhm::WireStatsReply& after, double seconds,
                Tracer* tracer, MetricList* out) {
  size_t ok = 0, hits = 0;
  double bytes = 0.0;
  RoundTripIndex round_trips;
  for (const Record& r : socket.records) {
    if (!r.ok) continue;
    ++ok;
    hits += r.from_cache ? 1 : 0;
    bytes += static_cast<double>(r.bytes);
    round_trips[{r.conn, r.index}] = r.rt_ms;
  }
  const double n = static_cast<double>(std::max<size_t>(ok, 1));
  // Tracing overhead: each traced round trip over the untraced round trip
  // of the same frame (same connection, same position in its script).
  std::vector<double> rt_traced, rt_plain, ratios;
  for (const Record& r : plain.records) {
    const auto it = round_trips.find({r.conn, r.index});
    if (!r.ok || it == round_trips.end()) continue;
    rt_plain.push_back(r.rt_ms);
    rt_traced.push_back(it->second);
    ratios.push_back(it->second / r.rt_ms);
  }
  out->Set("query.registry.sets_evicted",
           static_cast<double>(after.sets_evicted - before.sets_evicted),
           "count");
  out->Set("tile.fragments_per_request",
           static_cast<double>(after.tile_fragments - before.tile_fragments) /
               n,
           "count");
  out->Set("query.cache.hit_ratio", static_cast<double>(hits) / n, "fraction");
  out->Set("query.cache.bytes", static_cast<double>(socket.cache_bytes),
           "bytes");
  out->Set("serve.response_kb_mean", bytes / n / 1024.0, "kB");
  out->Set("trace.overhead_frac", ratios.empty() ? 0.0 : Median(ratios) - 1.0,
           "fraction");
  const double span_cost_ns = SpanCostNs();
  out->Set("trace.span_cost_ns", span_cost_ns, "ns");

  MeasureLayers(in, in.server.router, tracer, out);
  const int replay_failed = ReplayInProcess(
      in, round_trips, std::min(seconds, kReplayBudgetS), tracer, out);
  if (replay_failed > 0) {
    std::printf("in-process replay: %d frames failed\n", replay_failed);
  }

  std::printf("per-layer self time (%zu spans):\n", tracer->spans().size());
  std::printf("  %-22s %8s %12s %12s\n", "span", "count", "self ms",
              "self ms/span");
  for (const auto& [name, t] : tracer->SelfTimes()) {
    std::printf("  %-22s %8lld %12.3f %12.4f\n", name.c_str(),
                static_cast<long long>(t.count), t.self_ms,
                t.self_ms / static_cast<double>(t.count));
  }
  std::printf("tracing overhead: traced p50 %.4f ms vs untraced p50 %.4f ms "
              "over the same %zu frames, median ratio - 1 = %+.4f; %.1f ns "
              "per span\n",
              Median(rt_traced), Median(rt_plain), ratios.size(),
              ratios.empty() ? 0.0 : Median(ratios) - 1.0, span_cost_ns);
  return static_cast<size_t>(replay_failed);
}

// A launched server with its client connections.
struct Live {
  explicit Live(size_t connections) : clients(connections) {}
  ~Live() { Stop(); }
  void Stop() {
    for (Client& c : clients) c.Close();
    StopServer(&server);
  }

  ServerProcess server;
  std::vector<Client> clients;
  double setup_s = 0.0;
  size_t warm_failed = 0;
  size_t warm_attempted = 0;
};

// One set-up: launch until ready, connect every client, warm up. False
// (with a message) on a start-up error.
bool SetUp(const Args& args, const Inputs& in, int rep, Live* live) {
  const int64_t t0 = NowNs();
  std::string error;
  const std::string tag = std::to_string(rep);
  if (!LaunchServer(args.cli, in.server, "s" + tag + ".sock",
                    "server" + tag + ".log", &live->server, &error) ||
      !WaitReady(live->server, kReadyTimeoutMs, &error)) {
    std::fprintf(stderr, "server start failed: %s\n", error.c_str());
    return false;
  }
  for (Client& c : live->clients) {
    if (!c.Connect(live->server.socket_path, &error)) {
      std::fprintf(stderr, "connect failed: %s\n", error.c_str());
      return false;
    }
  }
  live->warm_failed = WarmUp(in, live->clients);
  live->setup_s = NsToMs(NowNs() - t0) / 1e3;
  for (const ConnectionScript& s : in.connections) {
    live->warm_attempted += s.warmup.size();
  }
  return true;
}

// One timed phase on a set-up server, and what the server reported
// around it.
struct Phase {
  SocketResult socket;
  rnnhm::WireStatsReply stats_before;
  rnnhm::WireStatsReply stats_after;
  bool stats_ok = false;
  double server_cpu_ms = 0.0;
  double peak_rss_mb = 0.0;
  double steal_ms = 0.0;
};

// Drives the timed phase, then stops the server. Nullopt (with a message)
// when the control connection fails.
std::optional<Phase> TimedPhase(const Inputs& in, double seconds,
                                const std::vector<size_t>& limits,
                                Tracer* tracer, Live* live) {
  Client control;
  std::string error;
  if (!control.Connect(live->server.socket_path, &error)) {
    std::fprintf(stderr, "control connect failed: %s\n", error.c_str());
    return std::nullopt;
  }
  Phase phase;
  const auto before = control.Stats();
  const std::vector<pid_t> pids = ServerPids(live->server);
  const double steal_before_ms = ReadStealMs();
  const double cpu_before_ms = ReadUsage(pids).cpu_ms;
  phase.socket =
      DriveConnections(in, live->clients, seconds, limits, tracer);
  const ProcUsage usage = ReadUsage(pids);
  phase.steal_ms = ReadStealMs() - steal_before_ms;
  const auto after = control.Stats();
  control.Close();
  live->Stop();
  phase.server_cpu_ms = usage.cpu_ms - cpu_before_ms;
  phase.peak_rss_mb = usage.peak_rss_mb;
  phase.stats_ok = before.has_value() && after.has_value();
  if (!phase.stats_ok) {
    std::fprintf(stderr, "the server did not answer the stats op\n");
  } else {
    phase.stats_before = *before;
    phase.stats_after = *after;
  }
  return phase;
}

// Requests attempted and failed over the whole run: warm-up frames of
// every set-up, timed requests, and output checks.
struct Tally {
  size_t attempted = 0;
  size_t failed = 0;

  void Add(const Live& live) {
    attempted += live.warm_attempted;
    failed += live.warm_failed;
  }

  // Checks the phase's outputs and prints its report lines.
  void Add(const Inputs& in, const Phase& phase, const char* name) {
    const SocketResult& socket = phase.socket;
    const size_t check_failed = CheckOutputs(in, socket);
    attempted += socket.records.size() + socket.transport_errors;
    failed += socket.transport_errors + socket.status_errors + check_failed;
    size_t ok = 0;
    std::map<rnnhm::Metric, std::vector<double>> rt_by_metric;
    std::vector<double> rt;
    for (const Record& r : socket.records) {
      if (!r.ok) continue;
      ++ok;
      rt.push_back(r.rt_ms);
      rt_by_metric[r.metric].push_back(r.rt_ms);
    }
    std::printf("%s: %zu ok of %zu requests in %.3f s (%zu transport "
                "errors, %zu error statuses, %zu failed checks)\n",
                name, ok, socket.records.size(),
                static_cast<double>(socket.elapsed_ns) * 1e-9,
                socket.transport_errors, socket.status_errors, check_failed);
    for (const auto& [metric, v] : rt_by_metric) {
      std::printf("  latency %-4s n=%-6zu p50=%.4f ms p90=%.4f ms\n",
                  MetricTag(metric), v.size(), Median(v), Quantile(v, 0.9));
    }
    std::printf("  latency all  n=%-6zu p50=%.4f ms p90=%.4f ms%s\n",
                rt.size(), Median(rt), Quantile(rt, 0.9),
                rt.size() < 100 ? " (p90 from fewer than 100 requests)" : "");
    std::printf("  failed_frac so far=%.6f  cpu steal during the phase: "
                "%.0f ms over %ld CPUs\n",
                static_cast<double>(failed) /
                    static_cast<double>(std::max<size_t>(attempted, 1)),
                phase.steal_ms, ::sysconf(_SC_NPROCESSORS_ONLN));
  }
};

int Run(const Args& args) {
  Inputs in;
  if (!MakeInputs(args.workload, args.seed, &in)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf("env: nproc=%ld cpu=\"%s\" compiler=\"%s\" build=%s "
              "revision=%s\n",
              ::sysconf(_SC_NPROCESSORS_ONLN), CpuModel().c_str(),
              SERVEBENCH_COMPILER, SERVEBENCH_BUILD_TYPE,
              args.revision.c_str());
  std::printf("workload %s seed %llu: %zu connection(s), %s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              in.connections.size(),
              in.server.router ? "by-tile router" : "single server");

  Tally tally;
  if (!args.trace) {
    // Set-up, repeated; the timed phase loads the server of the last
    // repetition before it.
    std::vector<double> setup_s;
    double total_s = 0.0;
    size_t before = 0;
    std::optional<Phase> phase;
    for (int rep = 0; !phase.has_value() || setup_s.size() < 2 * before;
         ++rep) {
      Live live(in.connections.size());
      if (!SetUp(args, in, rep, &live)) return 2;
      setup_s.push_back(live.setup_s);
      total_s += live.setup_s;
      const int n = static_cast<int>(setup_s.size());
      const bool more =
          n < kMaxSetups && (n < kMinSetups || total_s < kSetupBudgetS);
      if (!phase.has_value() && !more) {
        phase = TimedPhase(in, args.seconds, {}, nullptr, &live);
        if (!phase.has_value()) return 2;
        before = setup_s.size();
      }
      live.Stop();
      tally.Add(live);
    }
    if (!phase->stats_ok) return 2;
    tally.Add(in, *phase, "timed phase");
    MetricList metrics;
    EndToEnd(phase->socket, setup_s, phase->server_cpu_ms, phase->peak_rss_mb,
             &metrics);
    if (!args.requests_out.empty()) {
      WriteRequests(args.requests_out, phase->socket);
    }
    PrintResult(tally.failed == 0, tally.attempted, tally.failed, kEndToEnd,
                metrics);
    return tally.failed == 0 ? 0 : 1;
  }

  // The traced run: an untraced pass for half the time, then, on a fresh
  // server so the cache and registry start the same, the same frames
  // again with every request traced.
  std::optional<Phase> plain, traced;
  Tracer tracer;
  for (int pass = 0; pass < 2; ++pass) {
    Live live(in.connections.size());
    if (!SetUp(args, in, pass, &live)) return 2;
    std::vector<size_t> limits;
    if (pass == 1) {
      limits.assign(in.connections.size(), 0);
      for (const Record& r : plain->socket.records) {
        limits[r.conn] = std::max(limits[r.conn], r.index + 1);
      }
    }
    // The traced pass stops at the untraced pass's requests; its deadline
    // only guards against a hang.
    const double seconds = pass == 0 ? args.seconds / 2 : args.seconds * 2;
    std::optional<Phase> phase =
        TimedPhase(in, seconds, limits, pass == 0 ? nullptr : &tracer, &live);
    tally.Add(live);
    if (!phase.has_value() || !phase->stats_ok) return 2;
    tally.Add(in, *phase, pass == 0 ? "untraced pass" : "traced pass");
    (pass == 0 ? plain : traced) = std::move(phase);
  }
  if (!args.requests_out.empty()) {
    WriteRequests(args.requests_out, traced->socket);
  }
  MetricList metrics;
  tally.failed += PerLayer(in, plain->socket, traced->socket,
                           traced->stats_before, traced->stats_after,
                           args.seconds, &tracer, &metrics);
  if (!args.trace_out.empty() && !tracer.Write(args.trace_out)) {
    std::printf("warning: could not write %s\n", args.trace_out.c_str());
  }
  PrintResult(tally.failed == 0, tally.attempted, tally.failed, kPerLayer,
              metrics);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::Args args;
  if (!servebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --cli PATH [--trace-out FILE] "
                 "[--requests-out FILE] [--revision REV]\n");
    return 2;
  }
  ::signal(SIGTERM, servebench::OnSignal);
  ::signal(SIGINT, servebench::OnSignal);
  const int code = servebench::Run(args);
  servebench::StopAllServers();
  return code;
}
