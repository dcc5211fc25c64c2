// Wire protocol + handle-vs-inline serving benchmark.
//
// Four phases:
//   * codec/request  — encode/decode throughput of framed v2 requests
//                      (inline circle payloads, content-hash verified);
//   * codec/response — encode/decode throughput of full responses (the
//                      grid payload dominates; a Size map travels as
//                      16-bit counts, packed by the encoder's fused scan);
//   * encode_hit     — a warm cache hit turned into a response frame, the
//                      wire server's hot path: `packed` encodes the cached
//                      counts as they are, `widened` takes the hit as
//                      doubles and encodes those, as every caller of the
//                      HeatmapResponse overloads does;
//   * submit         — per-call latency of a warm cache-enabled engine,
//                      legacy inline Execute (hashes the circle vector
//                      every call) vs v2 handle Execute (precomputed hash,
//                      O(1) probe) — the latency gap the handle API buys.
//
// Besides the text table, the run writes a machine-readable summary to
// BENCH_wire.json (override with RNNHM_BENCH_JSON_WIRE): one record per
// (phase, variant) with MB/s for the codec and encode_hit phases — over
// the grid's width * height * 8 double bytes, so a smaller encoding reads
// as faster, not slower — and microseconds per call for the submit and
// encode_hit phases. Set RNNHM_BENCH_FULL=1 for larger sizes.
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "heatmap/influence.h"
#include "query/circle_set_registry.h"
#include "query/heatmap_engine.h"
#include "query/wire.h"

namespace rnnhm::bench {
namespace {

struct JsonRecord {
  std::string phase;
  std::string variant;
  long work;        // circles (codec/request), pixels (codec/response),
                    // calls (submit, encode_hit)
  double ms;        // total wall time of the timed loop
  double mb_per_s;  // codec and encode_hit phases; 0 for submit
  double us_per_call;  // submit and encode_hit phases; 0 for codec
};

std::vector<NnCircle> MakeCircles(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<NnCircle> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(NnCircle{{rng.Uniform(0, 1), rng.Uniform(0, 1)},
                           rng.Uniform(0.02, 0.2),
                           static_cast<int32_t>(i)});
  }
  return out;
}

const Rect kDomain{{-0.1, -0.1}, {1.1, 1.1}};

void RunRequestCodec(size_t circles, int iters,
                     std::vector<JsonRecord>* records) {
  const auto set =
      CircleSetSnapshot::Make(MakeCircles(11, circles), Metric::kL2);
  const WireRequest request =
      MakeWireRequest(*set, kDomain, 512, 512, /*include_circles=*/true);
  std::vector<uint8_t> bytes;
  const double encode_ms = TimeMs([&] {
    for (int i = 0; i < iters; ++i) bytes = EncodeRequest(request);
  });
  std::string error;
  const double decode_ms = TimeMs([&] {
    for (int i = 0; i < iters; ++i) {
      if (!DecodeRequest(bytes, &error).has_value()) std::abort();
    }
  });
  const double mb = static_cast<double>(bytes.size()) * iters / 1e6;
  const double encode_mbs = encode_ms > 0 ? mb / (encode_ms / 1e3) : 0.0;
  const double decode_mbs = decode_ms > 0 ? mb / (decode_ms / 1e3) : 0.0;
  std::printf("[codec/request] %zu circles (%zu bytes): encode %.0f MB/s, "
              "decode %.0f MB/s (hash-verified)\n",
              circles, bytes.size(), encode_mbs, decode_mbs);
  records->push_back(JsonRecord{"codec_request", "encode",
                                static_cast<long>(circles), encode_ms,
                                encode_mbs, 0.0});
  records->push_back(JsonRecord{"codec_request", "decode",
                                static_cast<long>(circles), decode_ms,
                                decode_mbs, 0.0});
}

void RunResponseCodec(int resolution, int iters,
                      std::vector<JsonRecord>* records) {
  SizeInfluence measure;
  HeatmapEngineOptions options;
  options.num_threads = 1;
  HeatmapEngine engine(measure, options);
  const HeatmapResponse response = engine.Execute(HeatmapRequest{
      MakeCircles(12, 500), kDomain, resolution, resolution, Metric::kLInf});
  std::vector<uint8_t> bytes;
  const double encode_ms = TimeMs([&] {
    for (int i = 0; i < iters; ++i) bytes = EncodeResponse(response);
  });
  std::string error;
  const double decode_ms = TimeMs([&] {
    for (int i = 0; i < iters; ++i) {
      if (!DecodeResponse(bytes, &error).has_value()) std::abort();
    }
  });
  const long pixels = static_cast<long>(resolution) * resolution;
  const double mb = static_cast<double>(pixels) * sizeof(double) * iters / 1e6;
  const double encode_mbs = encode_ms > 0 ? mb / (encode_ms / 1e3) : 0.0;
  const double decode_mbs = decode_ms > 0 ? mb / (decode_ms / 1e3) : 0.0;
  std::printf("[codec/response] %dx%d grid (%zu bytes): encode %.0f MB/s, "
              "decode %.0f MB/s\n",
              resolution, resolution, bytes.size(), encode_mbs, decode_mbs);
  records->push_back(
      JsonRecord{"codec_response", "encode", pixels, encode_ms, encode_mbs,
                 0.0});
  records->push_back(
      JsonRecord{"codec_response", "decode", pixels, decode_ms, decode_mbs,
                 0.0});
}

void RunEncodeHit(int resolution, int iters,
                  std::vector<JsonRecord>* records) {
  SizeInfluence measure;
  HeatmapEngineOptions options;
  options.num_threads = 1;
  options.cache_bytes = 64ull << 20;
  HeatmapEngine engine(measure, options);
  const HeatmapRequestV2 request{
      engine.registry().Register(MakeCircles(14, 500), Metric::kLInf),
      kDomain, resolution, resolution};
  (void)engine.Execute(request);  // warm the cache
  size_t frame_bytes = 0;
  const double packed_ms = TimeMs([&] {
    for (int i = 0; i < iters; ++i) {
      std::optional<PackedHeatmapResponse> hit;
      if (!engine.ExecuteChecked(request, &hit).ok()) std::abort();
      frame_bytes = EncodeResponse(*hit).size();
    }
  });
  const double widened_ms = TimeMs([&] {
    for (int i = 0; i < iters; ++i) {
      std::optional<HeatmapResponse> hit;
      if (!engine.ExecuteChecked(request, &hit).ok()) std::abort();
      (void)EncodeResponse(*hit).size();
    }
  });
  const long pixels = static_cast<long>(resolution) * resolution;
  const double mb = static_cast<double>(pixels) * sizeof(double) * iters / 1e6;
  const double packed_us = packed_ms * 1e3 / iters;
  const double widened_us = widened_ms * 1e3 / iters;
  std::printf("[encode_hit] %dx%d cached hit to a %zu-byte frame: packed "
              "%.1f us/call, widened %.1f us/call (%.1fx)\n",
              resolution, resolution, frame_bytes, packed_us, widened_us,
              packed_us > 0 ? widened_us / packed_us : 0.0);
  records->push_back(JsonRecord{"encode_hit", "packed", iters, packed_ms,
                                packed_ms > 0 ? mb / (packed_ms / 1e3) : 0.0,
                                packed_us});
  records->push_back(JsonRecord{"encode_hit", "widened", iters, widened_ms,
                                widened_ms > 0 ? mb / (widened_ms / 1e3) : 0.0,
                                widened_us});
}

void RunSubmitLatency(size_t circles, int resolution, int iters,
                      std::vector<JsonRecord>* records) {
  SizeInfluence measure;
  HeatmapEngineOptions options;
  options.num_threads = 1;
  options.cache_bytes = 256ull << 20;
  HeatmapEngine engine(measure, options);
  const HeatmapRequest inline_request{MakeCircles(13, circles), kDomain,
                                      resolution, resolution, Metric::kLInf};
  const CircleSetHandle handle = engine.registry().Register(
      inline_request.circles, inline_request.metric);
  const HeatmapRequestV2 handle_request{handle, kDomain, resolution,
                                        resolution};
  (void)engine.Execute(handle_request);  // warm the cache

  // Warm hits only: both variants return the memoized response; the cost
  // difference is the per-call circle-vector hash the inline path pays.
  const double inline_ms = TimeMs([&] {
    for (int i = 0; i < iters; ++i) (void)engine.Execute(inline_request);
  });
  const double handle_ms = TimeMs([&] {
    for (int i = 0; i < iters; ++i) (void)engine.Execute(handle_request);
  });
  const double inline_us = inline_ms * 1e3 / iters;
  const double handle_us = handle_ms * 1e3 / iters;
  std::printf("[submit] %zu circles at %dx%d, warm cache: inline %.1f "
              "us/call, handle %.1f us/call (%.1fx)\n",
              circles, resolution, resolution, inline_us, handle_us,
              handle_us > 0 ? inline_us / handle_us : 0.0);
  records->push_back(JsonRecord{"submit", "inline", iters, inline_ms, 0.0,
                                inline_us});
  records->push_back(JsonRecord{"submit", "handle", iters, handle_ms, 0.0,
                                handle_us});
}

void WriteJson(const std::vector<JsonRecord>& records) {
  const char* path = std::getenv("RNNHM_BENCH_JSON_WIRE");
  if (path == nullptr) path = "BENCH_wire.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"wire\",\n  \"cells\": [\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const JsonRecord& r = records[i];
    std::fprintf(
        f,
        "    {\"phase\": \"%s\", \"variant\": \"%s\", \"work\": %ld, "
        "\"ms\": %.3f, \"mb_per_s\": %.1f, \"us_per_call\": %.3f}%s\n",
        r.phase.c_str(), r.variant.c_str(), r.work, r.ms, r.mb_per_s,
        r.us_per_call, i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu cells)\n", path, records.size());
}

void Run() {
  const bool full = FullMode();
  const size_t circles = full ? 100000 : 10000;
  const int codec_iters = full ? 200 : 50;
  const int resolution = full ? 512 : 256;
  const int submit_iters = full ? 2000 : 500;
  const int hit_iters = full ? 4000 : 2000;

  std::vector<JsonRecord> records;
  RunRequestCodec(circles, codec_iters, &records);
  RunResponseCodec(resolution, codec_iters, &records);
  RunEncodeHit(resolution, hit_iters, &records);
  RunSubmitLatency(circles, 128, submit_iters, &records);
  WriteJson(records);
}

}  // namespace
}  // namespace rnnhm::bench

int main() {
  rnnhm::bench::Run();
  return 0;
}
