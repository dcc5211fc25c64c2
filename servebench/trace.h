// Spans and named metrics of the traced run.
//
// A span is one timed interval at a layer boundary: name, start, end, the
// span that caused it (-1 for a root) and the request it belongs to.
// Spans stay in memory and are written as JSON lines when the run ends.
// A layer's self time is its span's duration minus its children's.
#ifndef SERVEBENCH_TRACE_H_
#define SERVEBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace servebench {

struct Span {
  const char* name = "";
  int64_t start = 0;
  int64_t end = 0;
  int32_t parent = -1;
  int32_t request = -1;
};

class Tracer {
 public:
  /// Opens a span starting now; returns its id.
  int32_t Begin(const char* name, int32_t request, int32_t parent = -1);
  /// Closes span `id` now; returns its duration in ns.
  int64_t End(int32_t id);
  /// Records an already-timed span.
  int32_t Add(const char* name, int64_t start, int64_t end, int32_t request,
              int32_t parent = -1);

  int64_t Duration(int32_t id) const {
    return spans_[id].end - spans_[id].start;
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: count, total self time (ms).
  struct SelfTime {
    int64_t count = 0;
    double self_ms = 0.0;
  };
  std::map<std::string, SelfTime> SelfTimes() const;

  /// Writes every span as one JSON object per line.
  bool Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// An ordered list of named metrics with units, as the result line
/// prints them.
struct MetricList {
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries;

  void Set(const std::string& name, double value, const std::string& unit);
};

}  // namespace servebench

#endif  // SERVEBENCH_TRACE_H_
