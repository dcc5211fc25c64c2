#include "trace.h"

#include <cstdio>

#include "bench_util.h"

namespace servebench {

int32_t Tracer::Begin(const char* name, int32_t request, int32_t parent) {
  const int64_t now = NowNs();
  return Add(name, now, now, request, parent);
}

int64_t Tracer::End(int32_t id) {
  spans_[id].end = NowNs();
  return Duration(id);
}

int32_t Tracer::Add(const char* name, int64_t start, int64_t end,
                    int32_t request, int32_t parent) {
  spans_.push_back(Span{name, start, end, parent, request});
  return static_cast<int32_t>(spans_.size()) - 1;
}

std::map<std::string, Tracer::SelfTime> Tracer::SelfTimes() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end - s.start;
  }
  std::map<std::string, SelfTime> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    SelfTime& t = out[spans_[i].name];
    ++t.count;
    t.self_ms += NsToMs(spans_[i].end - spans_[i].start - child_ns[i]);
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"request\":%d}\n",
                 i, s.name, static_cast<long long>(s.start),
                 static_cast<long long>(s.end), s.parent, s.request);
  }
  return std::fclose(f) == 0;
}

void MetricList::Set(const std::string& name, double value,
                     const std::string& unit) {
  for (Entry& e : entries) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries.push_back(Entry{name, value, unit});
}

}  // namespace servebench
