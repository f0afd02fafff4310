#include "spans.h"

#include <cstdio>
#include <cstring>

#include "report.h"

namespace perfbench {

SpanLog::SpanLog() : epoch_(std::chrono::steady_clock::now()) {
  spans_.reserve(1 << 16);
}

int64_t SpanLog::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

SpanLog::Id SpanLog::Begin(const char* name, Id parent, uint64_t txn) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.txn = txn;
  s.start_ns = NowNs();
  spans_.push_back(s);
  return static_cast<Id>(spans_.size());
}

void SpanLog::End(Id id, uint64_t units) {
  Span& s = spans_[id - 1];
  s.end_ns = NowNs();
  s.units = units;
}

std::vector<int64_t> SpanLog::SelfTimesNs() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) self[s.parent - 1] -= s.end_ns - s.start_ns;
  }
  return self;
}

double SpanLog::MedianSelfNsPerUnit(const char* name) const {
  const std::vector<int64_t> self = SelfTimesNs();
  std::vector<double> per_unit;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (std::strcmp(spans_[i].name, name) != 0 || spans_[i].units == 0) {
      continue;
    }
    per_unit.push_back(static_cast<double>(self[i]) /
                       static_cast<double>(spans_[i].units));
  }
  return Median(std::move(per_unit));
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<int64_t> self = SelfTimesNs();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"parent\":%u,\"txn\":%llu,"
                 "\"units\":%llu,\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"self_ns\":%lld}\n",
                 i + 1, s.name, s.parent,
                 static_cast<unsigned long long>(s.txn),
                 static_cast<unsigned long long>(s.units),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
