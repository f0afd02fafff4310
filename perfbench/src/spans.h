#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// In-memory span log of the benchmark's own timings: each span has a
/// name, a start and end on the steady clock, the span that caused it, the
/// transaction it belongs to (0 for run-phase spans) and the count of work
/// units it covered (operations, messages, records). Nothing is written
/// until WriteJsonl() at the end of the run.
class SpanLog {
 public:
  using Id = uint32_t;
  static constexpr Id kNoParent = 0;

  struct Span {
    const char* name = "";  // static string
    Id parent = kNoParent;
    uint64_t txn = 0;
    uint64_t units = 1;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  SpanLog();

  /// Opens a span and returns its id (ids start at 1).
  Id Begin(const char* name, Id parent = kNoParent, uint64_t txn = 0);
  /// Closes span `id`, recording how many work units it covered.
  void End(Id id, uint64_t units = 1);

  const std::vector<Span>& spans() const { return spans_; }

  /// Each span's duration minus the part of it its children cover, in ns,
  /// indexed like spans() (children of one span never overlap here).
  std::vector<int64_t> SelfTimesNs() const;

  /// Median over spans named `name` of self time per work unit, in ns;
  /// 0 when there is no such span.
  double MedianSelfNsPerUnit(const char* name) const;

  /// Writes one JSON object per span. Returns false on an I/O error.
  bool WriteJsonl(const std::string& path) const;

 private:
  int64_t NowNs() const;

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// RAII span: opened on construction, closed on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name,
             SpanLog::Id parent = SpanLog::kNoParent, uint64_t txn = 0)
      : log_(log), id_(log->Begin(name, parent, txn)) {}
  ~ScopedSpan() { log_->End(id_, units_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  SpanLog::Id id() const { return id_; }
  void set_units(uint64_t units) { units_ = units; }

 private:
  SpanLog* log_;
  SpanLog::Id id_;
  uint64_t units_ = 1;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
