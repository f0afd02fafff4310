#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench {

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

const Metric* MetricSet::Find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double HistogramQuantile(const ecdb::Histogram& h, double q) {
  if (h.count() == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(h.count());
  double seen = 0;
  for (const auto& [bucket, count] : h.NonZeroBuckets()) {
    const double c = static_cast<double>(count);
    if (seen + c >= rank) {
      const double lo =
          bucket == 0
              ? 0.0
              : static_cast<double>(ecdb::Histogram::BucketUpperBound(bucket - 1));
      const double hi =
          static_cast<double>(ecdb::Histogram::BucketUpperBound(bucket));
      const double v = lo + (hi - lo) * ((rank - seen) / c);
      return std::clamp(v, static_cast<double>(h.min()),
                        static_cast<double>(h.max()));
    }
    seen += c;
  }
  return static_cast<double>(h.max());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

double PeakChildRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_CHILDREN, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out << ", ";
    out << "\"" << metrics[i].name << "\": {\"value\": "
        << JsonNumber(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
