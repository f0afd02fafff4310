#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/histogram.h"

namespace perfbench {

/// One named measurement with its unit, in the order it was set.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Ordered name -> (value, unit) list; setting a name twice overwrites.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const Metric* Find(const std::string& name) const;
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Quantile `q` of a log-bucketed histogram, interpolated linearly inside
/// the bucket that holds the rank (Histogram::Percentile returns the
/// bucket's upper bound, which moves in ~4% steps). Clamped to the exact
/// min/max the histogram tracks; 0 when empty.
double HistogramQuantile(const ecdb::Histogram& h, double q);

/// Median of `values` (mean of the middle pair for even sizes); 0 if empty.
double Median(std::vector<double> values);

/// Arithmetic mean of `values`; 0 if empty.
double Mean(const std::vector<double>& values);

/// Peak resident set in MiB of this process since it started or since the
/// last ResetPeakRss() (VmHWM in /proc/self/status).
double PeakRssMb();

/// Restarts this process's peak-resident mark at its current resident set
/// (Linux clear_refs). False where that is unsupported.
bool ResetPeakRss();

/// Peak resident set in MiB of the largest child process reaped so far.
double PeakChildRssMb();

/// `num / den`, or 0 when den is 0.
double Ratio(double num, double den);

/// The result line: one JSON object with keys correct, attempted, failed
/// and metrics ({"name": {"value": v, "unit": u}, ...}). Values are
/// printed with full precision; a non-finite value is printed as null.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
