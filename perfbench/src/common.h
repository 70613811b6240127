// Shared pieces of the benchmark program: run options, the metric sink that
// becomes the final JSON line, latency statistics, the in-memory span
// recorder and the order-independent answer fingerprints the oracles
// compare.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sparql/result_table.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/results";
  /// Threads the run may keep busy at once (hardware concurrency, at
  /// most 4): client threads, service readers and build pools together.
  int threads = 4;
};

/// Counts every timed operation; a wrong answer, a rejection or an error
/// status is a failed operation.
struct OpCounts {
  uint64_t attempted = 0;
  uint64_t wrong = 0;
  uint64_t rejected = 0;
  uint64_t errors = 0;
  uint64_t failed() const { return wrong + rejected + errors; }
};

/// Latency (ms) recorded for a failed operation instead of its completion
/// time: above any limit (longer than a run), so every percentile that
/// reaches a failed operation reports it as missed.
constexpr double kMissedMs = 1e6;

/// Named metrics with units, in insertion order of first report.
class MetricSink {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const { return index_.count(name) > 0; }
  /// A ratio together with its numerator and denominator (as counts).
  void Ratio(const std::string& name, double num, double den,
             const std::string& num_name, const std::string& den_name);
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
  std::map<std::string, size_t> index_;
};

/// Nearest-rank percentile (0 < p <= 100) of `v`; 0 when empty.
double Percentile(std::vector<double> v, double p);
/// Median with the usual midpoint for even sizes; 0 when empty.
double Median(std::vector<double> v);
/// `stat` of each third of `v` (samples in time order), then the median of
/// the three: a slow phase of the shared host that covers one third of a
/// run does not move the figure.
double MedianOfThirds(const std::vector<double>& v,
                      const std::function<double(std::vector<double>)>& stat);
/// MedianOfThirds of the nearest-rank percentile p.
double PercentileOfThirds(const std::vector<double>& v, double p);

/// Percentile `pct` (ms) of a registry histogram kept in seconds; 0 when
/// the histogram does not exist.
double HistMs(const sedge::obs::MetricsRegistry& reg, const char* name,
              double pct);
/// A registry counter's value; 0 when it does not exist.
uint64_t CounterValue(const sedge::obs::MetricsRegistry& reg,
                      const char* name);

/// A traced run prints every per-layer metric of the manifest. Those of
/// `layer` that the workload has not set are reported as 0: its traffic
/// bypasses the layer (no work, no time), or another workload measures
/// it (see README.md). `layer` is one of "sparql", "query", "core",
/// "store.overlay", "serve", "dist", "io" and "bench.generator".
void ReportUnmeasured(const std::string& layer, MetricSink* out);

// -- Tracing ---------------------------------------------------------------
//
// Spans are recorded by the benchmark's own code around calls into each
// layer's public functions: name, start, end, parent span and request id.
// They are kept in per-thread buffers while the run measures and written
// out, with each name's self time, when the run ends.

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int64_t parent;  // index in the same thread's buffer, -1 for a root
  uint64_t request;
};

class Trace {
 public:
  /// Recording is off until Enable(); a disabled ScopedTrace reads no
  /// clock.
  static void Enable(bool on);
  static bool enabled();
  /// Durations (ms) of the spans called `name`, minus their children.
  static std::vector<double> SelfMs(const std::string& name);
  /// Records an already finished root span (for intervals that overlap
  /// others on the same thread, such as open-loop requests in flight).
  static void Add(const char* name, Clock::time_point start,
                  Clock::time_point end, uint64_t request);
  /// Writes all spans (JSON lines) plus a per-name self-time summary.
  static bool WriteJsonl(const std::string& path,
                         const std::string& header_json);
};

class ScopedTrace {
 public:
  ScopedTrace(const char* name, uint64_t request);
  ~ScopedTrace() { End(); }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;
  void End();

 private:
  int64_t index_ = -1;
};

// -- Answer fingerprints -----------------------------------------------------

/// Order-independent digest of a decoded result: row count plus the
/// wrapping sum of per-row hashes. Columns are matched by variable name,
/// so engines may order them differently. With `set_semantics`, duplicate
/// rows collapse first (UNION rewriting has bag semantics where LiteMat
/// interval reasoning yields each solution once). Digests of disjoint row
/// sets add up, which is what lets the sensor oracle slide a window.
struct Fingerprint {
  uint64_t rows = 0;
  uint64_t sum = 0;
  bool operator==(const Fingerprint& o) const {
    return rows == o.rows && sum == o.sum;
  }
  bool operator!=(const Fingerprint& o) const { return !(*this == o); }
  Fingerprint& operator+=(const Fingerprint& o) {
    rows += o.rows;
    sum += o.sum;
    return *this;
  }
  Fingerprint operator-(const Fingerprint& o) const {
    return {rows - o.rows, sum - o.sum};
  }
};

Fingerprint Digest(const sedge::sparql::QueryResult& result,
                   bool set_semantics);

// -- Workloads ---------------------------------------------------------------

struct WorkloadResult {
  OpCounts ops;
  MetricSink metrics;
  bool correct = true;
  std::string note;  // why the run is not correct, if it is not
};

WorkloadResult RunLubm(const RunOptions& opts, bool sharded);
WorkloadResult RunSensor(const RunOptions& opts);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
