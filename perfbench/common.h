// Shared plumbing for the wall-clock benchmark: command-line options, the
// result record every workload fills, order statistics, and counter
// deltas read from the process-wide metrics registry.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string git_describe = "unknown";
};

// One reported metric, in report order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one workload run hands back to main(). `metrics` holds the
// machine-read metrics of the run's mode (end-to-end untraced, per-layer
// traced); `notes` holds human-readable figures printed before the result
// line (the per-workload metric names, provenance, offered rates).
struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> notes;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Note(const std::string& name, double value, const std::string& unit) {
    notes.push_back({name, value, unit});
  }
  // Counts one correctness check; a failed check is printed on stderr.
  void Check(bool ok, const std::string& what);
  double error_frac() const {
    return attempted > 0 ? static_cast<double>(failed) / attempted : 1.0;
  }
};

// Order statistics over a copy of `values` (linear interpolation between
// closest ranks). Empty input yields 0.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}
// Median of one field over a vector of records.
template <typename T, typename Field>
double MedianOf(const std::vector<T>& records, Field field) {
  std::vector<double> values;
  values.reserve(records.size());
  for (const T& r : records) values.push_back(field(r));
  return Median(values);
}
// part / (part + rest), or 0 when both are 0.
inline double ShareOf(double part, double rest) {
  return part + rest > 0 ? part / (part + rest) : 0.0;
}
// The highest quantile that still has at least `beyond` samples above it,
// capped at `cap` (the guide's "highest supported percentile").
double SupportedTailQuantile(std::size_t n, std::size_t beyond, double cap);

// Peak resident set size of this process so far (VmHWM), in MB (1e6
// bytes); 0 where /proc is unavailable.
double PeakRssMb();

// Host reference: median wall time, in ms, of 5 runs of a fixed direct
// 3x3 convolution written here in the benchmark (NHWC 8x32x32x16 -> 16
// channels, about 4 ms on a 2.1 GHz x86-64 core). It shares no code with
// the libraries, so a change to them never moves it; it moves only with
// the host's speed. Workloads time it right before each round of timed
// work and report their CPU time over it (`cpu_vs_ref`), which cancels
// the host's speed, which on a shared VM drifts by 20-40% from run to run.
double HostReferenceMs();

// CPU time consumed so far by every thread of this process, in ms.
double ProcessCpuMs();

// Counter deltas summed over one or more windows: Open() starts a window
// (construction opens the first), Close() ends it and adds its deltas.
class CounterWindow {
 public:
  CounterWindow() { Open(); }
  void Open() { before_ = s4tf::obs::MetricsRegistry::Global().Snapshot(); }
  void Close() {
    const auto deltas = s4tf::obs::MetricsRegistry::Global()
                            .Snapshot()
                            .CounterDeltaSince(before_);
    for (const auto& [name, delta] : deltas) deltas_[name] += delta;
  }
  std::int64_t Delta(const std::string& name) const {
    const auto it = deltas_.find(name);
    return it == deltas_.end() ? 0 : it->second;
  }

 private:
  s4tf::obs::MetricsSnapshot before_;
  std::map<std::string, std::int64_t> deltas_;
};

// Per-layer counters every workload reports over its traced window:
// kernel dispatches, kernel bytes and pool regions per `steps`, and the
// compile-cache hit share.
void AddKernelCounters(const CounterWindow& counters, double steps,
                       Result& result);

// 64-bit FNV-1a over raw bytes; the self-tests fingerprint generated
// inputs with it.
std::uint64_t Fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t hash = 1469598103934665603ULL);

// Derives an independent sub-seed for one input stream of a workload, so
// the dataset, initialization and request streams never share a sequence.
std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream);

// Probes shared by every traced run (probes.cpp). They run after the
// traced window, so they never overlap a timed end-to-end figure.
void AddProbeMetrics(Result& result);

// Workloads. Each runs set-up, its timed window(s) and its correctness
// checks, and fills `result` for the requested mode.
void RunResnetLazy(const Options& options, Result& result);
void RunMlpDpEager(const Options& options, Result& result);
void RunMlpServe(const Options& options, Result& result);

// Benchmark self-tests; returns the number of failed tests.
int RunSelfTests(std::uint64_t seed);

}  // namespace perfbench
