// perfbench: host wall-clock benchmark of s4tf-cpp.
//
//   perfbench --workload <resnet_lazy|mlp_dp_eager|mlp_serve> --seed <n>
//             --seconds <s> --trace <0|1> [--git-describe <text>]
//   perfbench --selftest [--seed <n>]
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer metrics. Human-readable figures come
// first; the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.h"
#include "support/threadpool.h"

namespace perfbench {
namespace {

// Intra-op pool size. On a few shared cores a kernel sharded over every
// core waits for its slowest shard, so a neighbour's load on any core
// shows up as step-time noise. With one thread ParallelForRange still
// takes its pool path (AcquirePool, region counting) and runs inline.
constexpr int kIntraOpThreads = 1;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every untraced run reports each of these, on every workload.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"cpu_vs_ref", "1"},
};

// Every traced run reports each of these; a layer the workload does not
// exercise reads 0. The probes (probes.cpp) are measured on every
// workload.
constexpr MetricSpec kPerLayer[] = {
    {"host.stream_gbps", "GB/s"},
    {"host.simd_gflops", "GFLOP/s"},
    {"support.pool.regions_per_step", "count"},
    {"tensor.dispatches_per_step", "count"},
    {"tensor.bytes_per_step", "B"},
    {"tensor.op_ns.naive", "ns"},
    {"tensor.conv2d_gflops", "GFLOP/s"},
    {"tensor.conv2d_roofline_pct", "%"},
    {"tensor.matmul_gflops", "GFLOP/s"},
    {"tensor.matmul_roofline_pct", "%"},
    {"eager.ops_per_step", "count"},
    {"eager.pipeline_depth_max", "count"},
    {"eager.op_ns", "ns"},
    {"ad.grad_ms", "ms"},
    {"lazy.ops_traced_per_step", "count"},
    {"lazy.barrier_ms", "ms"},
    {"lazy.overhead_ms", "ms"},
    {"lazy.lower_ms", "ms"},
    {"lazy.read_ms", "ms"},
    {"lazy.trace_op_ns", "ns"},
    {"xla.cache_hit_frac", "1"},
    {"xla.kernels_per_step", "count"},
    {"xla.arena_peak_mb", "MB"},
    {"xla.cache_lookup_ms", "ms"},
    {"xla.run_ms", "ms"},
    {"xla.compile_ms", "ms"},
    {"nn.data_ms", "ms"},
    {"nn.update_ms", "ms"},
    {"nn.replica.parallel_ms", "ms"},
    {"nn.replica.caller_ms", "ms"},
    {"nn.replica.skew_ms", "ms"},
    {"dist.bytes_per_step", "B"},
    {"dist.messages_per_step", "count"},
    {"dist.early_bucket_frac", "1"},
    {"dist.retries", "count"},
    {"dist.allreduce_us", "us"},
    {"serve.batch_mean", "count"},
    {"serve.padding_frac", "1"},
    {"serve.queue_depth_max", "count"},
    {"serve.gen_lag_ms_max", "ms"},
    {"serve.exec_us", "us"},
    {"serve.run_us.b1", "us"},
    {"serve.run_us.b8", "us"},
    {"obs.trace_overhead_frac", "1"},
    {"obs.step_coverage_frac", "1"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "<resnet_lazy|mlp_dp_eager|mlp_serve>\n"
               "                 --seed <n> --seconds <s> --trace <0|1> "
               "[--git-describe <text>]\n"
               "       perfbench --selftest [--seed <n>]\n");
  return 2;
}

const Metric* Find(const std::vector<Metric>& metrics,
                   const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

// Orders the run's metrics by the canonical list, filling layers the
// workload did not exercise with 0.
template <std::size_t N>
std::vector<Metric> Canonical(const std::vector<Metric>& got,
                              const MetricSpec (&spec)[N]) {
  std::vector<Metric> out;
  for (const MetricSpec& s : spec) {
    const Metric* m = Find(got, s.name);
    out.push_back({s.name, m != nullptr ? m->value : 0.0, s.unit});
  }
  return out;
}

void PrintResult(const Result& result, const std::vector<Metric>& metrics,
                 bool correct) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  char buf[512];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    line += buf;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool selftest = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--workload" && (v = value())) {
      options.workload = v;
      have_workload = true;
    } else if (arg == "--seed" && (v = value())) {
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds" && (v = value())) {
      options.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace" && (v = value())) {
      options.trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--git-describe" && (v = value())) {
      options.git_describe = v;
    } else {
      return Usage();
    }
  }
  if (selftest) return RunSelfTests(options.seed) == 0 ? 0 : 1;
  if (!have_workload || !(options.seconds > 0.0) || options.seconds > 120.0) {
    return Usage();
  }
  s4tf::SetIntraOpThreads(kIntraOpThreads);

  void (*run)(const Options&, Result&) = nullptr;
  if (options.workload == "resnet_lazy") run = RunResnetLazy;
  if (options.workload == "mlp_dp_eager") run = RunMlpDpEager;
  if (options.workload == "mlp_serve") run = RunMlpServe;
  if (run == nullptr) return Usage();

  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"nproc\": %u, "
      "\"intra_op_threads\": %d, \"git_describe\": \"%s\"}}\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0,
      std::thread::hardware_concurrency(), s4tf::IntraOpThreads(),
      options.git_describe.c_str());
  std::fflush(stdout);

  Result result;
  try {
    run(options, result);
    if (options.trace) {
      AddProbeMetrics(result);
    } else if (Find(result.metrics, "peak_rss_mb") == nullptr) {
      result.Add("peak_rss_mb", PeakRssMb(), "MB");
    }
  } catch (const std::exception& e) {
    result.Check(false, std::string("uncaught exception: ") + e.what());
  }

  std::vector<Metric> metrics = options.trace
                                    ? Canonical(result.metrics, kPerLayer)
                                    : Canonical(result.metrics, kEndToEnd);
  bool finite = true;
  for (Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   m.name.c_str());
      m.value = -1.0;
      finite = false;
    }
  }
  for (const Metric& n : result.notes) {
    std::printf("%-28s %14.6g %s\n", n.name.c_str(), n.value, n.unit.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("%-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%-28s %14.6g %s\n", "error_frac", result.error_frac(), "1");
  const bool correct = finite && result.attempted > 0 && result.failed == 0;
  PrintResult(result, metrics, correct);
  return 0;
}
