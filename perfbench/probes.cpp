// Micro-probes measured once per traced run, after the workload's timed
// windows: the host roofline, per-op host overhead of each backend, the
// kernels at the workloads' shapes, the compiled ResNet step, one
// collective and one served batch.
#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include "common.h"
#include "dist/communicator.h"
#include "eager/eager_backend.h"
#include "lazy/lazy_tensor.h"
#include "mlp_serve.h"
#include "resnet_lazy.h"
#include "support/rng.h"
#include "support/threadpool.h"
#include "tensor/ops.h"

namespace perfbench {

using namespace s4tf;

namespace {

constexpr int kReps = 7;

// Runs body(thread_index) on `threads` threads and returns the wall time.
template <typename Body>
double TimeOnThreads(int threads, Body body) {
  const auto t0 = Clock::now();
  {
    std::vector<std::jthread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) pool.emplace_back(body, t);
  }  // joins
  return SecondsSince(t0);
}

// Stream copy over `threads` disjoint slices; counts bytes read + written.
// A roofline is a ceiling, so both host probes report the best rep.
double StreamCopyGbps(int threads) {
  const std::size_t floats = std::size_t{8} << 20;  // 32 MiB per buffer
  std::vector<float> src(floats, 1.0f);
  std::vector<float> dst(floats, 0.0f);
  const std::size_t slice = floats / static_cast<std::size_t>(threads);
  std::vector<double> gbps;
  for (int r = 0; r < kReps; ++r) {
    const double s = TimeOnThreads(threads, [&](int t) {
      const std::size_t begin = slice * static_cast<std::size_t>(t);
      std::memcpy(dst.data() + begin, src.data() + begin,
                  slice * sizeof(float));
    });
    const double bytes =
        2.0 * static_cast<double>(slice * threads * sizeof(float));
    gbps.push_back(bytes / s / 1e9);
  }
  volatile float sink = dst[floats / 2];
  (void)sink;
  return *std::max_element(gbps.begin(), gbps.end());
}

// Independent vector multiply and add chains, built with the libraries'
// own compile flags (so no fused multiply-add): the peak the kernels
// could reach per thread, times `threads`.
double SimdGflops(int threads) {
  using V = float __attribute__((vector_size(16)));
  constexpr int kAcc = 8;
  constexpr std::int64_t kIters = 4'000'000;
  std::vector<float> sums(static_cast<std::size_t>(threads), 0.0f);
  std::vector<double> gflops;
  for (int r = 0; r < kReps; ++r) {
    const double s = TimeOnThreads(threads, [&](int t) {
      V acc[kAcc];
      const V m = {0.999999f, 0.999999f, 0.999999f, 0.999999f};
      const V a = {1e-7f, 1e-7f, 1e-7f, 1e-7f};
      for (int j = 0; j < kAcc; ++j) {
        acc[j] = V{1.0f, 1.0f, 1.0f, 1.0f} * static_cast<float>(j + t);
      }
      for (std::int64_t i = 0; i < kIters; ++i) {
        for (int j = 0; j < kAcc; ++j) acc[j] = acc[j] * m + a;
      }
      float total = 0.0f;
      for (int j = 0; j < kAcc; ++j) {
        total += acc[j][0] + acc[j][1] + acc[j][2] + acc[j][3];
      }
      sums[static_cast<std::size_t>(t)] = total;
    });
    const double flops =
        2.0 * 4.0 * kAcc * static_cast<double>(kIters) * threads;
    gflops.push_back(flops / s / 1e9);
  }
  volatile float sink = sums[0];
  (void)sink;
  return *std::max_element(gflops.begin(), gflops.end());
}

// Per-op host cost of a chain of tiny multiplies on `device`, including
// `finish` (a sync or nothing), in ns per op.
template <typename Finish>
double TinyOpNs(const Device& device, int ops, Finish finish) {
  std::vector<double> ns;
  for (int r = 0; r < kReps; ++r) {
    Tensor x = Tensor::Ones(Shape({4}), device);
    const auto t0 = Clock::now();
    for (int i = 0; i < ops; ++i) x = x * 1.0001f;
    finish(x);
    ns.push_back(SecondsSince(t0) * 1e9 / ops);
  }
  return Median(ns);
}

Tensor RandomTensor(const Shape& shape, Rng& rng) {
  std::vector<float> values(static_cast<std::size_t>(shape.NumElements()));
  rng.FillUniform(values.data(), values.size(), -1.0f, 1.0f);
  return Tensor::FromVector(shape, std::move(values), NaiveDevice());
}

// Median GFLOP/s of `fn` (run `calls` times per sample) on the naive device.
template <typename Fn>
double KernelGflops(double flops_per_call, int calls, Fn fn) {
  fn();  // warm
  std::vector<double> gflops;
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = Clock::now();
    for (int c = 0; c < calls; ++c) fn();
    gflops.push_back(flops_per_call * calls / SecondsSince(t0) / 1e9);
  }
  return Median(gflops);
}

// Median wall time of one world-2 AllReduce of `elements` floats, as seen
// by rank 0.
double AllReduceMicros(std::int64_t elements, int calls) {
  dist::RingCommunicator comm(2);
  std::vector<double> rank0_us;
  TimeOnThreads(2, [&](int rank) {
    std::vector<float> data(static_cast<std::size_t>(elements), 1.0f + rank);
    for (int c = 0; c < calls; ++c) {
      const auto t0 = Clock::now();
      comm.Run(rank, dist::CollectiveSpec::AllReduce(dist::ReduceOp::kMean),
               data);
      if (rank == 0) rank0_us.push_back(SecondsSince(t0) * 1e6);
    }
  });
  return Median(rank0_us);
}

}  // namespace

void AddProbeMetrics(Result& result) {
  const int threads = IntraOpThreads();
  const double stream = StreamCopyGbps(threads);
  const double simd = SimdGflops(threads);
  result.Add("host.stream_gbps", stream, "GB/s");
  result.Add("host.simd_gflops", simd, "GFLOP/s");

  // Per-op host overhead by backend.
  result.Add("tensor.op_ns.naive",
             TinyOpNs(NaiveDevice(), 4000, [](const Tensor&) {}), "ns");
  {
    EagerBackend eager;
    const Device device = eager.device();
    const double ns =
        TinyOpNs(device, 4000, [&](const Tensor&) { eager.Sync(device); });
    result.Add("eager.op_ns", ns, "ns");
  }
  {
    LazyBackend lazy;
    const Device device = lazy.device();
    // Trace only; each chain is cut untimed before the next sample.
    std::vector<double> ns;
    for (int r = 0; r < kReps; ++r) {
      Tensor x = Tensor::Ones(Shape({4}), device);
      const int ops = 2000;
      const auto t0 = Clock::now();
      for (int i = 0; i < ops; ++i) x = x * 1.0001f;
      ns.push_back(SecondsSince(t0) * 1e9 / ops);
      LazyTensorBarrier(device);
    }
    result.Add("lazy.trace_op_ns", Median(ns), "ns");
  }

  // Kernels at the workloads' shapes, on the naive device. Conv2D at
  // resnet_lazy's stage-1 shape; MatMul at mlp_dp_eager's first layer
  // (one replica's shard).
  Rng rng(7);
  {
    const Tensor input = RandomTensor(Shape({8, 32, 32, 16}), rng);
    const Tensor filter = RandomTensor(Shape({3, 3, 16, 16}), rng);
    const Conv2DOptions same{
        .stride_h = 1, .stride_w = 1, .padding = Padding::kSame};
    const double flops = 2.0 * 8 * 32 * 32 * 16 * 3 * 3 * 16;
    const double gflops =
        KernelGflops(flops, 3, [&] { return Conv2D(input, filter, same); });
    result.Add("tensor.conv2d_gflops", gflops, "GFLOP/s");
    result.Add("tensor.conv2d_roofline_pct", 100.0 * gflops / simd, "%");
  }
  {
    const Tensor a = RandomTensor(Shape({8, 784}), rng);
    const Tensor b = RandomTensor(Shape({784, 64}), rng);
    const double flops = 2.0 * 8 * 784 * 64;
    const double gflops = KernelGflops(flops, 50, [&] { return MatMul(a, b); });
    result.Add("tensor.matmul_gflops", gflops, "GFLOP/s");
    result.Add("tensor.matmul_roofline_pct", 100.0 * gflops / simd, "%");
  }

  const XlaStepProbe xla = ProbeXlaStep(/*seed=*/1, 5);
  result.Add("lazy.lower_ms", xla.lower_ms, "ms");
  result.Add("xla.cache_lookup_ms", xla.lookup_ms, "ms");
  // The barrier's host work besides executing the program.
  result.Add("lazy.overhead_ms", xla.lower_ms + xla.lookup_ms, "ms");
  result.Add("xla.compile_ms", xla.compile_ms, "ms");
  result.Add("xla.run_ms", xla.run_ms, "ms");
  result.Add("xla.arena_peak_mb", xla.arena_peak_mb, "MB");
  result.Note("xla.step_kernels", static_cast<double>(xla.kernels), "count");
  result.Note("xla.step_instructions", static_cast<double>(xla.instructions),
              "count");

  // mlp_dp_eager's gradient: 784*64+64 + 64*64+64 + 64*10+10 floats.
  result.Add("dist.allreduce_us", AllReduceMicros(55114, 100), "us");

  result.Add("serve.run_us.b1", ProbeServeRunMicros(1, 500), "us");
  result.Add("serve.run_us.b8", ProbeServeRunMicros(8, 500), "us");
}

}  // namespace perfbench
