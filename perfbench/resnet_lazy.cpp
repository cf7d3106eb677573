// Workload `resnet_lazy`: ResNet-20 on synthetic CIFAR-10, batch 8,
// SGD with momentum on a LazyBackend device through nn::TrainStep. Closed
// loop: one caller, the next step starts when the previous one returned.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "common.h"
#include "lazy/lazy_tensor.h"
#include "nn/models/resnet.h"
#include "nn/training.h"
#include "resnet_lazy.h"
#include "xla/compiler.h"

namespace perfbench {

using namespace s4tf;

namespace {

constexpr int kDepth = 20;
constexpr int kBatch = 8;
constexpr int kExamples = 256;
constexpr int kWarmSteps = 2;   // both trace compiles happen here
constexpr int kCheckSteps = 4;  // losses compared against the naive device
constexpr int kSetups = 5;      // set-up repeats; setup_s is their median
constexpr float kLearningRate = 0.05f;
constexpr float kMomentum = 0.9f;

Tensor Loss(const nn::ResNet& m, const nn::LabeledBatch& batch) {
  return nn::SoftmaxCrossEntropy(m(batch.images), batch.one_hot);
}

}  // namespace

ResnetRig::ResnetRig(std::uint64_t seed, bool lazy)
    : backend(lazy ? std::make_unique<LazyBackend>() : nullptr),
      model(MakeModel(seed)),
      optimizer(kLearningRate, kMomentum),
      dataset(nn::SyntheticImageDataset::Cifar10(kExamples, SubSeed(seed, 1))),
      device(lazy ? backend->device() : NaiveDevice()) {
  nn::MoveModelTo(model, device);
}

nn::ResNet ResnetRig::MakeModel(std::uint64_t seed) {
  Rng rng(SubSeed(seed, 0));
  return nn::ResNet(nn::ResNetConfig::Cifar(kDepth), rng);
}

int ResnetRig::batch_size() { return kBatch; }

float ResnetRig::Step() {
  const nn::LabeledBatch batch = dataset.Batch(step++, kBatch, device);
  const float loss = nn::TrainStep(
      model, optimizer,
      [&batch](const nn::ResNet& m) { return Loss(m, batch); });
  losses.push_back(loss);
  return loss;
}

float ResnetRig::TracedStep(ResnetLayerTimes& t) {
  // The body of nn::TrainStep, call by call, with a clock read between
  // calls: data -> ValueWithGradient -> Update -> LazyTensorBarrier ->
  // loss read.
  const auto t0 = Clock::now();
  const nn::LabeledBatch batch = dataset.Batch(step++, kBatch, device);
  const auto t1 = Clock::now();
  auto [loss, grads] = ad::ValueWithGradient(
      model, [&batch](const nn::ResNet& m) { return Loss(m, batch); });
  const auto t2 = Clock::now();
  optimizer.Update(model, grads);
  const auto t3 = Clock::now();
  if (device.kind() == DeviceKind::kLazy) LazyTensorBarrier(device);
  const auto t4 = Clock::now();
  const float value = loss.ScalarValue();
  const auto t5 = Clock::now();
  auto ms = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  };
  t.data_ms = ms(t0, t1);
  t.grad_ms = ms(t1, t2);
  t.update_ms = ms(t2, t3);
  t.barrier_ms = ms(t3, t4);
  t.read_ms = ms(t4, t5);
  losses.push_back(value);
  return value;
}

std::vector<float> ReferenceLosses(std::uint64_t seed, int steps) {
  ResnetRig naive(seed, /*lazy=*/false);
  for (int s = 0; s < steps; ++s) naive.Step();
  return naive.losses;
}

void CompareLosses(const std::vector<float>& got,
                   const std::vector<float>& expected, Result& result,
                   const char* what) {
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const bool ok = i < got.size() &&
                    std::memcmp(&got[i], &expected[i], sizeof(float)) == 0;
    char label[128];
    std::snprintf(label, sizeof(label), "%s: loss of step %zu (%.9g vs %.9g)",
                  what, i, i < got.size() ? got[i] : NAN, expected[i]);
    result.Check(ok, label);
  }
}

namespace {

struct Window {
  std::vector<double> step_ms;    // untraced steps
  std::vector<double> cpu_ms;     // untraced steps: process CPU time
  std::vector<double> cpu_vs_ref;  // the same over HostReferenceMs
  std::vector<double> traced_ms;  // traced steps
  std::vector<ResnetLayerTimes> layers;
};

// Closed loop for `seconds`. With `alternate`, even steps run untraced
// and odd steps traced, so both see the same host conditions. Every step
// is a round of its own: the host reference is timed right before it.
Window RunWindow(ResnetRig& rig, double seconds, bool alternate,
                 Result& result) {
  Window w;
  const auto start = Clock::now();
  int attempts = 0;
  while (SecondsSince(start) < seconds || (w.step_ms.empty() && attempts < 3)) {
    const bool traced = alternate && (attempts % 2 == 1);
    ++attempts;
    const double ref_ms = HostReferenceMs();
    const double cpu0 = ProcessCpuMs();
    const auto t0 = Clock::now();
    float loss = 0.0f;
    ResnetLayerTimes t;
    try {
      loss = traced ? rig.TracedStep(t) : rig.Step();
    } catch (const std::exception& e) {
      result.Check(false, std::string("resnet_lazy step threw: ") + e.what());
      continue;
    }
    const double ms = SecondsSince(t0) * 1e3;
    const double cpu_ms = ProcessCpuMs() - cpu0;
    if (traced) {
      w.traced_ms.push_back(ms);
      w.layers.push_back(t);
    } else {
      w.step_ms.push_back(ms);
      w.cpu_ms.push_back(cpu_ms);
      w.cpu_vs_ref.push_back(cpu_ms / ref_ms);
    }
    result.Check(std::isfinite(loss), "resnet_lazy: finite loss");
  }
  return w;
}

}  // namespace

void RunResnetLazy(const Options& options, Result& result) {
  // Set-up: model build, lazy device, data, and the warm steps that hold
  // both trace compiles. Repeated; every repeat must reproduce the same
  // warm losses.
  std::vector<double> setup_s;
  std::unique_ptr<ResnetRig> rig;
  std::vector<float> first_warm;
  const int setups = options.trace ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    rig.reset();
    const auto t0 = Clock::now();
    rig = std::make_unique<ResnetRig>(options.seed, /*lazy=*/true);
    for (int s = 0; s < kWarmSteps; ++s) rig->Step();
    setup_s.push_back(SecondsSince(t0));
    if (i == 0) {
      first_warm = rig->losses;
    } else {
      CompareLosses(rig->losses, first_warm, result,
                    "resnet_lazy set-up repeat");
    }
  }

  const std::int64_t misses_before = rig->backend->cache_misses();
  const std::int64_t kernels_before = rig->backend->kernels_launched();
  CounterWindow counters;
  const Window window = RunWindow(*rig, options.seconds, options.trace, result);
  counters.Close();
  const std::int64_t kernels =
      rig->backend->kernels_launched() - kernels_before;
  result.Check(rig->backend->cache_misses() == misses_before,
               "resnet_lazy: no trace compile inside the timed window");

  // Peak memory of the run, read before the reference run below adds its own.
  if (!options.trace) result.Add("peak_rss_mb", PeakRssMb(), "MB");

  // Correctness, outside the timed window: the first steps' losses equal
  // a naive-device run of the same seed, bit for bit.
  while (static_cast<int>(rig->losses.size()) < kCheckSteps) rig->Step();
  CompareLosses(rig->losses, ReferenceLosses(options.seed, kCheckSteps),
                result, "resnet_lazy vs naive device");

  const double step_ms = Median(window.step_ms);
  const double steps =
      static_cast<double>(window.step_ms.size() + window.traced_ms.size());
  result.Note("train.samples_per_s", kBatch / (step_ms / 1e3), "1/s");
  result.Note("train.steps_timed", steps, "count");
  if (!options.trace) {
    const double tail_q =
        SupportedTailQuantile(window.step_ms.size(), 10, 0.99);
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("cpu_vs_ref", Median(window.cpu_vs_ref), "1");
    result.Note("train.p50_ms", step_ms, "ms");
    result.Note("train.cpu_ms_per_step", Median(window.cpu_ms), "ms");
    result.Note("train.step_tail_ms", Quantile(window.step_ms, tail_q), "ms");
    result.Note("train.step_tail_quantile", tail_q, "1");
    return;
  }

  using T = ResnetLayerTimes;
  const auto& L = window.layers;
  const double data = MedianOf(L, [](const T& t) { return t.data_ms; });
  const double grad = MedianOf(L, [](const T& t) { return t.grad_ms; });
  const double update = MedianOf(L, [](const T& t) { return t.update_ms; });
  const double barrier = MedianOf(L, [](const T& t) { return t.barrier_ms; });
  const double read = MedianOf(L, [](const T& t) { return t.read_ms; });
  result.Add("nn.data_ms", data, "ms");
  result.Add("ad.grad_ms", grad, "ms");
  result.Add("nn.update_ms", update, "ms");
  result.Add("lazy.barrier_ms", barrier, "ms");
  result.Add("lazy.read_ms", read, "ms");
  // Share of the untraced step that the traced layer timings explain.
  result.Add("obs.step_coverage_frac",
             (data + grad + update + barrier + read) / step_ms, "1");
  result.Add("obs.trace_overhead_frac",
             Median(window.traced_ms) / step_ms - 1.0, "1");
  result.Add("lazy.ops_traced_per_step",
             counters.Delta("lazy.ops_traced") / steps, "count");
  result.Add("xla.kernels_per_step", static_cast<double>(kernels) / steps,
             "count");
  AddKernelCounters(counters, steps, result);
}

namespace {

// Collects the optimizer's state tensors (SGD momentum buffers) through
// its public VisitState hook.
struct StateCollector {
  std::vector<Tensor> tensors;
  void TensorSlots(const char*, std::vector<Tensor>& slots) {
    tensors.insert(tensors.end(), slots.begin(), slots.end());
  }
};

}  // namespace

XlaStepProbe ProbeXlaStep(std::uint64_t seed, int reps) {
  // Traces one steady-state training step (after a warm step, so the
  // momentum buffers exist) without cutting it, lowers it the way the
  // barrier does (roots: loss, updated parameters, updated momentum), and
  // times each stage of the cut directly: LowerTrace, the compile-cache
  // lookup, xla::Compile, and Executable::Run.
  ResnetRig rig(seed, /*lazy=*/true);
  rig.Step();
  const nn::LabeledBatch batch =
      rig.dataset.Batch(rig.step, kBatch, rig.device);
  auto [loss, grads] = ad::ValueWithGradient(
      rig.model, [&batch](const nn::ResNet& m) { return Loss(m, batch); });
  rig.optimizer.Update(rig.model, grads);
  std::vector<std::shared_ptr<LazyNode>> roots;
  auto add_root = [&roots](const Tensor& t) {
    auto* impl = dynamic_cast<LazyImpl*>(t.impl().get());
    S4TF_CHECK(impl != nullptr) << "probe tensor is not lazy";
    roots.push_back(impl->node());
  };
  add_root(loss);
  rig.model.VisitParameters([&](Tensor& p) { add_root(p); });
  StateCollector state;
  rig.optimizer.VisitState(state);
  for (const Tensor& t : state.tensors) add_root(t);

  XlaStepProbe probe;
  std::vector<double> lower_ms;
  std::vector<std::shared_ptr<LazyNode>> leaves;
  xla::HloModule module;
  for (int r = 0; r < reps; ++r) {
    leaves.clear();
    const auto t0 = Clock::now();
    module = LowerTrace(roots, &leaves);
    lower_ms.push_back(SecondsSince(t0) * 1e3);
  }
  std::vector<Literal> parameters;
  parameters.reserve(leaves.size());
  for (const auto& leaf : leaves) parameters.push_back(leaf->LeafValue());

  std::vector<double> compile_ms;
  std::shared_ptr<xla::Executable> exe;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    exe = xla::Compile(module).executable;
    compile_ms.push_back(SecondsSince(t0) * 1e3);
  }
  xla::CompileCache cache;
  cache.GetOrCompile(module);
  std::vector<double> lookup_ms;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    cache.GetOrCompile(module);
    lookup_ms.push_back(SecondsSince(t0) * 1e3);
  }
  std::vector<double> run_ms;
  exe->Run(parameters);  // warm
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    const std::vector<Literal> out = exe->Run(parameters);
    run_ms.push_back(SecondsSince(t0) * 1e3);
  }
  probe.lower_ms = Median(lower_ms);
  probe.lookup_ms = Median(lookup_ms);
  probe.compile_ms = Median(compile_ms);
  probe.run_ms = Median(run_ms);
  probe.arena_peak_mb = static_cast<double>(exe->arena_peak_bytes()) / 1e6;
  probe.kernels = exe->kernel_count();
  probe.instructions = module.instruction_count();
  return probe;
}

}  // namespace perfbench
