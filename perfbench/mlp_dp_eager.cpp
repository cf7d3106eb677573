// Workload `mlp_dp_eager`: a 784-64-64-10 Dense MLP on synthetic MNIST,
// global batch 16, data-parallel over 2 replicas on eager devices through
// nn::ReplicaGroup with default options (overlapped, replicated). Closed
// loop.
#include "mlp_dp_eager.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "ad/operators.h"
#include "nn/losses.h"

namespace perfbench {

using namespace s4tf;

namespace {

constexpr int kReplicas = 2;
constexpr int kGlobalBatch = 16;
constexpr int kExamples = 512;
constexpr int kWarmSteps = 2;
constexpr double kWarmupShare = 0.05;  // of a round, before its timed window
constexpr int kRounds = 20;
constexpr int kSetups = 25;
constexpr float kLearningRate = 0.05f;
constexpr float kMomentum = 0.9f;

nn::ReplicaGroupOptions GroupOptions(bool sequential) {
  nn::ReplicaGroupOptions options;
  options.device_kind = DeviceKind::kEager;
  options.sequential = sequential;
  return options;
}

}  // namespace

Mlp::Mlp(Rng& rng)
    : l1(784, 64, nn::Activation::kRelu, rng),
      l2(64, 64, nn::Activation::kRelu, rng),
      l3(64, 10, nn::Activation::kIdentity, rng) {}

Tensor Mlp::operator()(const Tensor& images) const {
  return l3(l2(l1(FlattenBatch(images))));
}

MlpRig::MlpRig(std::uint64_t seed, bool sequential)
    : model(MakeModel(seed)),
      optimizer(kLearningRate, kMomentum),
      dataset(nn::SyntheticImageDataset::Mnist(kExamples, SubSeed(seed, 1))),
      group(kReplicas, GroupOptions(sequential)) {}

Mlp MlpRig::MakeModel(std::uint64_t seed) {
  Rng rng(SubSeed(seed, 0));
  return Mlp(rng);
}

int MlpRig::batch_size() { return kGlobalBatch; }

float MlpRig::Step() {
  const nn::LabeledBatch batch =
      dataset.Batch(step++, kGlobalBatch, NaiveDevice());
  return group.TrainStep(model, optimizer, nn::ShardBatch(batch, kReplicas));
}

std::vector<float> MlpRig::Parameters() const {
  return nn::internal::FlattenParams(model);
}

std::int64_t CountParamMismatches(const std::vector<float>& got,
                                  const std::vector<float>& expected) {
  if (got.size() != expected.size()) {
    return static_cast<std::int64_t>(std::max(got.size(), expected.size()));
  }
  std::int64_t mismatches = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &expected[i], sizeof(float)) != 0) ++mismatches;
  }
  return mismatches;
}

std::uint64_t ParamDigest(const std::vector<float>& params) {
  return Fnv1a(params.data(), params.size() * sizeof(float));
}

std::vector<float> SequentialReferenceParams(std::uint64_t seed, int steps) {
  MlpRig reference(seed, /*sequential=*/true);
  for (int s = 0; s < steps; ++s) reference.Step();
  return reference.Parameters();
}

namespace {

struct StepSample {
  double step_ms = 0.0;
  double parallel_ms = 0.0;
  double skew_ms = 0.0;
};

struct Window {
  std::vector<double> step_ms;      // untraced steps
  std::vector<StepSample> traced;   // traced steps
};

// Closed loop for `seconds`. With `alternate`, even steps run untraced
// and odd steps traced (the group's per-step wall times are read after
// the step), so both see the same host conditions.
Window RunWindow(MlpRig& rig, double seconds, bool alternate, Result& result) {
  Window w;
  const auto start = Clock::now();
  int attempts = 0;
  while (SecondsSince(start) < seconds || (w.step_ms.empty() && attempts < 3)) {
    const bool traced = alternate && (attempts % 2 == 1);
    ++attempts;
    const auto t0 = Clock::now();
    float loss = 0.0f;
    try {
      loss = rig.Step();
    } catch (const std::exception& e) {
      result.Check(false, std::string("mlp_dp_eager step threw: ") + e.what());
      continue;
    }
    const double ms = SecondsSince(t0) * 1e3;
    if (traced) {
      StepSample s;
      s.step_ms = ms;
      s.parallel_ms = rig.group.last_step_wall_seconds() * 1e3;
      s.skew_ms = std::fabs(rig.group.last_step_replica_seconds(0) -
                            rig.group.last_step_replica_seconds(1)) *
                  1e3;
      w.traced.push_back(s);
    } else {
      w.step_ms.push_back(ms);
    }
    result.Check(std::isfinite(loss), "mlp_dp_eager: finite loss");
  }
  return w;
}

// Median wall time of one optimizer update on the caller's model, on a
// copy of the trained model and optimizer (so the run's state is kept).
double ProbeUpdateMs(const MlpRig& rig, int reps) {
  Mlp model = rig.model;
  nn::SGD<Mlp> optimizer = rig.optimizer;
  const nn::LabeledBatch batch =
      rig.dataset.Batch(0, kGlobalBatch, NaiveDevice());
  auto [loss, grads] = ad::ValueWithGradient(model, [&batch](const Mlp& m) {
    return nn::SoftmaxCrossEntropy(m(batch.images), batch.one_hot);
  });
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    optimizer.Update(model, grads);
    ms.push_back(SecondsSince(t0) * 1e3);
  }
  return Median(ms);
}

}  // namespace

void RunMlpDpEager(const Options& options, Result& result) {
  std::vector<double> setup_s;
  const int setups = options.trace ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    const auto t0 = Clock::now();
    MlpRig rig(options.seed, /*sequential=*/false);
    for (int s = 0; s < kWarmSteps; ++s) rig.Step();
    setup_s.push_back(SecondsSince(t0));
  }

  // The timed work runs as kRounds rounds, each on a fresh replica group
  // (so fresh replica, device and communicator threads) trained from the
  // same seed. Where the host places those threads sets a round's speed
  // for as long as it lasts; the run reports the median over rounds. The
  // host reference is timed right before each round.
  obs::Gauge& depth_gauge = *obs::GetGauge("eager.pipeline_depth.max");
  if (options.trace) depth_gauge.Set(0);
  CounterWindow counters;
  Window window;
  std::vector<double> round_p50;
  std::vector<double> round_cpu_ms;  // process CPU time per step
  std::vector<double> round_cpu_vs_ref;
  std::vector<int> round_steps;
  std::vector<std::uint64_t> round_digest;
  std::unique_ptr<MlpRig> rig;
  const double round_seconds = options.seconds / kRounds;
  for (int round = 0; round < kRounds; ++round) {
    rig.reset();
    rig = std::make_unique<MlpRig>(options.seed, /*sequential=*/false);
    // Warm-up, not measured: the host takes a moment of full load to
    // reach steady speed.
    const auto warm_start = Clock::now();
    while (SecondsSince(warm_start) < round_seconds * kWarmupShare) {
      rig->Step();
    }
    const double ref_ms = HostReferenceMs();
    counters.Open();
    const double cpu0 = ProcessCpuMs();
    Window w = RunWindow(*rig, round_seconds, options.trace, result);
    const double cpu_ms = ProcessCpuMs() - cpu0;
    counters.Close();
    round_p50.push_back(Median(w.step_ms));
    round_cpu_ms.push_back(
        cpu_ms / static_cast<double>(w.step_ms.size() + w.traced.size()));
    round_cpu_vs_ref.push_back(round_cpu_ms.back() / ref_ms);
    window.step_ms.insert(window.step_ms.end(), w.step_ms.begin(),
                          w.step_ms.end());
    window.traced.insert(window.traced.end(), w.traced.begin(),
                         w.traced.end());
    round_steps.push_back(rig->step);
    round_digest.push_back(ParamDigest(rig->Parameters()));
  }
  const std::int64_t pipeline_depth = depth_gauge.value();

  // Peak memory of the run, read before the reference run below adds its own.
  if (!options.trace) result.Add("peak_rss_mb", PeakRssMb(), "MB");

  // Correctness, outside the timed window: each round's final parameters
  // equal the same steps run by the sequential reference, bit for bit
  // (compared by digest, so the run holds no copies). One reference run
  // serves every round, read as it passes each round's step count.
  {
    MlpRig reference(options.seed, /*sequential=*/true);
    std::vector<int> order(kRounds);
    for (int r = 0; r < kRounds; ++r) order[r] = r;
    std::sort(order.begin(), order.end(), [&](int x, int y) {
      return round_steps[x] < round_steps[y];
    });
    for (const int r : order) {
      while (reference.step < round_steps[r]) reference.Step();
      result.Check(
          round_digest[r] == ParamDigest(reference.Parameters()),
          "mlp_dp_eager: final parameters of round " + std::to_string(r) +
              " equal the sequential reference");
    }
  }

  const std::vector<double>& step_ms = window.step_ms;
  const std::vector<StepSample>& traced = window.traced;
  const double p50 = Median(round_p50);
  const double steps = static_cast<double>(step_ms.size() + traced.size());
  result.Note("train.samples_per_s", kGlobalBatch / (p50 / 1e3), "1/s");
  result.Note("train.steps_timed", steps, "count");
  for (int r = 0; r < kRounds; ++r) {
    result.Note("train.round_p50_ms." + std::to_string(r), round_p50[r], "ms");
  }
  if (!options.trace) {
    const double tail_q = SupportedTailQuantile(step_ms.size(), 10, 0.99);
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("cpu_vs_ref", Median(round_cpu_vs_ref), "1");
    result.Note("train.p50_ms", p50, "ms");
    result.Note("train.cpu_ms_per_step", Median(round_cpu_ms), "ms");
    result.Note("train.step_tail_ms", Quantile(step_ms, tail_q), "ms");
    result.Note("train.step_tail_quantile", tail_q, "1");
    return;
  }

  using S = StepSample;
  auto delta = [&counters](const char* name) {
    return static_cast<double>(counters.Delta(name));
  };
  result.Add("nn.replica.parallel_ms",
             MedianOf(traced, [](const S& s) { return s.parallel_ms; }), "ms");
  result.Add("nn.replica.caller_ms", MedianOf(traced, [](const S& s) {
               return s.step_ms - s.parallel_ms;
             }),
             "ms");
  result.Add("nn.replica.skew_ms",
             MedianOf(traced, [](const S& s) { return s.skew_ms; }), "ms");
  result.Add("nn.update_ms", ProbeUpdateMs(*rig, 200), "ms");
  result.Add("obs.trace_overhead_frac",
             MedianOf(traced, [](const S& s) { return s.step_ms; }) / p50 - 1.0,
             "1");
  result.Add("eager.ops_per_step", delta("eager.ops_dispatched") / steps,
             "count");
  result.Add("eager.pipeline_depth_max", static_cast<double>(pipeline_depth),
             "count");
  result.Add("dist.bytes_per_step", delta("dist.allreduce.bytes") / steps, "B");
  result.Add("dist.messages_per_step", delta("dist.send.messages") / steps,
             "count");
  result.Add("dist.early_bucket_frac",
             ShareOf(delta("dist.overlap.buckets.early"),
                     delta("dist.overlap.buckets.flushed_at_wait")),
             "1");
  result.Add("dist.retries", delta("dist.retry.count"), "count");
  AddKernelCounters(counters, steps, result);
}

}  // namespace perfbench
