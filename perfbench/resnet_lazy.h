// The `resnet_lazy` training rig, shared by the workload, the xla probe
// and the self-tests.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common.h"
#include "lazy/lazy_tensor.h"
#include "nn/datasets.h"
#include "nn/models/resnet.h"
#include "nn/optimizers.h"

namespace perfbench {

struct ResnetLayerTimes {
  double data_ms = 0.0;
  double grad_ms = 0.0;
  double update_ms = 0.0;
  double barrier_ms = 0.0;
  double read_ms = 0.0;
};

// One seeded model + optimizer + dataset on a lazy (or, for the
// reference, naive) device.
struct ResnetRig {
  ResnetRig(std::uint64_t seed, bool lazy);

  static s4tf::nn::ResNet MakeModel(std::uint64_t seed);
  static int batch_size();

  // One nn::TrainStep on the next batch; returns the loss.
  float Step();
  // The same step with a clock read around each layer call.
  float TracedStep(ResnetLayerTimes& times);

  // Declared first so it is destroyed last, after every lazy tensor that
  // points at it.
  std::unique_ptr<s4tf::LazyBackend> backend;
  s4tf::nn::ResNet model;
  s4tf::nn::SGD<s4tf::nn::ResNet> optimizer;
  s4tf::nn::SyntheticImageDataset dataset;
  s4tf::Device device;
  int step = 0;
  std::vector<float> losses;
};

// Losses of the first `steps` steps on the naive device.
std::vector<float> ReferenceLosses(std::uint64_t seed, int steps);

// Counts one check per expected loss (bitwise equality).
void CompareLosses(const std::vector<float>& got,
                   const std::vector<float>& expected, Result& result,
                   const char* what);

struct XlaStepProbe {
  double lower_ms = 0.0;   // LowerTrace of the step's trace
  double lookup_ms = 0.0;  // CompileCache hit on the step's module
  double compile_ms = 0.0;
  double run_ms = 0.0;
  double arena_peak_mb = 0.0;
  std::int64_t kernels = 0;
  std::int64_t instructions = 0;
};

// Times the stages of cutting the steady-state `resnet_lazy` step trace:
// lowering, cache lookup, compile and run.
XlaStepProbe ProbeXlaStep(std::uint64_t seed, int reps);

}  // namespace perfbench
