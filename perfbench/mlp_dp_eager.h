// The `mlp_dp_eager` training rig, shared by the workload and the
// self-tests.
#pragma once

#include <cstdint>
#include <vector>

#include "common.h"
#include "nn/datasets.h"
#include "nn/layers.h"
#include "nn/optimizers.h"
#include "nn/replica_group.h"

namespace perfbench {

// 784 -> 64 -> 64 -> 10 classifier over flattened 28x28x1 images.
struct Mlp {
  s4tf::nn::Dense l1;
  s4tf::nn::Dense l2;
  s4tf::nn::Dense l3;

  S4TF_DIFFERENTIABLE(Mlp, l1, l2, l3)

  Mlp() = default;
  explicit Mlp(s4tf::Rng& rng);

  s4tf::Tensor operator()(const s4tf::Tensor& images) const;
};

struct MlpRig {
  // `sequential` selects the reference mode of nn::ReplicaGroup.
  MlpRig(std::uint64_t seed, bool sequential);

  static Mlp MakeModel(std::uint64_t seed);
  static int batch_size();

  // One ReplicaGroup::TrainStep on the next global batch; returns the loss.
  float Step();
  std::vector<float> Parameters() const;

  Mlp model;
  s4tf::nn::SGD<Mlp> optimizer;
  s4tf::nn::SyntheticImageDataset dataset;
  s4tf::nn::ReplicaGroup group;
  int step = 0;
};

// Elements whose bits differ (a size mismatch counts every element).
std::int64_t CountParamMismatches(const std::vector<float>& got,
                                  const std::vector<float>& expected);

// Fingerprint of a parameter vector's bits.
std::uint64_t ParamDigest(const std::vector<float>& params);

// Final parameters after `steps` steps of the sequential reference.
std::vector<float> SequentialReferenceParams(std::uint64_t seed, int steps);

}  // namespace perfbench
