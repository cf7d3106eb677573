// Self-tests of the benchmark itself (perfbench --selftest):
//   1. the same seed yields identical inputs and arrival schedule, and a
//      different seed does not;
//   2. a corrupted output (one flipped bit in a served row or a final
//      parameter) is caught and raises error_frac;
//   3. on resnet_lazy, the traced layer timings account for the measured
//      step time.
#include <cstdio>
#include <cstring>

#include "common.h"
#include "mlp_dp_eager.h"
#include "mlp_serve.h"
#include "nn/replica_group.h"
#include "resnet_lazy.h"
#include "serve/servable.h"

namespace perfbench {

using namespace s4tf;

namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++g_failures;
}

std::uint64_t HashParams(const std::vector<float>& params, std::uint64_t h) {
  return Fnv1a(params.data(), params.size() * sizeof(float), h);
}

std::uint64_t HashBatch(const nn::LabeledBatch& batch, std::uint64_t h) {
  const std::vector<float> images = batch.images.ToVector();
  h = Fnv1a(images.data(), images.size() * sizeof(float), h);
  return Fnv1a(batch.labels.data(), batch.labels.size() * sizeof(int), h);
}

std::uint64_t ResnetInputsDigest(std::uint64_t seed) {
  ResnetRig rig(seed, /*lazy=*/false);
  const std::uint64_t h =
      HashParams(nn::internal::FlattenParams(rig.model), Fnv1a("", 0));
  return HashBatch(
      rig.dataset.Batch(0, ResnetRig::batch_size(), NaiveDevice()), h);
}

std::uint64_t MlpInputsDigest(std::uint64_t seed) {
  MlpRig rig(seed, /*sequential=*/true);
  const std::uint64_t h = HashParams(rig.Parameters(), Fnv1a("", 0));
  return HashBatch(rig.dataset.Batch(0, MlpRig::batch_size(), NaiveDevice()),
                   h);
}

void TestSeededInputs(std::uint64_t seed) {
  Expect(ResnetInputsDigest(seed) == ResnetInputsDigest(seed),
         "resnet_lazy: same seed, same model init and data");
  Expect(ResnetInputsDigest(seed) != ResnetInputsDigest(seed + 1),
         "resnet_lazy: another seed, other model init and data");
  Expect(MlpInputsDigest(seed) == MlpInputsDigest(seed),
         "mlp_dp_eager: same seed, same model init and data");
  Expect(MlpInputsDigest(seed) != MlpInputsDigest(seed + 1),
         "mlp_dp_eager: another seed, other model init and data");
  Expect(ServeInputs(seed).Digest() == ServeInputs(seed).Digest(),
         "mlp_serve: same seed, same model, samples and arrival schedule");
  Expect(ServeInputs(seed).Digest() != ServeInputs(seed + 1).Digest(),
         "mlp_serve: another seed, other model, samples and arrival schedule");
}

void TestCorruptionCaught(std::uint64_t seed) {
  // A served row with one flipped bit.
  const ServeInputs inputs(seed);
  serve::XlaServable servable("mlp", inputs.model.Fn(),
                              inputs.model.sample_shape());
  servable.Warmup();
  {
    serve::Server server(servable, serve::BatchingOptions{});
    const ServeInputs::Schedule schedule = inputs.MakeSchedule(0, 1000.0, 0.2);
    const PhaseResult clean =
        RunOpenLoopPhase(server, inputs, schedule, 1000.0);
    const PhaseResult corrupt = RunOpenLoopPhase(server, inputs, schedule,
                                                 1000.0, /*corrupt_one=*/true);
    server.Shutdown();
    Expect(clean.served > 0 && clean.wrong == 0,
           "mlp_serve: clean rows all match");
    Result result;
    result.attempted += corrupt.scheduled;
    result.failed += corrupt.shed + corrupt.errored + corrupt.wrong;
    Expect(corrupt.wrong == 1 && result.error_frac() > 0.0,
           "mlp_serve: one flipped bit in a served row is caught");
  }

  // A final parameter with one flipped bit.
  MlpRig rig(seed, /*sequential=*/false);
  for (int s = 0; s < 3; ++s) rig.Step();
  const std::vector<float> expected = SequentialReferenceParams(seed, 3);
  std::vector<float> params = rig.Parameters();
  Expect(CountParamMismatches(params, expected) == 0,
         "mlp_dp_eager: threaded parameters equal the sequential reference");
  std::uint32_t bits = 0;
  std::memcpy(&bits, &params[params.size() / 2], sizeof(bits));
  bits ^= 1u << 7;
  std::memcpy(&params[params.size() / 2], &bits, sizeof(bits));
  Result result;
  result.Check(CountParamMismatches(params, expected) == 0,
               "self-test: a deliberately corrupted parameter "
               "(this failure is expected)");
  Expect(result.failed == 1 && result.error_frac() > 0.0,
         "mlp_dp_eager: one flipped bit in a final parameter is caught");
}

void TestResnetCoverage(std::uint64_t seed) {
  Options options;
  options.workload = "resnet_lazy";
  options.seed = seed;
  // Long enough for 8 or more steps of each kind at ~0.5-0.9 s per step:
  // with fewer, one slow step moves a median past the range below.
  options.seconds = 12.0;
  options.trace = true;
  Result result;
  RunResnetLazy(options, result);
  double coverage = 0.0;
  for (const Metric& m : result.metrics) {
    if (m.name == "obs.step_coverage_frac") coverage = m.value;
  }
  std::printf("      step coverage %.4f\n", coverage);
  Expect(result.failed == 0, "resnet_lazy: traced run passes its checks");
  Expect(coverage >= 0.95 && coverage <= 1.10,
         "resnet_lazy: grad + update + barrier + loss read cover the step "
         "time");
}

}  // namespace

int RunSelfTests(std::uint64_t seed) {
  TestSeededInputs(seed);
  TestCorruptionCaught(seed);
  TestResnetCoverage(seed);
  std::printf("%d self-test failure(s)\n", g_failures);
  return g_failures;
}

}  // namespace perfbench
