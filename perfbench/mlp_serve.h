// The `mlp_serve` rig and open-loop load generator, shared by the
// workload, the probes and the self-tests.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common.h"
#include "serve/mlp.h"
#include "serve/server.h"

namespace perfbench {

// Seeded request inputs: a pool of distinct samples with their reference
// rows, and per-phase arrival schedules drawn from the same seed.
struct ServeInputs {
  explicit ServeInputs(std::uint64_t seed);

  s4tf::serve::MlpModel model;
  std::vector<s4tf::Literal> samples;
  std::vector<s4tf::Literal> references;  // MlpModel::ReferenceForward

  // Poisson arrivals at `rate` per second over `seconds`, as offsets in ns
  // from the phase start, plus the pool index each request sends.
  struct Schedule {
    std::vector<std::int64_t> offsets_ns;
    std::vector<std::uint32_t> sample_index;
  };
  Schedule MakeSchedule(std::uint64_t phase, double rate, double seconds) const;

  // Fingerprint of the model, the sample pool and one schedule.
  std::uint64_t Digest() const;

  std::uint64_t seed;
};

// Forwards to an inner servable and, while recording, records the wall
// time of every RunBatch call (traced runs only).
class TimedServable final : public s4tf::serve::Servable {
 public:
  explicit TimedServable(s4tf::serve::Servable& inner) : inner_(inner) {}
  const char* name() const override { return inner_.name(); }
  const s4tf::Shape& sample_shape() const override {
    return inner_.sample_shape();
  }
  int PaddedBatch(int batch) const override {
    return inner_.PaddedBatch(batch);
  }
  s4tf::Literal RunBatch(const s4tf::Literal& batch) override;
  double CostSeconds(int padded_batch) override {
    return inner_.CostSeconds(padded_batch);
  }
  void set_recording(bool on) {
    recording_.store(on, std::memory_order_relaxed);
  }
  std::vector<double> TakeRunMicros();

 private:
  s4tf::serve::Servable& inner_;
  std::atomic<bool> recording_{false};
  std::mutex mutex_;
  std::vector<double> run_us_;
};

// Outcome of one open-loop phase at a fixed offered rate.
struct PhaseResult {
  double rate = 0.0;
  std::int64_t scheduled = 0;
  std::int64_t sent = 0;
  std::int64_t served = 0;
  std::int64_t shed = 0;
  std::int64_t errored = 0;
  std::int64_t wrong = 0;  // served rows that differ from the reference
  std::vector<double> latency_ms;  // served requests, scheduled send -> done
  double gen_lag_ms_max = 0.0;     // how late the generator sent
  std::int64_t backlog_at_end = 0;  // outstanding when the last was sent
  double p50_ms() const { return Quantile(latency_ms, 0.5); }
  double p99_ms() const { return Quantile(latency_ms, 0.99); }
};

// Runs one phase: a generator thread submits on the schedule, a collector
// thread observes completions in submission order. Every served row is
// checked bitwise against its reference after both threads joined.
// `corrupt_one` flips one bit of the first served row before the check
// (self-tests only).
PhaseResult RunOpenLoopPhase(s4tf::serve::Server& server,
                             const ServeInputs& inputs,
                             const ServeInputs::Schedule& schedule,
                             double rate, bool corrupt_one = false);

// Median XlaServable::RunBatch wall time at one batch size (probe).
double ProbeServeRunMicros(int batch, int reps);

}  // namespace perfbench
