// Workload `mlp_serve`: serve::MlpModel 64-128-10 behind XlaServable and
// a threaded serve::Server with default BatchingOptions. Latency phases
// are open loop: one generator thread sends seeded Poisson arrivals at
// fixed offered rates, one collector thread observes completions. The
// capacity phase is closed loop with a fixed number of requests in flight.
#include "mlp_serve.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>
#include <thread>
#include <utility>

#include "serve/servable.h"
#include "support/error.h"
#include "support/rng.h"

namespace perfbench {

using namespace s4tf;

namespace {

constexpr int kInput = 64;
constexpr int kHidden = 128;
constexpr int kOutput = 10;
constexpr int kPoolSize = 1024;
constexpr int kSetups = 15;

// Offered rates (requests/s). At the low rate nearly every batch holds
// one request. The high rate batches several requests per execution
// while staying far enough below capacity that a multi-millisecond host
// stall does not fill the 256-deep queue (256 / 8k/s = 32 ms).
constexpr double kLowRate = 1000.0;
constexpr double kHighRate = 8000.0;
// Requests kept in flight by the closed-loop capacity phase: enough to
// fill max_batch for both workers many times over, well under the
// 256-deep queue.
constexpr int kOutstanding = 64;
// Each phase runs as several short windows; a phase's figure is the
// median over its windows, so one host stall moves one window only.
constexpr int kLowWindows = 5;
constexpr int kHighWindows = 9;
constexpr int kClosedLoopWindows = 9;
constexpr int kTracedPairs = 4;  // untraced/traced window pairs (--trace 1)
// Capacity sweep: the highest rate of this fixed ladder whose window has
// no shed or failed request, p99 within the limit and no growing backlog.
constexpr double kSweepRates[] = {10000, 20000, 30000,  40000,
                                  60000, 80000, 100000};
constexpr double kP99LimitMs = 5.0;

// Share of --seconds spent in each phase of an untraced run.
constexpr double kWarmupShare = 0.05;
constexpr double kLowShare = 0.2;
constexpr double kHighShare = 0.25;
constexpr double kClosedLoopShare = 0.25;
constexpr double kSweepStepShare = 0.02;

std::int64_t Ns(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

bool RowMatches(const float* got, std::int64_t got_size, const Literal& ref) {
  return got_size == ref.size() &&
         std::memcmp(got, ref.data.data(),
                     static_cast<std::size_t>(ref.size()) * sizeof(float)) == 0;
}

}  // namespace

ServeInputs::ServeInputs(std::uint64_t seed_in) : seed(seed_in) {
  Rng model_rng(SubSeed(seed, 0));
  model = serve::MlpModel::Create(kInput, kHidden, kOutput, model_rng);
  Rng sample_rng(SubSeed(seed, 1));
  samples.reserve(kPoolSize);
  references.reserve(kPoolSize);
  for (int i = 0; i < kPoolSize; ++i) {
    std::vector<float> data(kInput);
    sample_rng.FillUniform(data.data(), data.size(), -1.0f, 1.0f);
    samples.push_back(
        Literal::FromVector(model.sample_shape(), std::move(data)));
    references.push_back(model.ReferenceForward(samples.back()));
  }
}

ServeInputs::Schedule ServeInputs::MakeSchedule(std::uint64_t phase,
                                                double rate,
                                                double seconds) const {
  Schedule s;
  Rng rng(SubSeed(seed, 100 + phase));
  const double horizon_ns = seconds * 1e9;
  double t = 0.0;
  for (;;) {
    // Exponential inter-arrival gaps: a Poisson process at `rate`.
    t += -std::log(1.0 - rng.NextDouble()) / rate * 1e9;
    if (t >= horizon_ns) break;
    s.offsets_ns.push_back(static_cast<std::int64_t>(t));
    s.sample_index.push_back(
        static_cast<std::uint32_t>(rng.NextBelow(kPoolSize)));
  }
  return s;
}

std::uint64_t ServeInputs::Digest() const {
  auto hash = [](const auto& v, std::uint64_t h) {
    return Fnv1a(v.data(), v.size() * sizeof(v[0]), h);
  };
  std::uint64_t h = Fnv1a("", 0);
  for (const Literal* l : {&model.w1, &model.b1, &model.w2, &model.b2}) {
    h = Fnv1a(l->data.data(), l->size() * sizeof(float), h);
  }
  for (const Literal& s : samples) {
    h = Fnv1a(s.data.data(), s.size() * sizeof(float), h);
  }
  const Schedule sched = MakeSchedule(0, kLowRate, 0.5);
  return hash(sched.sample_index, hash(sched.offsets_ns, h));
}

Literal TimedServable::RunBatch(const Literal& batch) {
  if (!recording_.load(std::memory_order_relaxed)) {
    return inner_.RunBatch(batch);
  }
  const auto t0 = Clock::now();
  Literal out = inner_.RunBatch(batch);
  const double us = SecondsSince(t0) * 1e6;
  std::lock_guard<std::mutex> lock(mutex_);
  run_us_.push_back(us);
  return out;
}

std::vector<double> TimedServable::TakeRunMicros() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(run_us_, {});
}

PhaseResult RunOpenLoopPhase(serve::Server& server, const ServeInputs& inputs,
                             const ServeInputs::Schedule& schedule,
                             double rate, bool corrupt_one) {
  const std::size_t n = schedule.offsets_ns.size();
  std::vector<std::shared_ptr<serve::ServeFuture>> futures(n);
  std::vector<std::int64_t> lag_ns(n, 0);
  std::vector<Clock::time_point> done(n);
  std::atomic<std::size_t> published{0};
  std::atomic<std::size_t> collected{0};
  std::atomic<bool> generator_done{false};
  std::int64_t backlog_at_end = 0;
  std::string generator_error;

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  auto due = [&](std::size_t i) {
    return start + std::chrono::nanoseconds(schedule.offsets_ns[i]);
  };
  std::jthread generator([&] {
    try {
      for (std::size_t i = 0; i < n; ++i) {
        // Sleep, never spin: a spinning generator competes with the
        // server's workers for the cores and gets descheduled for whole
        // scheduler slices. Requests that fell due during one sleep are
        // sent back to back.
        std::this_thread::sleep_until(due(i));
        lag_ns[i] = Ns(Clock::now() - due(i));
        futures[i] = server.Submit(inputs.samples[schedule.sample_index[i]]);
        published.store(i + 1, std::memory_order_release);
      }
    } catch (const std::exception& e) {
      generator_error = e.what();
    }
    backlog_at_end = static_cast<std::int64_t>(
        published.load(std::memory_order_acquire) -
        collected.load(std::memory_order_acquire));
    generator_done.store(true, std::memory_order_release);
  });
  std::jthread collector([&] {
    for (std::size_t i = 0; i < n; ++i) {
      while (published.load(std::memory_order_acquire) <= i) {
        if (generator_done.load(std::memory_order_acquire) &&
            published.load(std::memory_order_acquire) <= i) {
          return;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
      futures[i]->Wait();
      done[i] = Clock::now();
      collected.store(i + 1, std::memory_order_release);
    }
  });
  generator.join();
  collector.join();

  PhaseResult r;
  r.rate = rate;
  r.backlog_at_end = backlog_at_end;
  const std::size_t sent = published.load();
  r.scheduled = static_cast<std::int64_t>(n);
  r.sent = static_cast<std::int64_t>(sent);
  r.errored = static_cast<std::int64_t>(n - sent);  // never submitted
  if (!generator_error.empty()) {
    std::fprintf(stderr, "perfbench: generator stopped: %s\n",
                 generator_error.c_str());
  }
  r.latency_ms.reserve(sent);
  bool corrupted = false;
  for (std::size_t i = 0; i < sent; ++i) {
    r.gen_lag_ms_max = std::max(r.gen_lag_ms_max, lag_ns[i] / 1e6);
    const Status& status = futures[i]->Wait();
    if (status.code() == StatusCode::kUnavailable) {
      ++r.shed;
      continue;
    }
    if (!status.ok()) {
      ++r.errored;
      continue;
    }
    ++r.served;
    r.latency_ms.push_back(Ns(done[i] - due(i)) / 1e6);
    const Literal& out = futures[i]->output();
    const Literal& ref = inputs.references[schedule.sample_index[i]];
    bool ok = false;
    if (corrupt_one && !corrupted) {
      std::vector<float> row(out.begin(), out.end());
      std::uint32_t bits = 0;
      std::memcpy(&bits, &row[0], sizeof(bits));
      bits ^= 1u;
      std::memcpy(&row[0], &bits, sizeof(bits));
      ok = RowMatches(row.data(), static_cast<std::int64_t>(row.size()), ref);
      corrupted = true;
    } else {
      ok = RowMatches(out.data.data(), out.size(), ref);
    }
    if (!ok) ++r.wrong;
  }
  return r;
}

namespace {

// Everything a serving process sets up before its first request: the
// seeded inputs (model, sample pool, reference rows), the compiled
// servable and the running server.
struct ServeRig {
  ServeRig(std::uint64_t seed, bool timed) : inputs(seed) {
    servable = std::make_unique<serve::XlaServable>(
        "mlp", inputs.model.Fn(), inputs.model.sample_shape());
    servable->Warmup();
    if (timed) timed_servable = std::make_unique<TimedServable>(*servable);
    server = std::make_unique<serve::Server>(
        timed ? static_cast<serve::Servable&>(*timed_servable) : *servable,
        serve::BatchingOptions{});
  }
  ~ServeRig() {
    if (server) server->Shutdown();
  }
  ServeRig(const ServeRig&) = delete;
  ServeRig& operator=(const ServeRig&) = delete;

  const ServeInputs inputs;
  // Destroyed in reverse: server first, then what it serves.
  std::unique_ptr<serve::XlaServable> servable;
  std::unique_ptr<TimedServable> timed_servable;
  std::unique_ptr<serve::Server> server;
};

// Closed loop with `kOutstanding` requests always in flight: one client
// thread waits for the oldest request and sends the next, so the server
// always has a full queue to batch from and never sheds. Each completed
// row is compared with its reference as it is collected (a 40-byte
// compare, so the client holds only the requests in flight). Counts every
// request into `result`; returns completed requests per second.
double RunClosedLoop(serve::Server& server, const ServeInputs& inputs,
                     std::uint64_t phase, double seconds, Result& result) {
  Rng rng(SubSeed(inputs.seed, 200 + phase));
  using InFlight =
      std::pair<std::shared_ptr<serve::ServeFuture>, std::uint32_t>;
  std::deque<InFlight> in_flight;
  auto submit = [&] {
    const auto index = static_cast<std::uint32_t>(rng.NextBelow(kPoolSize));
    in_flight.emplace_back(server.Submit(inputs.samples[index]), index);
  };
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  auto collect = [&] {
    const auto [future, index] = std::move(in_flight.front());
    in_flight.pop_front();
    ++completed;
    if (!future->Wait().ok() ||
        !RowMatches(future->output().data.data(), future->output().size(),
                    inputs.references[index])) {
      ++failed;
    }
  };
  const auto start = Clock::now();
  for (int i = 0; i < kOutstanding; ++i) submit();
  while (SecondsSince(start) < seconds) {
    collect();
    submit();
  }
  while (!in_flight.empty()) collect();
  const double rps = static_cast<double>(completed) / SecondsSince(start);
  result.attempted += completed;
  result.failed += failed;
  return rps;
}

PhaseResult RunPhase(serve::Server& server, const ServeInputs& inputs,
                     std::uint64_t phase, double rate, double seconds) {
  return RunOpenLoopPhase(server, inputs,
                          inputs.MakeSchedule(phase, rate, seconds), rate);
}

// Counts a fixed-rate phase into the run's attempted/failed tally: every
// scheduled request is one attempt; shed, errored and wrong rows fail.
void Tally(const PhaseResult& p, const char* what, Result& result) {
  result.attempted += p.scheduled;
  result.failed += p.shed + p.errored + p.wrong;
  if (p.shed + p.errored + p.wrong > 0) {
    std::fprintf(stderr,
                 "perfbench: %s at %.0f req/s: %lld shed, %lld errored, "
                 "%lld wrong rows\n",
                 what, p.rate, static_cast<long long>(p.shed),
                 static_cast<long long>(p.errored),
                 static_cast<long long>(p.wrong));
  }
}

bool MeetsLimit(const PhaseResult& p) {
  // No shed or failed request, the tail within the limit, and no backlog
  // beyond what drains within the limit at this rate.
  const double drainable = p.rate * kP99LimitMs / 1e3;
  return p.shed == 0 && p.errored == 0 && p.wrong == 0 &&
         !p.latency_ms.empty() && p.p99_ms() <= kP99LimitMs &&
         static_cast<double>(p.backlog_at_end) <= drainable;
}

// Alternating untraced and traced windows at the high rate, so both see
// the same host conditions. Traced windows time every RunBatch call; the
// serve.* counters cover all windows.
void RunTracedWindows(ServeRig& rig, double seconds, Result& result) {
  std::vector<double> untraced_p50;
  std::vector<double> traced_p50;
  std::vector<double> traced_p99;
  double gen_lag_ms_max = 0.0;
  obs::Gauge& depth_gauge = *obs::GetGauge("serve.queue_depth");
  depth_gauge.Set(0);
  CounterWindow counters;
  for (int w = 0; w < 2 * kTracedPairs; ++w) {
    const bool traced = w % 2 == 1;
    rig.timed_servable->set_recording(traced);
    const PhaseResult p =
        RunPhase(*rig.server, rig.inputs, static_cast<std::uint64_t>(w),
                 kHighRate, seconds / (2 * kTracedPairs));
    Tally(p, "high-rate window", result);
    (traced ? traced_p50 : untraced_p50).push_back(p.p50_ms());
    if (traced) traced_p99.push_back(p.p99_ms());
    gen_lag_ms_max = std::max(gen_lag_ms_max, p.gen_lag_ms_max);
  }
  counters.Close();
  rig.timed_servable->set_recording(false);

  auto delta = [&counters](const char* name) {
    return static_cast<double>(counters.Delta(name));
  };
  const double batches = delta("serve.batches");
  const double samples = delta("serve.batch.samples");
  result.Add("serve.batch_mean", batches > 0 ? samples / batches : 0.0,
             "count");
  result.Add("serve.padding_frac",
             ShareOf(delta("serve.batch.padding"), samples), "1");
  result.Add("serve.queue_depth_max",
             static_cast<double>(depth_gauge.value()), "count");
  result.Add("serve.gen_lag_ms_max", gen_lag_ms_max, "ms");
  result.Add("serve.exec_us", Median(rig.timed_servable->TakeRunMicros()),
             "us");
  result.Add("obs.trace_overhead_frac",
             Median(traced_p50) / Median(untraced_p50) - 1.0, "1");
  AddKernelCounters(counters, std::max(batches, 1.0), result);
  result.Note("serve.p50_ms.high", Median(traced_p50), "ms");
  result.Note("serve.p99_ms.high", Median(traced_p99), "ms");
  result.Note("serve.offered_rate.high", kHighRate, "1/s");
}

}  // namespace

void RunMlpServe(const Options& options, Result& result) {
  std::vector<double> setup_s;
  std::unique_ptr<ServeRig> rig;
  const int setups = options.trace ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    rig.reset();
    const auto t0 = Clock::now();
    rig = std::make_unique<ServeRig>(options.seed, options.trace);
    setup_s.push_back(SecondsSince(t0));
  }
  const ServeInputs& inputs = rig->inputs;
  serve::Server& server = *rig->server;
  const double S = options.seconds;

  // Warm-up: the host takes a second or so of full load to reach steady
  // throughput; this window is not measured.
  std::uint64_t phase = 0;
  RunClosedLoop(server, inputs, phase++, S * kWarmupShare, result);

  if (options.trace) {
    RunTracedWindows(*rig, S, result);
    return;
  }

  // Capacity: closed-loop goodput, median over windows.
  std::vector<double> closed_rps;
  for (int w = 0; w < kClosedLoopWindows; ++w) {
    closed_rps.push_back(RunClosedLoop(
        server, inputs, phase++, S * kClosedLoopShare / kClosedLoopWindows,
        result));
  }

  std::vector<double> high_p50;
  std::vector<double> high_p99;
  std::vector<double> high_cpu_ms;  // process CPU time per served request
  std::vector<double> high_cpu_vs_ref;
  for (int w = 0; w < kHighWindows; ++w) {
    const double ref_ms = HostReferenceMs();
    const double cpu0 = ProcessCpuMs();
    const PhaseResult high = RunPhase(server, inputs, phase++, kHighRate,
                                      S * kHighShare / kHighWindows);
    Tally(high, "high-rate phase", result);
    high_p50.push_back(high.p50_ms());
    high_cpu_ms.push_back((ProcessCpuMs() - cpu0) /
                          static_cast<double>(std::max<std::int64_t>(
                              high.served, 1)));
    high_cpu_vs_ref.push_back(high_cpu_ms.back() / ref_ms);
    high_p99.push_back(high.p99_ms());
  }

  // Low rate: medians over short windows; the p99 pools all of them.
  std::vector<double> low_p50;
  std::vector<double> low_all;
  for (int w = 0; w < kLowWindows; ++w) {
    const PhaseResult low = RunPhase(server, inputs, phase++, kLowRate,
                                     S * kLowShare / kLowWindows);
    Tally(low, "low-rate phase", result);
    low_p50.push_back(low.p50_ms());
    low_all.insert(low_all.end(), low.latency_ms.begin(),
                   low.latency_ms.end());
  }

  // Peak memory so far; the sweep below holds more requests at its higher
  // rates, and how far it climbs varies from run to run.
  result.Add("peak_rss_mb", PeakRssMb(), "MB");

  // Capacity sweep up the fixed ladder; stops at the first failing rate.
  // Shed requests are the point of the sweep, not failures; served rows
  // are still checked.
  double max_rps = 0.0;
  for (const double rate : kSweepRates) {
    const PhaseResult p =
        RunPhase(server, inputs, phase++, rate, S * kSweepStepShare);
    result.attempted += p.served;
    result.failed += p.wrong + p.errored;
    std::printf(
        "serve.sweep rate %.0f/s: sent %lld shed %lld p50 %.3f ms "
        "p99 %.3f ms backlog %lld gen_lag_max %.3f ms -> %s\n",
        rate, static_cast<long long>(p.sent), static_cast<long long>(p.shed),
        p.p50_ms(), p.p99_ms(), static_cast<long long>(p.backlog_at_end),
        p.gen_lag_ms_max, MeetsLimit(p) ? "meets limit" : "misses limit");
    if (!MeetsLimit(p)) break;
    max_rps = rate;
  }

  result.Add("setup_s", Median(setup_s), "s");
  result.Add("cpu_vs_ref", Median(high_cpu_vs_ref), "1");
  result.Note("serve.cpu_ms_per_request.high", Median(high_cpu_ms), "ms");
  result.Note("serve.p50_ms.low", Median(low_p50), "ms");
  result.Note("serve.p99_ms.low", Quantile(low_all, 0.99), "ms");
  result.Note("serve.p50_ms.high", Median(high_p50), "ms");
  result.Note("serve.p99_ms.high", Median(high_p99), "ms");
  result.Note("serve.closed_loop_rps", Median(closed_rps), "1/s");
  result.Note("serve.closed_loop_outstanding", kOutstanding, "count");
  result.Note("serve.max_rps", max_rps, "1/s");
  result.Note("serve.offered_rate.low", kLowRate, "1/s");
  result.Note("serve.offered_rate.high", kHighRate, "1/s");
  result.Note("serve.p99_limit_ms", kP99LimitMs, "ms");
}

double ProbeServeRunMicros(int batch, int reps) {
  const ServeInputs inputs(1);
  serve::XlaServable servable("mlp", inputs.model.Fn(),
                              inputs.model.sample_shape());
  servable.Warmup();
  std::vector<const Literal*> rows;
  for (int i = 0; i < batch; ++i) {
    rows.push_back(&inputs.samples[static_cast<std::size_t>(i)]);
  }
  const Literal input = serve::AssembleBatch(
      rows, inputs.model.sample_shape(), servable.PaddedBatch(batch));
  servable.RunBatch(input);
  std::vector<double> us;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    const Literal out = servable.RunBatch(input);
    us.push_back(SecondsSince(t0) * 1e6);
  }
  return Median(us);
}

}  // namespace perfbench
