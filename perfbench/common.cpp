#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>

namespace perfbench {

void Result::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double SupportedTailQuantile(std::size_t n, std::size_t beyond, double cap) {
  if (n <= beyond) return 0.5;
  const double q = 1.0 - static_cast<double>(beyond) / static_cast<double>(n);
  return std::max(0.5, std::min(cap, q));
}

double PeakRssMb() {
  // VmHWM, not getrusage: ru_maxrss survives exec, so a child would
  // report its launcher's peak if that was higher.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) * 1024.0 / 1e6;  // KiB -> MB
}

namespace {

double ReferenceConvMs() {
  constexpr int kN = 8, kH = 32, kW = 32, kC = 16, kK = 16;
  static const std::vector<float> input = [] {
    std::vector<float> v(kN * kH * kW * kC);
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = (i % 13) * 0.125f - 0.75f;
    return v;
  }();
  static const std::vector<float> filter = [] {
    std::vector<float> v(9 * kC * kK);
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = (i % 7) * 0.0625f - 0.1875f;
    return v;
  }();
  static std::vector<float> output(kN * kH * kW * kK);
  const auto t0 = Clock::now();
  for (int n = 0; n < kN; ++n) {
    for (int y = 0; y < kH; ++y) {
      for (int x = 0; x < kW; ++x) {
        float acc[kK] = {};
        for (int dy = -1; dy <= 1; ++dy) {
          for (int dx = -1; dx <= 1; ++dx) {
            const int yy = y + dy;
            const int xx = x + dx;
            if (yy < 0 || yy >= kH || xx < 0 || xx >= kW) continue;
            const float* in = &input[((n * kH + yy) * kW + xx) * kC];
            const float* f = &filter[((dy + 1) * 3 + (dx + 1)) * kC * kK];
            for (int c = 0; c < kC; ++c) {
              for (int k = 0; k < kK; ++k) acc[k] += in[c] * f[c * kK + k];
            }
          }
        }
        float* out = &output[((n * kH + y) * kW + x) * kK];
        for (int k = 0; k < kK; ++k) out[k] = acc[k];
      }
    }
  }
  const double ms = SecondsSince(t0) * 1e3;
  // Read the result, so the loops cannot be dropped.
  volatile float sink = output[output.size() / 2];
  (void)sink;
  return ms;
}

}  // namespace

double HostReferenceMs() {
  std::vector<double> ms;
  for (int i = 0; i < 5; ++i) ms.push_back(ReferenceConvMs());
  return Median(ms);
}

double ProcessCpuMs() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) * 1e3 +
         static_cast<double>(t.tv_nsec) / 1e6;
}

void AddKernelCounters(const CounterWindow& counters, double steps,
                       Result& result) {
  result.Add("tensor.dispatches_per_step",
             counters.Delta("tensor.kernel.dispatches") / steps, "count");
  result.Add("tensor.bytes_per_step",
             counters.Delta("tensor.kernel.bytes") / steps, "B");
  result.Add("support.pool.regions_per_step",
             counters.Delta("support.parallel_for.regions") / steps, "count");
  result.Add("xla.cache_hit_frac",
             ShareOf(counters.Delta("xla.cache.hits"),
                     counters.Delta("xla.cache.misses")),
             "1");
}

std::uint64_t Fnv1a(const void* data, std::size_t bytes, std::uint64_t hash) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 over (seed, stream): distinct streams decorrelate fully.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL +
                    stream * 0xbf58476d1ce4e5b9ULL + 0x94d049bb133111ebULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
