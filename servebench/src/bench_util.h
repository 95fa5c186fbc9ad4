// Statistics, traffic and span helpers of the serving benchmark.
//
// Everything here is pure arithmetic over the benchmark's own samples, so
// tests/bench_util_test.cc can pin it down without running a workload:
//   * Percentile: nearest-rank percentile, reported with its sample count.
//   * ZipfSampler: skewed key choice over n ranks.
//   * PoissonSchedule: open-loop arrival times at a fixed rate.
//   * SelfTimes: a span's duration minus the part its children cover.

#ifndef SERVEBENCH_BENCH_UTIL_H_
#define SERVEBENCH_BENCH_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"

namespace servebench {

/// A percentile together with the number of samples it was taken from.
struct Quantile {
  double value = 0.0;
  size_t samples = 0;
  /// Samples strictly above the percentile's rank: a p99 is only
  /// trustworthy once at least ten samples lie beyond it.
  size_t beyond = 0;
};

/// Nearest-rank percentile: the smallest sample with at least q*n samples
/// at or below it, q in (0, 1]. Empty input gives {0, 0, 0}.
Quantile Percentile(std::vector<double> samples, double q);

/// Draws ranks 0..n-1 with P(rank k) proportional to 1/(k+1)^s.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  size_t Sample(openapi::util::Rng* rng) const;
  size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

/// Arrival offsets in seconds of a Poisson process at `rate` per second,
/// covering [0, horizon_s). Deterministic in `seed`.
std::vector<double> PoissonSchedule(double rate, double horizon_s,
                                    uint64_t seed);

/// Layers of the serving path, as the spans name them.
enum class Layer : uint8_t { kInterpret, kApi, kNn, kStore, kGen };
inline constexpr size_t kNumLayers = 5;
const char* LayerName(Layer layer);

/// One timed interval at a layer boundary. `parent` is 0 for a root.
/// A `replayed` span was measured by re-running the layer's calls outside
/// the parent's interval (the store, which the benchmark cannot time from
/// inside a request): it counts against its parent by duration, not by
/// the interval it covers.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  Layer layer = Layer::kInterpret;
  bool replayed = false;
};

/// Self time of every span in `spans` (the spans of one request), in the
/// same order: its duration minus the union of its timed children's
/// intervals clipped to its own, minus its replayed children's durations,
/// floored at zero.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Formats a double with every significant digit (JSON-safe).
std::string FullDigits(double value);

}  // namespace servebench

#endif  // SERVEBENCH_BENCH_UTIL_H_
