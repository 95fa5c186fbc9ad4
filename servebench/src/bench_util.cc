#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace servebench {

Quantile Percentile(std::vector<double> samples, double q) {
  Quantile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  out.value = samples[rank - 1];
  out.beyond = n - rank;
  return out;
}

ZipfSampler::ZipfSampler(size_t n, double s) {
  cdf_.reserve(n);
  double total = 0.0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_.push_back(total);
  }
  for (double& v : cdf_) v /= total;
}

size_t ZipfSampler::Sample(openapi::util::Rng* rng) const {
  const double u = rng->Uniform(0.0, 1.0);
  const size_t k = static_cast<size_t>(
      std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(k, cdf_.size() - 1);
}

std::vector<double> PoissonSchedule(double rate, double horizon_s,
                                    uint64_t seed) {
  openapi::util::Rng rng(seed);
  std::vector<double> arrivals;
  arrivals.reserve(static_cast<size_t>(rate * horizon_s * 1.1) + 16);
  double t = 0.0;
  while (true) {
    // 1 - U lies in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.Uniform(0.0, 1.0)) / rate;
    if (t >= horizon_s) break;
    arrivals.push_back(t);
  }
  return arrivals;
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kInterpret: return "interpret";
    case Layer::kApi: return "api";
    case Layer::kNn: return "nn";
    case Layer::kStore: return "store";
    case Layer::kGen: return "gen";
  }
  return "?";
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index_of;
  for (size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto it = index_of.find(spans[i].parent);
    if (spans[i].parent != 0 && it != index_of.end()) {
      children[it->second].push_back(i);
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    int64_t replayed = 0;
    std::vector<std::pair<int64_t, int64_t>> covered;
    for (size_t c : children[i]) {
      const Span& child = spans[c];
      if (child.replayed) {
        replayed += child.end_ns - child.start_ns;
        continue;
      }
      const int64_t lo = std::max(child.start_ns, span.start_ns);
      const int64_t hi = std::min(child.end_ns, span.end_ns);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    int64_t union_ns = 0;
    int64_t run_lo = 0, run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : covered) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) union_ns += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) union_ns += run_hi - run_lo;
    self[i] = std::max<int64_t>(
        0, span.end_ns - span.start_ns - union_ns - replayed);
  }
  return self;
}

std::string FullDigits(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace servebench
