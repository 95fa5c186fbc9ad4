// Tests of the benchmark's helpers: percentile with sample count, Zipf
// sampler, Poisson schedule, span self-time arithmetic, and the grid
// endpoint's cell layout. Plain checks, no framework: the benchmark builds
// without one.
//
//   <build>/servebench_test     (exit status 0 = all passed)

#include <cmath>
#include <cstdio>
#include <vector>

#include "api/plm.h"
#include "bench_util.h"
#include "endpoints.h"

namespace servebench {
namespace {

int failures = 0;

#define EXPECT(condition)                                              \
  do {                                                                 \
    if (!(condition)) {                                                \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #condition);                                        \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

bool Near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

void TestPercentile() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, shuffled order
  const Quantile p50 = Percentile(v, 0.5);
  EXPECT(p50.value == 50.0);
  EXPECT(p50.samples == 100);
  EXPECT(p50.beyond == 50);
  const Quantile p99 = Percentile(v, 0.99);
  EXPECT(p99.value == 99.0);
  EXPECT(p99.beyond == 1);
  EXPECT(Percentile(v, 1.0).value == 100.0);
  EXPECT(Percentile({7.0}, 0.99).value == 7.0);
  EXPECT(Percentile({7.0}, 0.99).beyond == 0);
  const Quantile empty = Percentile({}, 0.5);
  EXPECT(empty.samples == 0 && empty.value == 0.0);
  // Nearest rank never interpolates: p50 of {1, 2} is 1.
  EXPECT(Percentile({2.0, 1.0}, 0.5).value == 1.0);
  // 1000 samples leave exactly ten beyond p99.
  std::vector<double> thousand(1000);
  for (size_t i = 0; i < thousand.size(); ++i) thousand[i] = double(i);
  EXPECT(Percentile(thousand, 0.99).beyond == 10);
}

void TestZipf() {
  const ZipfSampler zipf(1000, 1.0);
  EXPECT(zipf.size() == 1000);
  openapi::util::Rng rng(42);
  std::vector<size_t> counts(1000, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const size_t k = zipf.Sample(&rng);
    EXPECT(k < 1000);
    if (k < 1000) ++counts[k];
  }
  // P(rank 0) = 1 / H_1000 ~= 0.1336; rank 0 is twice as likely as rank 1.
  EXPECT(Near(counts[0] / double(n), 0.1336, 0.005));
  EXPECT(Near(counts[0] / double(counts[1]), 2.0, 0.1));
  // Same seed, same draws.
  openapi::util::Rng a(7), b(7);
  bool same = true;
  for (int i = 0; i < 100; ++i) same = same && zipf.Sample(&a) == zipf.Sample(&b);
  EXPECT(same);
  // s = 0 is uniform.
  const ZipfSampler flat(4, 0.0);
  std::vector<size_t> flat_counts(4, 0);
  for (int i = 0; i < 40000; ++i) ++flat_counts[flat.Sample(&rng)];
  for (size_t c : flat_counts) EXPECT(Near(c / 40000.0, 0.25, 0.01));
}

void TestPoisson() {
  const std::vector<double> t = PoissonSchedule(1000.0, 20.0, 3);
  EXPECT(Near(static_cast<double>(t.size()), 20000.0, 600.0));
  bool increasing = true, in_range = true;
  for (size_t i = 0; i < t.size(); ++i) {
    if (i > 0 && !(t[i] > t[i - 1])) increasing = false;
    if (!(t[i] >= 0.0 && t[i] < 20.0)) in_range = false;
  }
  EXPECT(increasing);
  EXPECT(in_range);
  // Exponential gaps: mean 1/rate, and their standard deviation equals
  // the mean.
  double sum = 0, sq = 0;
  for (size_t i = 1; i < t.size(); ++i) {
    const double gap = t[i] - t[i - 1];
    sum += gap;
    sq += gap * gap;
  }
  const double n = static_cast<double>(t.size() - 1);
  const double mean = sum / n;
  EXPECT(Near(mean, 1e-3, 3e-5));
  EXPECT(Near(std::sqrt(sq / n - mean * mean), 1e-3, 5e-5));
  EXPECT(PoissonSchedule(1000.0, 20.0, 3) == t);
  EXPECT(PoissonSchedule(1000.0, 20.0, 4) != t);
}

Span MakeSpan(uint64_t id, uint64_t parent, int64_t start, int64_t end,
              Layer layer, bool replayed = false) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.request = 1;
  s.start_ns = start;
  s.end_ns = end;
  s.layer = layer;
  s.replayed = replayed;
  return s;
}

void TestSelfTimes() {
  // interpret [0,100] > api [10,40] > nn [15,35]; api [50,60] > nn [52,58].
  const std::vector<Span> nested = {
      MakeSpan(1, 0, 0, 100, Layer::kInterpret),
      MakeSpan(2, 1, 10, 40, Layer::kApi),
      MakeSpan(3, 2, 15, 35, Layer::kNn),
      MakeSpan(4, 1, 50, 60, Layer::kApi),
      MakeSpan(5, 4, 52, 58, Layer::kNn),
  };
  const std::vector<int64_t> self = SelfTimes(nested);
  EXPECT(self[0] == 60);
  EXPECT(self[1] == 10);
  EXPECT(self[2] == 20);
  EXPECT(self[3] == 4);
  EXPECT(self[4] == 6);
  int64_t sum = 0;
  for (int64_t v : self) sum += v;
  EXPECT(sum == 100);  // self times add up to the root's wall time

  // Overlapping children count once; a child past its parent's end only
  // covers the part inside the parent.
  const std::vector<Span> overlap = {
      MakeSpan(1, 0, 0, 100, Layer::kInterpret),
      MakeSpan(2, 1, 10, 50, Layer::kApi),
      MakeSpan(3, 1, 30, 70, Layer::kApi),
      MakeSpan(4, 1, 90, 130, Layer::kApi),
  };
  EXPECT(SelfTimes(overlap)[0] == 100 - 60 - 10);

  // A replayed child counts by duration wherever it was measured, and
  // the result never goes negative.
  const std::vector<Span> replayed = {
      MakeSpan(1, 0, 1000, 1100, Layer::kInterpret),
      MakeSpan(2, 1, 1010, 1030, Layer::kApi),
      MakeSpan(3, 1, 0, 50, Layer::kStore, /*replayed=*/true),
  };
  EXPECT(SelfTimes(replayed)[0] == 100 - 20 - 50);
  const std::vector<Span> too_long = {
      MakeSpan(1, 0, 0, 10, Layer::kInterpret),
      MakeSpan(2, 1, 100, 200, Layer::kStore, /*replayed=*/true),
  };
  EXPECT(SelfTimes(too_long)[0] == 0);

  // Spans whose parent is absent are roots.
  const std::vector<Span> orphan = {MakeSpan(9, 77, 5, 25, Layer::kGen)};
  EXPECT(SelfTimes(orphan)[0] == 20);
}

void TestFullDigits() {
  EXPECT(std::stod(FullDigits(0.1)) == 0.1);
  EXPECT(std::stod(FullDigits(1.0 / 3.0)) == 1.0 / 3.0);
}

bool SameModel(const openapi::api::LocalLinearModel& a,
               const openapi::api::LocalLinearModel& b) {
  if (a.bias != b.bias) return false;
  for (size_t j = 0; j < a.weights.rows(); ++j) {
    for (size_t c = 0; c < a.weights.cols(); ++c) {
      if (a.weights(j, c) != b.weights(j, c)) return false;
    }
  }
  return true;
}

void TestGridLayers() {
  const GridPlm grid(8, 10, 5, 7);
  EXPECT(grid.layer_cells() == 25);
  EXPECT(grid.num_cells() == 125);
  openapi::util::Rng rng(3);
  // Every cell, in layer 0 or above, owns its center and its points, and
  // the endpoint answers there with the cell's model.
  for (size_t cell = 0; cell < grid.num_cells(); ++cell) {
    EXPECT(grid.CellOf(grid.CellCenter(cell)) == cell);
    const Vec x = grid.PointInCell(cell, &rng);
    EXPECT(grid.CellOf(x) == cell);
    const Vec want = openapi::api::EvaluateLocalModel(grid.CellModel(cell), x);
    const Vec got = grid.Predict(x);
    EXPECT(got == want);
  }
  // Generated models are a function of (seed, cell): asking again after
  // another cell, or from a second grid, gives the same model; another
  // cell gives another.
  const auto first = grid.CellModel(60);
  EXPECT(!SameModel(first, grid.CellModel(61)));
  EXPECT(SameModel(first, grid.CellModel(60)));
  const GridPlm twin(8, 10, 5, 7);
  EXPECT(SameModel(first, twin.CellModel(60)));
  EXPECT(SameModel(grid.CellModel(61), twin.CellModel(61)));
  EXPECT(!SameModel(grid.CellModel(3), grid.CellModel(28)));
}

}  // namespace
}  // namespace servebench

int main() {
  servebench::TestPercentile();
  servebench::TestZipf();
  servebench::TestPoisson();
  servebench::TestSelfTimes();
  servebench::TestFullDigits();
  servebench::TestGridLayers();
  if (servebench::failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", servebench::failures);
    return 1;
  }
  std::printf("servebench_test: all checks passed\n");
  return 0;
}
