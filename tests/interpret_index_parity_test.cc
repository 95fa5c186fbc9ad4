// OPENAPI_TEST_LABELS: concurrent  (run under TSan in CI: ctest -L concurrent)
// Decision-invisibility of the region index (EngineConfig::
// use_region_index): on every request the index leg must produce
// BIT-IDENTICAL serving decisions to the reference scan legs — same
// status, same cache_outcome, same consumed query count, same decision
// features — under randomized traffic with repeats, nudges, evictions,
// and interleaved ClearCache. Two sessions serve the same request tape:
// index on (stab, then the log-odds-screened fallback scan) and the
// unscreened linear scan. Requests run sequentially with num_threads = 1
// and stateless (seed, stream) RNG derivation, so any divergence is a
// semantic difference in the lookup, not scheduling noise.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "api/plm.h"
#include "data/synthetic.h"
#include "interpret/interpretation_engine.h"
#include "lmt/lmt.h"
#include "nn/plnn.h"
#include "util/rng.h"

namespace openapi::interpret {
namespace {

struct Leg {
  InterpretationEngine engine;
  std::shared_ptr<EndpointSession> session;

  Leg(const api::PredictionApi& api, size_t capacity, bool use_index)
      : engine(MakeConfig(use_index)) {
    session = engine.OpenSession(api, capacity);
  }

  static EngineConfig MakeConfig(bool use_index) {
    EngineConfig config;
    config.num_threads = 1;
    config.use_region_index = use_index;
    return config;
  }
};

/// One step of the fuzz tape: a request (or a ClearCache marker) applied
/// identically to every leg.
struct Step {
  bool clear_cache = false;
  Vec x0;
  size_t c = 0;
};

std::vector<Step> MakeTape(size_t n, size_t d, size_t num_classes,
                           uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Step> tape;
  std::vector<Vec> seen;
  tape.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Step step;
    const double roll = rng.Uniform(0.0, 1.0);
    if (roll < 0.03 && i > 10) {
      step.clear_cache = true;
      tape.push_back(std::move(step));
      continue;
    }
    if (roll < 0.35 && !seen.empty()) {
      // Exact repeat of an earlier point: exercises the point memo.
      step.x0 = seen[static_cast<size_t>(
          rng.Uniform(0.0, static_cast<double>(seen.size())))];
    } else if (roll < 0.70 && !seen.empty()) {
      // Nudge of an earlier point: same region, fresh raw bits — the
      // candidate-scan path where index/scan parity actually matters.
      step.x0 = seen[static_cast<size_t>(
          rng.Uniform(0.0, static_cast<double>(seen.size())))];
      const size_t j = static_cast<size_t>(
          rng.Uniform(0.0, static_cast<double>(d)));
      step.x0[j] += rng.Uniform(-1e-7, 1e-7);
    } else {
      step.x0 = rng.UniformVector(d, 0.05, 0.95);
      seen.push_back(step.x0);
    }
    step.c = static_cast<size_t>(
        rng.Uniform(0.0, static_cast<double>(num_classes)));
    tape.push_back(std::move(step));
  }
  return tape;
}

/// Replays `tape` through both legs, asserting identical decisions at
/// every step and identical aggregate stats at the end.
void ReplayAndAssertParity(Leg& indexed, Leg& linear,
                           const std::vector<Step>& tape, uint64_t seed) {
  for (size_t i = 0; i < tape.size(); ++i) {
    const Step& step = tape[i];
    if (step.clear_cache) {
      indexed.session->ClearCache();
      linear.session->ClearCache();
      continue;
    }
    const EngineResponse reference =
        indexed.session->Interpret({step.x0, step.c, {}}, seed, i);
    const EngineResponse response =
        linear.session->Interpret({step.x0, step.c, {}}, seed, i);
    // Bit-identical serving decisions, not approximately equal ones.
    ASSERT_EQ(response.result.ok(), reference.result.ok()) << "step " << i;
    ASSERT_EQ(response.cache_outcome, reference.cache_outcome)
        << "step " << i;
    ASSERT_EQ(response.queries, reference.queries) << "step " << i;
    ASSERT_EQ(response.shrink_iterations, reference.shrink_iterations)
        << "step " << i;
    if (reference.result.ok()) {
      ASSERT_EQ(response.result->dc.size(), reference.result->dc.size());
      for (size_t k = 0; k < reference.result->dc.size(); ++k) {
        ASSERT_EQ(response.result->dc[k], reference.result->dc[k])
            << "step " << i << " feature " << k;
      }
    }
  }
  // The per-request assertions imply equal aggregates; check anyway so a
  // stats-accounting divergence cannot hide behind matching envelopes.
  const EngineStats a = indexed.session->stats();
  const EngineStats b = linear.session->stats();
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.point_memo_hits, b.point_memo_hits);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.queries, b.queries);
}

void RunTapeAndAssertParity(const api::PredictionApi& api,
                            const std::vector<Step>& tape,
                            size_t capacity, uint64_t seed) {
  Leg indexed(api, capacity, /*use_index=*/true);
  Leg linear(api, capacity, /*use_index=*/false);
  ReplayAndAssertParity(indexed, linear, tape, seed);
  const EngineStats a = indexed.session->stats();
  // The tape must actually have exercised every decision class, or the
  // parity proved nothing.
  EXPECT_GT(a.point_memo_hits, 0u);
  EXPECT_GT(a.cache_hits, 0u);
  EXPECT_GT(a.cache_misses, 0u);
  EXPECT_GT(a.evictions, 0u);
}

TEST(IndexParityFuzzTest, PlnnRandomTrafficWithEvictionsAndClears) {
  // Irregular random polytopes from a ReLU net: regions of wildly
  // different shapes and sizes, anchors scattered by traffic.
  util::Rng net_rng(77);
  nn::Plnn net({5, 9, 7, 3}, &net_rng);
  api::PredictionApi api(&net);
  auto tape = MakeTape(/*n=*/140, /*d=*/5, /*num_classes=*/3, /*seed=*/41);
  RunTapeAndAssertParity(api, tape, /*capacity=*/6, /*seed=*/1234);
}

TEST(IndexParityFuzzTest, LmtRandomTrafficWithEvictionsAndClears) {
  // Axis-aligned LMT leaves: large flat regions where many nudged points
  // share one region — the workload where the index serves almost every
  // request from its stab and the fallback scan must still agree.
  util::Rng data_rng(5);
  data::Dataset train =
      data::GenerateGaussianBlobs(4, 3, 300, 0.1, &data_rng);
  lmt::LmtConfig lmt_config;
  lmt_config.min_split_size = 50;
  lmt_config.max_depth = 3;
  lmt_config.accuracy_threshold = 1.01;
  lmt_config.leaf_config.max_iters = 60;
  auto tree = lmt::LogisticModelTree::Fit(train, lmt_config);
  api::PredictionApi api(&tree);
  auto tape = MakeTape(/*n=*/140, /*d=*/4, /*num_classes=*/3, /*seed=*/43);
  RunTapeAndAssertParity(api, tape, /*capacity=*/2, /*seed=*/999);
}

/// [0,1]^2 x R^(d-2) cut into k x k cells, each its own locally linear
/// region whose dominant class cycles through the C classes.
class GridPlm : public api::Plm {
 public:
  GridPlm(size_t d, size_t num_classes, size_t k, util::Rng* rng)
      : d_(d), num_classes_(num_classes), k_(k) {
    for (size_t cell = 0; cell < k * k; ++cell) {
      api::LocalLinearModel model;
      model.weights = linalg::Matrix(d, num_classes);
      for (size_t j = 0; j < d; ++j) {
        for (size_t c = 0; c < num_classes; ++c) {
          model.weights(j, c) = rng->Uniform(-0.5, 0.5);
        }
      }
      model.bias = rng->UniformVector(num_classes, -0.5, 0.5);
      model.bias[cell % num_classes] += 4.0;
      cells_.push_back(std::move(model));
    }
  }

  size_t dim() const override { return d_; }
  size_t num_classes() const override { return num_classes_; }
  Vec Predict(const Vec& x) const override {
    return api::EvaluateLocalModel(cells_[CellOf(x)], x);
  }

  size_t num_cells() const { return cells_.size(); }
  const api::LocalLinearModel& CellModel(size_t cell) const {
    return cells_[cell];
  }
  double HalfEdge() const { return 0.5 / static_cast<double>(k_); }
  /// A point of `cell`: its center offset by up to `reach` half-edges in
  /// the two gridded dims and by up to 0.05 in the others.
  Vec PointIn(size_t cell, double reach, util::Rng* rng) const {
    Vec x(d_, 0.5);
    x[0] = (static_cast<double>(cell / k_) + 0.5) / static_cast<double>(k_);
    x[1] = (static_cast<double>(cell % k_) + 0.5) / static_cast<double>(k_);
    for (size_t j = 0; j < d_; ++j) {
      const double spread = j < 2 ? reach * HalfEdge() : 0.05;
      x[j] += rng->Uniform(-spread, spread);
    }
    return x;
  }

 private:
  size_t CellOf(const Vec& x) const {
    auto axis = [this](double v) {
      const double scaled = std::max(0.0, v * static_cast<double>(k_));
      return std::min(static_cast<size_t>(scaled), k_ - 1);
    };
    return axis(x[0]) * k_ + axis(x[1]);
  }

  size_t d_, num_classes_, k_;
  std::vector<api::LocalLinearModel> cells_;
};

TEST(IndexParityFuzzTest, MissHeavyTapeOverLargeImportedCache) {
  // Both legs import every cell except each 8th (held out), certified
  // over a quarter of the cell's half-edge, then replay a miss-heavy
  // tape: fresh points in held-out cells (true misses on first visit),
  // fresh points in imported cells mostly outside their certified boxes
  // (hits the index stab cannot find, so the fallback scan must), and
  // exact repeats. Every fallback screens thousands of imported regions.
  util::Rng model_rng(88);
  const GridPlm grid(/*d=*/8, /*num_classes=*/10, /*k=*/64, &model_rng);
  api::PredictionApi api(&grid);
  Leg indexed(api, /*capacity=*/0, /*use_index=*/true);
  Leg linear(api, /*capacity=*/0, /*use_index=*/false);
  std::vector<size_t> held_out;
  std::vector<size_t> imported;
  util::Rng rng(17);
  for (size_t cell = 0; cell < grid.num_cells(); ++cell) {
    if (cell % 8 == 0) {
      held_out.push_back(cell);
      continue;
    }
    imported.push_back(cell);
    const Vec anchor = grid.PointIn(cell, 0.0, &rng);
    for (Leg* leg : {&indexed, &linear}) {
      ASSERT_TRUE(leg->session
                      ->ImportRegion(grid.CellModel(cell), anchor,
                                     0.25 * grid.HalfEdge())
                      .ok());
    }
  }
  auto pick = [&rng](const std::vector<size_t>& cells) {
    return cells[static_cast<size_t>(
        rng.Uniform(0.0, static_cast<double>(cells.size())))];
  };
  std::vector<Step> tape(240);
  for (size_t i = 0; i < tape.size(); ++i) {
    const double roll = rng.Uniform(0.0, 1.0);
    if (roll < 0.15 && i > 0) {
      tape[i].x0 = tape[static_cast<size_t>(
                            rng.Uniform(0.0, static_cast<double>(i)))]
                       .x0;
    } else if (roll < 0.6) {
      tape[i].x0 = grid.PointIn(pick(held_out), 0.9, &rng);
    } else {
      tape[i].x0 = grid.PointIn(pick(imported), 0.9, &rng);
    }
    tape[i].c = static_cast<size_t>(
        rng.Uniform(0.0, static_cast<double>(grid.num_classes())));
  }
  ReplayAndAssertParity(indexed, linear, tape, /*seed=*/17);
  const EngineStats stats = indexed.session->stats();
  EXPECT_GT(stats.cache_misses, 40u);
  EXPECT_GT(stats.cache_hits, 40u);
  EXPECT_GT(stats.point_memo_hits, 0u);
}

}  // namespace
}  // namespace openapi::interpret
