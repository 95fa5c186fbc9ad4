// The log-odds screen (interpret/region_screen.h) must never reject a
// region the exact match predicate accepts: its survivor set is a
// SUPERSET of the exact matches on every input. These tests build
// screens over random and adversarial region models, perturb the
// request's answer right up to (and past) match_tol, and check the
// superset property — plus that the screen stays sharp where it can,
// and that both kernel policies give bit-identical survivors.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "api/plm.h"
#include "interpret/region_screen.h"
#include "linalg/vector_ops.h"
#include "util/rng.h"

namespace openapi::interpret {
namespace {

constexpr double kTol = 1e-9;  // EngineConfig::match_tol's default

api::LocalLinearModel RandomModel(size_t d, size_t num_classes,
                                  double weight_scale, util::Rng* rng) {
  api::LocalLinearModel model;
  model.weights = linalg::Matrix(d, num_classes);
  for (size_t j = 0; j < d; ++j) {
    for (size_t c = 0; c < num_classes; ++c) {
      model.weights(j, c) = weight_scale * rng->Uniform(-1.0, 1.0);
    }
  }
  model.bias = rng->UniformVector(num_classes, -1.0, 1.0);
  return model;
}

/// A copy of `model` whose predictions differ from it by far less than
/// kTol: several slots then match the same request.
api::LocalLinearModel NearCopy(const api::LocalLinearModel& model,
                               util::Rng* rng) {
  api::LocalLinearModel copy = model;
  for (double& b : copy.bias) b += rng->Uniform(-1e-13, 1e-13);
  return copy;
}

/// `y` moved by exactly `amount` per class. Sign patterns: +1 shrinks the
/// top class and grows the others, -1 the reverse (the two directions
/// that push a region's log-odds to an end of the screen's interval),
/// 0 picks each sign at random.
Vec Perturb(const Vec& y, double amount, int pattern, util::Rng* rng) {
  const size_t top = linalg::ArgMax(y);
  Vec out = y;
  for (size_t k = 0; k < y.size(); ++k) {
    double sign = k == top ? -1.0 : 1.0;
    if (pattern == -1) sign = -sign;
    if (pattern == 0) sign = rng->Uniform(0.0, 1.0) < 0.5 ? -1.0 : 1.0;
    out[k] += sign * amount;
  }
  return out;
}

struct Screened {
  size_t exact = 0;      // slots the exact predicate accepts
  size_t survivors = 0;  // slots the screen passes
};

/// Screens (x0, y0) against `models` (each paired at its anchor's
/// prediction) and asserts survivors ⊇ exact matches, under both kernel
/// policies, with bit-identical survivor lists.
Screened CheckSuperset(const std::vector<api::LocalLinearModel>& models,
                       const std::vector<Vec>& anchors, const Vec& x0,
                       const Vec& y0, double tol) {
  RegionScreen screen(x0.size());
  for (size_t slot = 0; slot < models.size(); ++slot) {
    screen.Set(slot, models[slot],
               api::EvaluateLocalModel(models[slot], anchors[slot]));
  }
  std::vector<size_t> survivors;
  screen.Collect(x0, y0, tol, models.size(), &survivors);
  linalg::SetKernelPolicy(linalg::KernelPolicy::kReference);
  std::vector<size_t> reference;
  screen.Collect(x0, y0, tol, models.size(), &reference);
  linalg::SetKernelPolicy(linalg::KernelPolicy::kSimd);
  EXPECT_EQ(survivors, reference);
  EXPECT_TRUE(std::is_sorted(survivors.begin(), survivors.end()));
  Screened out;
  out.survivors = survivors.size();
  for (size_t slot = 0; slot < models.size(); ++slot) {
    if (!ModelExplains(models[slot], x0, y0, tol)) continue;
    ++out.exact;
    EXPECT_TRUE(std::binary_search(survivors.begin(), survivors.end(), slot))
        << "screen rejected exact match at slot " << slot;
  }
  return out;
}

/// Fills `n` slots with random models (every 10th slot's neighbors are
/// near copies of it), anchored at random points, then screens answers
/// of randomly chosen slots perturbed by `factor` x tol in every sign
/// pattern. Returns the totals over all requests.
Screened RunPerturbed(size_t d, size_t num_classes, double weight_scale,
                      double factor, double tol, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<api::LocalLinearModel> models;
  std::vector<Vec> anchors;
  for (size_t slot = 0; slot < 200; ++slot) {
    models.push_back(slot % 10 != 0 && slot % 10 < 4
                         ? NearCopy(models[slot - slot % 10], &rng)
                         : RandomModel(d, num_classes, weight_scale, &rng));
    anchors.push_back(rng.UniformVector(d, 0.0, 1.0));
  }
  Screened total;
  for (size_t request = 0; request < 30; ++request) {
    const size_t target = static_cast<size_t>(rng.Uniform(0.0, 200.0));
    const Vec x0 = rng.UniformVector(d, 0.0, 1.0);
    const Vec y = api::EvaluateLocalModel(models[target], x0);
    for (int pattern : {1, -1, 0}) {
      const Screened one = CheckSuperset(
          models, anchors, x0, Perturb(y, factor * tol, pattern, &rng), tol);
      total.exact += one.exact;
      total.survivors += one.survivors;
    }
  }
  return total;
}

TEST(RegionScreenTest, KeepsMatchesAtHalfTolerance) {
  const Screened s = RunPerturbed(6, 4, 1.0, 0.5, kTol, 1);
  EXPECT_GE(s.exact, 90u);  // every request's target (and near copies)
  // Sharp as well as safe: unrelated regions are rejected.
  EXPECT_LT(s.survivors, 3 * s.exact);
}

TEST(RegionScreenTest, KeepsMatchesAtTheToleranceEdge) {
  const Screened s = RunPerturbed(6, 4, 1.0, 1.0 - 1e-6, kTol, 2);
  EXPECT_GE(s.exact, 90u);
}

TEST(RegionScreenTest, RejectsPastOneAndAHalfTolerance) {
  // Nothing matches here (the assertion is only the superset check), and
  // the perturbed target itself is no longer explained.
  const Screened s = RunPerturbed(6, 4, 1.0, 1.5, kTol, 3);
  EXPECT_EQ(s.exact, 0u);
}

TEST(RegionScreenTest, TwoClasses) {
  const Screened s = RunPerturbed(5, 2, 1.0, 0.5, kTol, 4);
  EXPECT_GE(s.exact, 90u);
  EXPECT_GE(RunPerturbed(5, 2, 1.0, 1.0 - 1e-6, kTol, 5).exact, 90u);
}

TEST(RegionScreenTest, HugeWeights) {
  // Raw 1e6 weights saturate every answer; matches must still pass.
  EXPECT_GE(RunPerturbed(6, 4, 1e6, 0.5, kTol, 6).exact, 90u);
  // A 1e6 component shared by every class leaves moderate log-odds but
  // logits whose rounding (~d x 1e6 x u) rivals the interval's width:
  // this is where the forward-error widening must carry the match.
  util::Rng rng(7);
  const size_t d = 8, num_classes = 5;
  std::vector<api::LocalLinearModel> models;
  std::vector<Vec> anchors;
  for (size_t slot = 0; slot < 100; ++slot) {
    api::LocalLinearModel model = RandomModel(d, num_classes, 1.0, &rng);
    for (size_t j = 0; j < d; ++j) {
      const double shared = 1e6 * rng.Uniform(-1.0, 1.0);
      for (size_t c = 0; c < num_classes; ++c) model.weights(j, c) += shared;
    }
    models.push_back(std::move(model));
    anchors.push_back(rng.UniformVector(d, 0.0, 1.0));
  }
  size_t exact = 0;
  for (size_t request = 0; request < 60; ++request) {
    const size_t target = request % models.size();
    const Vec x0 = rng.UniformVector(d, 0.0, 1.0);
    const Vec y = api::EvaluateLocalModel(models[target], x0);
    for (int pattern : {1, -1, 0}) {
      exact += CheckSuperset(models, anchors, x0,
                             Perturb(y, (1.0 - 1e-6) * kTol, pattern, &rng),
                             kTol)
                   .exact;
    }
  }
  EXPECT_GE(exact, 180u);
}

TEST(RegionScreenTest, SaturatedAnswerPassesItsRegion) {
  // Runner-up at most match_tol: the interval is one-sided (or
  // unbounded), and every region that matches still survives.
  util::Rng rng(8);
  const size_t d = 6, num_classes = 4;
  std::vector<api::LocalLinearModel> models;
  std::vector<Vec> anchors;
  for (size_t slot = 0; slot < 120; ++slot) {
    api::LocalLinearModel model = RandomModel(d, num_classes, 1.0, &rng);
    model.bias[slot % num_classes] += slot % 3 == 0 ? 45.0 : 18.0;
    models.push_back(std::move(model));
    anchors.push_back(rng.UniformVector(d, 0.0, 1.0));
  }
  size_t exact = 0;
  for (size_t request = 0; request < 40; ++request) {
    const size_t target = 3 * (request % 40);  // a saturated region
    const Vec x0 = rng.UniformVector(d, 0.0, 1.0);
    const Vec y = api::EvaluateLocalModel(models[target], x0);
    size_t runner_up_count = 0;
    for (double p : y) runner_up_count += p <= kTol ? 1 : 0;
    ASSERT_EQ(runner_up_count, num_classes - 1);
    for (int pattern : {1, -1, 0}) {
      exact += CheckSuperset(models, anchors, x0,
                             Perturb(y, 0.5 * kTol, pattern, &rng), kTol)
                   .exact;
    }
  }
  EXPECT_GE(exact, 120u);
}

TEST(RegionScreenTest, HighDimensional) {
  // d = 784 (MNIST-sized inputs), small weights: long dot products.
  const Screened s = RunPerturbed(784, 10, 0.05, 1.0 - 1e-6, kTol, 9);
  EXPECT_GE(s.exact, 90u);
  EXPECT_LT(s.survivors, 3 * s.exact);
}

TEST(RegionScreenTest, OverwriteReplacesRowAndClearDropsAll) {
  // Overwriting a slot replaces its row; Collect only looks below
  // num_slots; Clear empties the screen.
  util::Rng rng(10);
  const size_t d = 4, num_classes = 3;
  RegionScreen screen(d);
  const api::LocalLinearModel a = RandomModel(d, num_classes, 1.0, &rng);
  const api::LocalLinearModel b = RandomModel(d, num_classes, 1.0, &rng);
  const Vec anchor = rng.UniformVector(d, 0.0, 1.0);
  screen.Set(0, a, api::EvaluateLocalModel(a, anchor));
  screen.Set(1, a, api::EvaluateLocalModel(a, anchor));
  const Vec y = api::EvaluateLocalModel(a, anchor);
  std::vector<size_t> survivors;
  screen.Collect(anchor, y, kTol, 2, &survivors);
  EXPECT_EQ(survivors, (std::vector<size_t>{0, 1}));
  screen.Set(1, b, api::EvaluateLocalModel(b, anchor));
  survivors.clear();
  screen.Collect(anchor, y, kTol, 2, &survivors);
  EXPECT_EQ(survivors, (std::vector<size_t>{0}));
  survivors.clear();
  screen.Collect(anchor, y, kTol, 1, &survivors);
  EXPECT_EQ(survivors, (std::vector<size_t>{0}));
  screen.Clear();
  survivors.clear();
  screen.Collect(anchor, y, kTol, 0, &survivors);
  EXPECT_TRUE(survivors.empty());
}

TEST(RegionScreenTest, SpansManyBlocks) {
  // More slots than one block holds: survivors keep global slot order.
  util::Rng rng(11);
  const size_t d = 3, num_classes = 3;
  RegionScreen screen(d);
  const api::LocalLinearModel target = RandomModel(d, num_classes, 1.0, &rng);
  const Vec x0 = rng.UniformVector(d, 0.0, 1.0);
  const Vec y0 = api::EvaluateLocalModel(target, x0);
  std::vector<size_t> expected;
  for (size_t slot = 0; slot < 20000; ++slot) {
    const bool match = slot % 997 == 0;
    const api::LocalLinearModel model =
        match ? target : RandomModel(d, num_classes, 1.0, &rng);
    screen.Set(slot, model, api::EvaluateLocalModel(model, x0));
    if (match) expected.push_back(slot);
  }
  std::vector<size_t> survivors;
  screen.Collect(x0, y0, kTol, 20000, &survivors);
  for (size_t slot : expected) {
    EXPECT_TRUE(std::binary_search(survivors.begin(), survivors.end(), slot));
  }
  EXPECT_TRUE(std::is_sorted(survivors.begin(), survivors.end()));
  EXPECT_LT(survivors.size(), 2 * expected.size());
}

/// Collect under both kernel policies; asserts identical survivors, in
/// ascending order and all below `num_slots`, and returns them.
std::vector<size_t> CollectBothPolicies(const RegionScreen& screen,
                                        const Vec& x0, const Vec& y0,
                                        size_t num_slots) {
  std::vector<size_t> survivors;
  screen.Collect(x0, y0, kTol, num_slots, &survivors);
  linalg::SetKernelPolicy(linalg::KernelPolicy::kReference);
  std::vector<size_t> reference;
  screen.Collect(x0, y0, kTol, num_slots, &reference);
  linalg::SetKernelPolicy(linalg::KernelPolicy::kSimd);
  EXPECT_EQ(survivors, reference);
  EXPECT_TRUE(std::is_sorted(survivors.begin(), survivors.end()));
  EXPECT_TRUE(survivors.empty() || survivors.back() < num_slots);
  return survivors;
}

TEST(RegionScreenTest, FloatRoundedRowsKeepMatches) {
  // Rows are stored as float32. These weight differences are not floats,
  // so storing them moves the screened log-odds by up to ~2^-24 of the
  // row's magnitude — far more than the 1e-9 tolerance's interval — and
  // only the storage-rounding slack keeps the exact match a survivor.
  // |x0|∞ > 1 exercises the slack's max(1, |x0|∞) scale.
  util::Rng rng(14);
  const size_t d = 6, num_classes = 4;
  size_t exact = 0;
  for (size_t trial = 0; trial < 50; ++trial) {
    api::LocalLinearModel model;
    model.weights = linalg::Matrix(d, num_classes);
    for (size_t j = 0; j < d; ++j) {
      for (size_t c = 0; c < num_classes; ++c) {
        // A float-representable part plus an odd multiple of a class-
        // specific power of two near 2^-40: the pair's differences need
        // ~40 significant bits, far more than a float's 24.
        model.weights(j, c) =
            static_cast<float>(rng.Uniform(-0.4, 0.4)) +
            std::ldexp(static_cast<double>(2 * (j * num_classes + c) + 1),
                       -40 - static_cast<int>(c));
      }
    }
    model.bias = rng.UniformVector(num_classes, -1.0, 1.0);
    const Vec x0 = rng.UniformVector(d, -3.0, 3.0);
    const Vec y = api::EvaluateLocalModel(model, x0);
    RegionScreen screen(d);
    screen.Set(0, model, y);
    for (double factor : {0.5, 1.0 - 1e-6}) {
      for (int pattern : {1, -1, 0}) {
        const Vec y0 = Perturb(y, factor * kTol, pattern, &rng);
        ASSERT_TRUE(ModelExplains(model, x0, y0, kTol));
        ++exact;
        EXPECT_EQ(CollectBothPolicies(screen, x0, y0, 1),
                  (std::vector<size_t>{0}))
            << "trial " << trial << " factor " << factor;
      }
    }
  }
  EXPECT_EQ(exact, 300u);
}

TEST(RegionScreenTest, WeightsPastFloatMaxAlwaysSurvive) {
  // A weight of ±1e39 overflows float32: its difference is stored as an
  // infinity and its magnitude as +inf. At x0[0] = 1e-39 the region's
  // log-odds are moderate and it matches its own answer exactly, while
  // the screened value is ±inf — only the infinite slack keeps it. The
  // slot survives any answer, matching or not.
  util::Rng rng(15);
  const size_t d = 3, num_classes = 3;
  const Vec x0{1e-39, 0.4, -0.2};
  for (double huge : {1e39, -1e39}) {
    for (size_t column : {0, 1}) {  // in the pair's top or runner-up class
      api::LocalLinearModel model = RandomModel(d, num_classes, 1.0, &rng);
      model.bias = {4.0, 1.5, -3.0};  // classes 0 and 1 are the pair
      model.weights(0, column) = huge;
      const Vec y = api::EvaluateLocalModel(model, x0);
      ASSERT_EQ(linalg::ArgMax(y), 0u);
      ASSERT_TRUE(ModelExplains(model, x0, y, 0.0));
      RegionScreen screen(d);
      const api::LocalLinearModel plain =
          RandomModel(d, num_classes, 1.0, &rng);
      screen.Set(0, plain, api::EvaluateLocalModel(plain, x0));
      screen.Set(1, model, y);
      for (const Vec& y0 :
           {y, Perturb(y, 0.5 * kTol, 1, &rng),
            Perturb(y, (1.0 - 1e-6) * kTol, -1, &rng),
            Vec{1.0 / 3, 1.0 / 3, 1.0 / 3}, Vec{0.05, 0.9, 0.05}}) {
        const std::vector<size_t> survivors =
            CollectBothPolicies(screen, x0, y0, 2);
        EXPECT_TRUE(std::binary_search(survivors.begin(), survivors.end(),
                                       size_t{1}))
            << "huge " << huge << " column " << column;
      }
    }
  }
}

TEST(RegionScreenTest, BlockBoundariesKeepOrderAndRange) {
  // num_slots one below, at, and one past a block's slot count: survivors
  // are ascending, all below num_slots, and include every match — the
  // first slot, both sides of the block boundary, and the last slot.
  // Slots past num_slots that were Set (or a block's unset tail) are
  // never returned.
  util::Rng rng(16);
  const size_t d = 3, num_classes = 3;
  RegionScreen screen(d);
  const size_t block = screen.block_slots();
  ASSERT_GE(block, 16u);
  const api::LocalLinearModel target = RandomModel(d, num_classes, 1.0, &rng);
  const Vec x0 = rng.UniformVector(d, 0.0, 1.0);
  const Vec y0 = api::EvaluateLocalModel(target, x0);
  for (size_t num_slots : {block - 1, block, block + 1}) {
    RegionScreen sized(d);
    std::vector<size_t> expected;
    for (size_t slot = 0; slot < num_slots + 2; ++slot) {
      const bool match = slot % 101 == 0 || slot + 2 >= block ||
                         slot + 1 >= num_slots;
      const api::LocalLinearModel model =
          match ? target : RandomModel(d, num_classes, 1.0, &rng);
      sized.Set(slot, model, api::EvaluateLocalModel(model, x0));
      if (match && slot < num_slots) expected.push_back(slot);
    }
    const std::vector<size_t> survivors =
        CollectBothPolicies(sized, x0, y0, num_slots);
    for (size_t slot : expected) {
      EXPECT_TRUE(std::binary_search(survivors.begin(), survivors.end(), slot))
          << "num_slots " << num_slots << " slot " << slot;
    }
    EXPECT_LT(survivors.size(), 2 * expected.size());
  }
}

TEST(RegionScreenTest, KernelPoliciesAgreeOnEveryTail) {
  // Every slot count from 1 to 64 (each 16-slot tile's tail, including
  // multiples of 16 and one either side), dimensions from 1 to past a
  // cache line of floats, and class counts on both sides of the 32 that
  // fit the bound tables in registers: the kSimd and kReference legs
  // return identical survivors, and enough of them (near copies of the
  // target) that a diverging leg shows.
  util::Rng rng(17);
  for (size_t d : {1, 2, 7, 20}) {
    for (size_t num_classes : {4, 40}) {
      const api::LocalLinearModel target =
          RandomModel(d, num_classes, 1.0, &rng);
      RegionScreen screen(d);
      for (size_t slot = 0; slot < 64; ++slot) {
        const api::LocalLinearModel model =
            slot % 3 == 0 ? NearCopy(target, &rng)
                          : RandomModel(d, num_classes, 1.0, &rng);
        screen.Set(slot, model,
                   api::EvaluateLocalModel(model,
                                           rng.UniformVector(d, 0.0, 1.0)));
      }
      for (size_t request = 0; request < 10; ++request) {
        const Vec x0 = rng.UniformVector(d, -1.5, 1.5);
        const Vec y0 = Perturb(api::EvaluateLocalModel(target, x0),
                               0.5 * kTol, 0, &rng);
        for (size_t num_slots = 1; num_slots <= 64; ++num_slots) {
          const std::vector<size_t> survivors =
              CollectBothPolicies(screen, x0, y0, num_slots);
          ASSERT_FALSE(survivors.empty());
          EXPECT_EQ(survivors.front(), 0u);
        }
      }
    }
  }
}

TEST(RegionScreenTest, ManyClassesHighDimensional) {
  // C = 300 (bound tables too large for registers) at d = 100.
  const Screened s = RunPerturbed(100, 300, 0.1, 1.0 - 1e-6, kTol, 18);
  EXPECT_GE(s.exact, 90u);
  EXPECT_LT(s.survivors, 3 * s.exact);
}

/// Screens `copies` slots of `model`, Set at its own prediction at x0,
/// against y0 under both policies; expects every slot to survive.
void ExpectAllSurvive(const api::LocalLinearModel& model, const Vec& x0,
                      const Vec& y0, size_t copies) {
  RegionScreen screen(x0.size());
  for (size_t slot = 0; slot < copies; ++slot) {
    screen.Set(slot, model, api::EvaluateLocalModel(model, x0));
  }
  EXPECT_EQ(CollectBothPolicies(screen, x0, y0, copies).size(), copies);
}

TEST(RegionScreenTest, FloatAccumulationErrorIsCovered) {
  // x0 = 1 and float weights, so neither rounding x0 nor storing the rows
  // loses anything; but each of the d-1 small terms is just over half an
  // ulp of the running sum, so every float addition rounds up by almost
  // half an ulp: v exceeds the exact log-odds by ~(d-1)·u_f, while the
  // answer puts them at the top of their interval. Only the float
  // accumulation term of the slack keeps the match.
  for (size_t d : {16, 64}) {
    api::LocalLinearModel model;
    model.weights = linalg::Matrix(d, 2);
    model.weights(0, 0) = 1.0;
    for (size_t j = 1; j < d; ++j) {
      model.weights(j, 0) = 0x1p-24 + 0x1p-34;
    }
    model.bias = {0.0, 0.0};
    const Vec x0(d, 1.0);
    const Vec y = api::EvaluateLocalModel(model, x0);
    util::Rng rng(19);
    for (int pattern : {1, -1}) {
      const Vec y0 = Perturb(y, (1.0 - 1e-6) * kTol, pattern, &rng);
      ASSERT_TRUE(ModelExplains(model, x0, y0, kTol));
      ExpectAllSurvive(model, x0, y0, 20);
    }
  }
}

TEST(RegionScreenTest, SubnormalRowsAtHugeX0) {
  // Weight differences of (k + 0.49)·2^-149 round down to subnormal
  // floats, each losing 0.49·2^-149; at x0 = 3e38 (a float) that is
  // ~2e-7 of log-odds per coordinate, all in one direction, far past the
  // interval and the relative slack of so small a row. Only the
  // magnitude's pad keeps the match.
  util::Rng rng(20);
  const size_t d = 8;
  api::LocalLinearModel model;
  model.weights = linalg::Matrix(d, 3);
  for (size_t j = 0; j < d; ++j) {
    const double k = std::floor(rng.Uniform(100.0, 1000.0));
    model.weights(j, 0) = (k + 0.49) * 0x1p-149;
  }
  model.bias = {0.0, 0.0, 0.0};
  const Vec x0(d, 3e38);
  const Vec y = api::EvaluateLocalModel(model, x0);
  for (int pattern : {1, -1}) {
    const Vec y0 = Perturb(y, (1.0 - 1e-6) * kTol, pattern, &rng);
    ASSERT_TRUE(ModelExplains(model, x0, y0, kTol));
    ExpectAllSurvive(model, x0, y0, 20);
  }
}

TEST(RegionScreenTest, OverflowingFloatSumsSurvive) {
  // Weights of 1e30 at x0 = 1e10: every float product overflows (the
  // answer is saturated, the value inf or NaN).
  util::Rng rng(21);
  const size_t d = 4;
  api::LocalLinearModel big = RandomModel(d, 3, 1e30, &rng);
  const Vec x_big(d, 1e10);
  const Vec y_big = api::EvaluateLocalModel(big, x_big);
  ASSERT_TRUE(ModelExplains(big, x_big, y_big, kTol));
  ExpectAllSurvive(big, x_big, y_big, 20);
  // Products of ±3e38 fit a float, but the partial sum 3e38 + 3e38 does
  // not: v = +inf, while the exact log-odds cancel to the bias difference
  // of 1. Only the slack's overflow guard (M·g = +inf) keeps the match.
  api::LocalLinearModel cancel;
  cancel.weights = linalg::Matrix(d, 3);
  const double row[] = {3e28, 3e28, -3e28, -3e28};
  for (size_t j = 0; j < d; ++j) cancel.weights(j, 0) = row[j];
  cancel.bias = {1.0, 0.0, -1.0};
  const Vec y = api::EvaluateLocalModel(cancel, x_big);
  for (int pattern : {1, -1, 0}) {
    const Vec y0 = Perturb(y, 0.5 * kTol, pattern, &rng);
    ASSERT_TRUE(ModelExplains(cancel, x_big, y0, kTol));
    ExpectAllSurvive(cancel, x_big, y0, 20);
  }
}

TEST(RegionScreenTest, ExtremeX0Coordinates) {
  // One coordinate of x0 at 1e39 (past FLT_MAX), 3e38 (a float, but
  // M·|x0|∞ overflows for most rows), 1e-41 (a subnormal float) or NaN;
  // the rest random. Weights on that coordinate are scaled to keep the
  // logits moderate. Every exact match survives; with no float image of
  // x0 (1e39, NaN) every slot does.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  util::Rng rng(22);
  const size_t d = 5, num_classes = 4, num_slots = 40;
  for (double extreme : {1e39, 3e38, 1e-41, nan}) {
    const double scale =
        std::isnan(extreme) ? 1.0 : 1.0 / std::max(1.0, extreme);
    std::vector<api::LocalLinearModel> models;
    Vec x0 = rng.UniformVector(d, -1.0, 1.0);
    x0[2] = extreme;
    for (size_t slot = 0; slot < num_slots; ++slot) {
      api::LocalLinearModel model = RandomModel(d, num_classes, 1.0, &rng);
      for (size_t c = 0; c < num_classes; ++c) model.weights(2, c) *= scale;
      models.push_back(std::move(model));
    }
    RegionScreen screen(d);
    for (size_t slot = 0; slot < num_slots; ++slot) {
      Vec anchor = rng.UniformVector(d, -1.0, 1.0);
      anchor[2] = std::isnan(extreme) ? 0.5 : extreme;
      screen.Set(slot, models[slot],
                 api::EvaluateLocalModel(models[slot], anchor));
    }
    for (size_t target = 0; target < num_slots; target += 7) {
      const Vec y0 = Perturb(api::EvaluateLocalModel(models[target], x0),
                             0.5 * kTol, 0, &rng);
      const std::vector<size_t> survivors =
          CollectBothPolicies(screen, x0, y0, num_slots);
      if (!(extreme <= std::numeric_limits<float>::max())) {
        EXPECT_EQ(survivors.size(), num_slots) << extreme;
      }
      size_t exact = 0;
      for (size_t slot = 0; slot < num_slots; ++slot) {
        if (!ModelExplains(models[slot], x0, y0, kTol)) continue;
        ++exact;
        EXPECT_TRUE(
            std::binary_search(survivors.begin(), survivors.end(), slot))
            << "x0[2] = " << extreme << ": rejected slot " << slot;
      }
      EXPECT_EQ(exact > 0, !std::isnan(extreme)) << extreme;
    }
  }
}

TEST(ModelExplainsTest, BitIdenticalToEvaluateLocalModel) {
  // At tolerance 0 a model explains exactly its own EvaluateLocalModel
  // output, so the predicate's probabilities match it bit for bit —
  // under both kernel policies, and past the stack scratch's class count.
  util::Rng rng(12);
  for (size_t num_classes : {2, 3, 10, 33, 40}) {
    for (size_t trial = 0; trial < 20; ++trial) {
      const size_t d = 1 + trial % 9;
      const api::LocalLinearModel model =
          RandomModel(d, num_classes, trial % 2 == 0 ? 1.0 : 30.0, &rng);
      const Vec x = rng.UniformVector(d, -2.0, 2.0);
      for (auto policy :
           {linalg::KernelPolicy::kSimd, linalg::KernelPolicy::kReference}) {
        linalg::SetKernelPolicy(policy);
        const Vec y = api::EvaluateLocalModel(model, x);
        EXPECT_TRUE(ModelExplains(model, x, y, 0.0))
            << "C=" << num_classes << " d=" << d;
        Vec nudged = y;
        nudged[trial % num_classes] =
            std::nextafter(nudged[trial % num_classes], 2.0);
        EXPECT_FALSE(ModelExplains(model, x, nudged, 0.0));
      }
      linalg::SetKernelPolicy(linalg::KernelPolicy::kSimd);
    }
  }
}

TEST(ModelExplainsTest, NanIsNeverAMatch) {
  // Weights of 1e308 overflow every logit at x = (10, 0): the softmax is
  // NaN (inf - inf), and such a model explains no answer at all.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  api::LocalLinearModel overflowing;
  overflowing.weights = linalg::Matrix(2, 3);
  for (size_t c = 0; c < 3; ++c) overflowing.weights(0, c) = 1e308;
  overflowing.bias = Vec(3, 0.0);
  const Vec x{10.0, 0.0};
  for (const Vec& y : {Vec{1.0 / 3, 1.0 / 3, 1.0 / 3}, Vec{1.0, 0.0, 0.0},
                       Vec{0.0, 0.0, 0.0}, Vec{nan, nan, nan}}) {
    EXPECT_FALSE(ModelExplains(overflowing, x, y, kTol));
    EXPECT_FALSE(ModelExplains(overflowing, x, y, 1.0));
  }
  // A finite model against a NaN answer, wholly or in one class.
  util::Rng rng(13);
  const api::LocalLinearModel finite = RandomModel(2, 3, 1.0, &rng);
  const Vec y = api::EvaluateLocalModel(finite, x);
  ASSERT_TRUE(ModelExplains(finite, x, y, kTol));
  EXPECT_FALSE(ModelExplains(finite, x, Vec{nan, nan, nan}, kTol));
  for (size_t k = 0; k < 3; ++k) {
    Vec partial = y;
    partial[k] = nan;
    EXPECT_FALSE(ModelExplains(finite, x, partial, 1.0));
  }
  // The screen may pass a NaN answer (its survivors need only contain
  // the exact matches, and there are none): it must not crash on one.
  RegionScreen screen(2);
  screen.Set(0, finite, y);
  screen.Set(1, overflowing, y);
  std::vector<size_t> survivors;
  screen.Collect(x, Vec{nan, nan, nan}, kTol, 2, &survivors);
  EXPECT_TRUE(std::is_sorted(survivors.begin(), survivors.end()));
}

}  // namespace
}  // namespace openapi::interpret
