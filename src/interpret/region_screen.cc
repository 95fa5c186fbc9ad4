#include "interpret/region_screen.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/check.h"

namespace openapi::interpret {

bool ModelExplains(const api::LocalLinearModel& model, const Vec& x,
                   const Vec& y, double tol) {
  const size_t dim = model.weights.rows();
  const size_t num_classes = model.weights.cols();
  OPENAPI_CHECK_EQ(x.size(), dim);
  OPENAPI_CHECK_EQ(y.size(), num_classes);
  // api::EvaluateLocalModel's operation order (logits accumulated row by
  // row, then the bias, then SoftmaxInto), so the probabilities are
  // bit-identical to it — into stack scratch for the common class counts.
  constexpr size_t kStackClasses = 32;
  double stack[2 * kStackClasses];
  std::vector<double> heap;
  double* logits = stack;
  if (num_classes > kStackClasses) {
    heap.resize(2 * num_classes);
    logits = heap.data();
  }
  double* predicted = logits + num_classes;
  std::fill(logits, logits + num_classes, 0.0);
  for (size_t r = 0; r < dim; ++r) {
    const double* row = model.weights.RowPtr(r);
    const double xr = x[r];
    for (size_t c = 0; c < num_classes; ++c) logits[c] += row[c] * xr;
  }
  for (size_t c = 0; c < num_classes; ++c) logits[c] += model.bias[c];
  linalg::SoftmaxInto(logits, num_classes, predicted);
  for (size_t k = 0; k < num_classes; ++k) {
    // Negated so a NaN on either side (overflowed logits, a NaN answer)
    // is a mismatch, never a match.
    if (!(std::fabs(predicted[k] - y[k]) <= tol)) return false;
  }
  return true;
}

namespace {

constexpr float kFloatInf = std::numeric_limits<float>::infinity();

/// v as a float: rounded to nearest, ±inf past FLT_MAX (a NaN stays NaN).
float ToFloat(double v) {
  if (std::fabs(v) > std::numeric_limits<float>::max()) {
    return v > 0.0 ? kFloatInf : -kFloatInf;
  }
  return static_cast<float>(v);
}

/// The least float >= m; +inf past FLT_MAX or for a NaN.
float RoundUpToFloat(double m) {
  if (!(m <= std::numeric_limits<float>::max())) return kFloatInf;
  float f = static_cast<float>(m);
  if (static_cast<double>(f) < m) f = std::nextafter(f, kFloatInf);
  return f;
}

}  // namespace

RegionScreen::RegionScreen(size_t dim)
    : dim_(dim),
      // ~64 KiB of rows per block, a multiple of the kernel's 16 lanes.
      block_slots_(std::max<size_t>(
          16, (64u << 10) / (sizeof(float) * (dim + 2)) / 16 * 16)) {}

void RegionScreen::Set(size_t slot, const api::LocalLinearModel& model,
                       const Vec& y) {
  OPENAPI_CHECK_LE(y.size(),
                   size_t{std::numeric_limits<uint16_t>::max()} + 1);
  const size_t a = linalg::ArgMax(y);
  size_t b = a;
  for (size_t k = 0; k < y.size(); ++k) {
    if (k != a && (b == a || y[k] > y[b])) b = k;
  }
  while (slot >= blocks_.size() * block_slots_) {
    blocks_.emplace_back((dim_ + 2) * block_slots_, 0.0f);
  }
  classes_.resize(std::max(classes_.size(), slot + 1));
  float* column = blocks_[slot / block_slots_].data() + slot % block_slots_;
  double magnitude = std::fabs(model.bias[a]) + std::fabs(model.bias[b]);
  for (size_t j = 0; j < dim_; ++j) {
    column[j * block_slots_] =
        ToFloat(model.weights(j, a) - model.weights(j, b));
    magnitude +=
        std::fabs(model.weights(j, a)) + std::fabs(model.weights(j, b));
  }
  column[dim_ * block_slots_] = ToFloat(model.bias[a] - model.bias[b]);
  // The FLT_MIN term covers differences that round to a subnormal float.
  column[(dim_ + 1) * block_slots_] = RoundUpToFloat(
      magnitude +
      static_cast<double>(dim_ + 2) * std::numeric_limits<float>::min());
  classes_[slot] = {static_cast<uint16_t>(a), static_cast<uint16_t>(b)};
}

void RegionScreen::Collect(const Vec& x0, const Vec& y0, double match_tol,
                           size_t num_slots,
                           std::vector<size_t>* survivors) const {
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kFloatRoundoff = 0x1p-24;
  // τ′: the tolerance, its comparison's rounding, and the softmax's.
  const double tau = match_tol * (1.0 + 4.0 * kEps) +
                     static_cast<double>(y0.size() + 8) * kEps;
  Vec ln_lo(y0.size());
  Vec ln_hi(y0.size());
  for (size_t k = 0; k < y0.size(); ++k) {
    const double lo = y0[k] > tau ? std::log(y0[k] - tau) : -kInf;
    const double hi = std::log(y0[k] + tau);
    ln_lo[k] = lo - 4.0 * kEps * (1.0 + std::fabs(lo));
    ln_hi[k] = hi + 4.0 * kEps * (1.0 + std::fabs(hi));
  }
  Vec x(x0);
  x.push_back(1.0);
  // Accumulation (twice γ(d+2)) plus storage rounding (twice float32's).
  const double error =
      (2.0 * static_cast<double>(dim_ + 2) * kEps + 2.0 * kFloatRoundoff) *
      std::max(1.0, linalg::NormInf(x0));
  thread_local std::vector<double> values;
  values.resize(block_slots_);
  for (size_t first = 0; first < num_slots; first += block_slots_) {
    const float* block = blocks_[first / block_slots_].data();
    const size_t count = std::min(num_slots - first, block_slots_);
    linalg::MultiplyTransposedF32(block, dim_ + 1, block_slots_, count,
                                  x.data(), values.data());
    const float* magnitude = block + (dim_ + 1) * block_slots_;
    const ClassPair* classes = classes_.data() + first;
    for (size_t i = 0; i < count; ++i) {
      const double v = values[i];
      const double slack = error * static_cast<double>(magnitude[i]);
      const size_t a = classes[i].a;
      const size_t b = classes[i].b;
      // Written as two rejections so a NaN anywhere passes.
      if (v < ln_lo[a] - ln_hi[b] - slack || v > ln_hi[a] - ln_lo[b] + slack) {
        continue;
      }
      survivors->push_back(first + i);
    }
  }
}

}  // namespace openapi::interpret
