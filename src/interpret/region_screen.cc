#include "interpret/region_screen.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "linalg/simd.h"
#include "linalg/vector_ops.h"
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
constexpr double kFloatMax = std::numeric_limits<float>::max();
constexpr double kFloatUnit = 0x1p-24;   // float32's unit roundoff u_f
constexpr double kDoubleUnit = 0x1p-53;  // double's unit roundoff u_d
// Added to every magnitude: the storage error of rows that round to
// subnormal floats, and a floor that keeps the slack out of the subnormal
// range (header, "Why it never rejects a match").
constexpr double kMagnitudePad = 0x1p-102;  // FLT_MIN / u_f

/// v as a float: rounded to nearest, ±inf past FLT_MAX (a NaN stays NaN).
float ToFloat(double v) {
  if (std::fabs(v) > kFloatMax) return v > 0.0 ? kFloatInf : -kFloatInf;
  return static_cast<float>(v);
}

/// The least float >= m; +inf past FLT_MAX or for a NaN.
float RoundUpToFloat(double m) {
  if (!(m <= kFloatMax)) return kFloatInf;
  float f = static_cast<float>(m);
  if (static_cast<double>(f) < m) f = std::nextafter(f, kFloatInf);
  return f;
}

/// The greatest float <= m; -inf below -FLT_MAX or for a NaN.
float RoundDownToFloat(double m) { return -RoundUpToFloat(-m); }

/// γ(n) = n·u / (1 - n·u): the relative error bound of an n-term inner
/// product summed recursively at unit roundoff u. +inf once n·u >= 1.
double Gamma(size_t n, double unit) {
  const double nu = static_cast<double>(n) * unit;
  return nu < 1.0 ? nu / (1.0 - nu) : std::numeric_limits<double>::infinity();
}

/// One query's screening constants (RegionScreen::Collect).
struct ScreenQuery {
  const float* lo;  // per class: the lower log bound, rounded down
  const float* hi;  // per class: the upper log bound, rounded up
  const float* x;   // x0 rounded to float, then 1 (the bias row's input)
  float g;          // slack = (M·g)·rho
  float rho;
};

/// One block's rows (d+1 value rows, then the magnitude row, `stride`
/// floats apart) and class pairs; slots [0, count) are screened.
struct ScreenBlock {
  const float* rows;
  size_t stride;
  size_t dim;
  const uint16_t* class_a;
  const uint16_t* class_b;
  size_t count;
};

constexpr size_t kTile = linalg::simd::F16::kWidth;

/// The kSimd leg: 16 slots per tile, all in float lanes. With
/// kTablesInRegisters (at most 2·kTile classes) the bounds are looked up
/// in registers; otherwise they are read slot by slot, which at C = 10
/// ran 1.2-2.4x slower (bench_kernels ScreenCollect/ScreenCollectCold,
/// 10^3..10^5 slots). Appends `first` + the index of each surviving slot.
template <bool kTablesInRegisters>
void CollectTiles(const ScreenBlock& block, const ScreenQuery& q,
                  size_t first, std::vector<size_t>* survivors) {
  using linalg::simd::F16;
  const F16 g = F16::Broadcast(q.g);
  const F16 rho = F16::Broadcast(q.rho);
  F16 lo0 = F16::Zero(), lo1 = lo0, hi0 = lo0, hi1 = lo0;
  if constexpr (kTablesInRegisters) {
    lo0 = F16::Load(q.lo);
    lo1 = F16::Load(q.lo + kTile);
    hi0 = F16::Load(q.hi);
    hi1 = F16::Load(q.hi + kTile);
  }
  const float* magnitude = block.rows + (block.dim + 1) * block.stride;
  // Whole tiles: the block's rows and pairs run to a tile boundary.
  for (size_t t = 0; t < block.count; t += kTile) {
    F16 v = F16::Zero();
    for (size_t r = 0; r <= block.dim; ++r) {
      v = linalg::simd::MulAdd(F16::Load(block.rows + r * block.stride + t),
                               F16::Broadcast(q.x[r]), v);
    }
    const F16 slack = F16::Load(magnitude + t) * g * rho;
    const uint16_t* a = block.class_a + t;
    const uint16_t* b = block.class_b + t;
    F16 lo_a = F16::Zero(), hi_b = lo_a, hi_a = lo_a, lo_b = lo_a;
    if constexpr (kTablesInRegisters) {
      lo_a = F16::Lookup(lo0, lo1, a);
      hi_b = F16::Lookup(hi0, hi1, b);
      hi_a = F16::Lookup(hi0, hi1, a);
      lo_b = F16::Lookup(lo0, lo1, b);
    } else {
      for (size_t i = 0; i < kTile; ++i) {
        lo_a.Set(i, q.lo[a[i]]);
        hi_b.Set(i, q.hi[b[i]]);
        hi_a.Set(i, q.hi[a[i]]);
        lo_b.Set(i, q.lo[b[i]]);
      }
    }
    const F16 lower = (lo_a - hi_b) - slack;
    const F16 upper = (hi_a - lo_b) + slack;
    // Two rejections, so a NaN anywhere passes.
    const F16::Mask rejected = (v < lower) | (v > upper);
    if (rejected.All()) continue;
    const size_t lanes = std::min(kTile, block.count - t);
    for (size_t i = 0; i < lanes; ++i) {
      if (!rejected[i]) survivors->push_back(first + t + i);
    }
  }
}

/// The kReference leg: CollectTiles' float operations in the same order,
/// slot by slot.
void CollectSlots(const ScreenBlock& block, const ScreenQuery& q,
                  size_t first, std::vector<size_t>* survivors) {
  const float* magnitude = block.rows + (block.dim + 1) * block.stride;
  for (size_t i = 0; i < block.count; ++i) {
    float v = 0.0f;
    for (size_t r = 0; r <= block.dim; ++r) {
      v = v + block.rows[r * block.stride + i] * q.x[r];
    }
    const float slack = magnitude[i] * q.g * q.rho;
    const size_t a = block.class_a[i];
    const size_t b = block.class_b[i];
    const float lower = (q.lo[a] - q.hi[b]) - slack;
    const float upper = (q.hi[a] - q.lo[b]) + slack;
    if (v < lower || v > upper) continue;
    survivors->push_back(first + i);
  }
}

}  // namespace

RegionScreen::RegionScreen(size_t dim)
    : dim_(dim),
      // ~64 KiB of rows per block, a multiple of the pass's 16-slot tile.
      block_slots_(std::max<size_t>(
          kTile, (64u << 10) / (sizeof(float) * (dim + 2)) / kTile * kTile)) {}

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
  // Whole blocks of pairs, so a tile never reads past the end.
  class_a_.resize(blocks_.size() * block_slots_);
  class_b_.resize(blocks_.size() * block_slots_);
  float* column = blocks_[slot / block_slots_].data() + slot % block_slots_;
  double magnitude = std::fabs(model.bias[a]) + std::fabs(model.bias[b]);
  for (size_t j = 0; j < dim_; ++j) {
    column[j * block_slots_] =
        ToFloat(model.weights(j, a) - model.weights(j, b));
    magnitude +=
        std::fabs(model.weights(j, a)) + std::fabs(model.weights(j, b));
  }
  column[dim_ * block_slots_] = ToFloat(model.bias[a] - model.bias[b]);
  column[(dim_ + 1) * block_slots_] = RoundUpToFloat(
      magnitude + static_cast<double>(dim_ + 2) * kMagnitudePad);
  class_a_[slot] = static_cast<uint16_t>(a);
  class_b_[slot] = static_cast<uint16_t>(b);
}

void RegionScreen::Collect(const Vec& x0, const Vec& y0, double match_tol,
                           size_t num_slots,
                           std::vector<size_t>* survivors) const {
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  constexpr double u = kFloatUnit;
  OPENAPI_CHECK_EQ(x0.size(), dim_);
  // An x0 with no float image passes every slot to the exact test.
  double norm = 1.0;  // max(1, |x0|∞)
  for (double v : x0) {
    if (!(std::fabs(v) <= kFloatMax)) {
      for (size_t slot = 0; slot < num_slots; ++slot) {
        survivors->push_back(slot);
      }
      return;
    }
    norm = std::max(norm, std::fabs(v));
  }
  const size_t num_classes = y0.size();
  // Tables of at least 2·kTile entries, so CollectTiles can hold small
  // ones in registers; the padding is never looked up.
  const size_t table_size = std::max(num_classes, 2 * kTile);
  thread_local std::vector<float> scratch;
  scratch.assign(2 * table_size + dim_ + 1, 0.0f);
  float* const lo = scratch.data();
  float* const hi = lo + table_size;
  float* const x = hi + table_size;
  // τ′: the tolerance, its comparison's rounding, and the softmax's.
  const double tau = match_tol * (1.0 + 4.0 * kEps) +
                     static_cast<double>(num_classes + 8) * kEps;
  for (size_t k = 0; k < num_classes; ++k) {
    const double ln_lo = y0[k] > tau
                             ? std::log(y0[k] - tau)
                             : -std::numeric_limits<double>::infinity();
    const double ln_hi = std::log(y0[k] + tau);
    // Widened for the log's own rounding, then rounded outward.
    lo[k] = RoundDownToFloat(ln_lo - 4.0 * kEps * (1.0 + std::fabs(ln_lo)));
    hi[k] = RoundUpToFloat(ln_hi + 4.0 * kEps * (1.0 + std::fabs(ln_hi)));
  }
  for (size_t j = 0; j < dim_; ++j) x[j] = static_cast<float>(x0[j]);
  x[dim_] = 1.0f;
  // slack = (M·g)·rho. g bounds every partial sum of the screened value
  // over M, so an infinite M·g marks a slot whose sums could overflow; rho
  // is the value's relative error bound κ, term by term as in the header,
  // with room for the slack's own two roundings.
  const size_t n = dim_ + 1;
  const double kappa = Gamma(n, u) * (1.0 + 4.0 * u)          // accumulation
                       + u                                      // x0 to float
                       + (u + 2.0 * kDoubleUnit) * (1.0 + u)    // storage
                       + Gamma(n, kDoubleUnit)                  // predicate
                       + 3.0 * u                                // thresholds
                       + 3.0 * u;                               // absolute
  const ScreenQuery query{
      lo, hi, x,
      RoundUpToFloat(norm * (1.0 + Gamma(n, u)) * (1.0 + 8.0 * u)),
      RoundUpToFloat(kappa * (1.0 + 4.0 * u))};
  const bool use_simd =
      linalg::GetKernelPolicy() == linalg::KernelPolicy::kSimd;
  for (size_t first = 0; first < num_slots; first += block_slots_) {
    const ScreenBlock block{blocks_[first / block_slots_].data(),
                            block_slots_,
                            dim_,
                            class_a_.data() + first,
                            class_b_.data() + first,
                            std::min(num_slots - first, block_slots_)};
    if (!use_simd) {
      CollectSlots(block, query, first, survivors);
    } else if (num_classes <= 2 * kTile) {
      CollectTiles<true>(block, query, first, survivors);
    } else {
      CollectTiles<false>(block, query, first, survivors);
    }
  }
}

}  // namespace openapi::interpret
