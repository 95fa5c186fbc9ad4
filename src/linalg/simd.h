// Portable double-lane SIMD helpers, INTERNAL to linalg/.
//
// The matrix kernels vectorize by widening their innermost j
// (output-column) loop: N output elements advance together, each keeping
// its own accumulator chain, so the per-element accumulation order over
// the contraction index is exactly the scalar kernel's — the bit-parity
// contract the batch/single tests enforce. This header provides the lane
// types those kernels use and nothing else; no intrinsics or vector
// extensions appear outside linalg/ translation units.
//
// On GCC/Clang the lanes compile to native vector code through the
// generic vector extensions (SSE2/AVX/AVX-512 as the target allows, no
// per-ISA code here); elsewhere they fall back to a plain array the
// optimizer can still unroll. Loads and stores go through memcpy, so no
// alignment is assumed (Matrix rows are only aligned when the column
// count happens to be a multiple of the lane width) — the 64-byte-aligned
// Matrix buffer guarantees the FIRST row is aligned and lets the common
// power-of-two shapes run fully aligned.

#ifndef OPENAPI_LINALG_SIMD_H_
#define OPENAPI_LINALG_SIMD_H_

#include <cstddef>
#include <cstring>

namespace openapi::linalg::simd {

#if defined(__GNUC__) || defined(__clang__)
#define OPENAPI_SIMD_VECTOR_EXTENSIONS 1
#endif

/// Register type backing a width-N lane group. GCC requires a literal
/// operand for vector_size (a dependent N is silently dropped inside a
/// template), hence the explicit specializations.
template <std::size_t N>
struct LaneReg {
  struct Type {
    double lane[N];
  };
};

#if defined(OPENAPI_SIMD_VECTOR_EXTENSIONS)
// `aligned(8)` relaxes the types' default (N*8-byte) alignment so lane
// values can live at any spill slot; actual loads/stores below go through
// memcpy and carry no alignment assumption either.
template <>
struct LaneReg<4> {
  typedef double Type __attribute__((vector_size(32), aligned(8)));
};
template <>
struct LaneReg<8> {
  typedef double Type __attribute__((vector_size(64), aligned(8)));
};
/// The float32 counterparts, the source of LoadWidened's conversion.
template <std::size_t N>
struct FloatReg;
template <>
struct FloatReg<4> {
  typedef float Type __attribute__((vector_size(16), aligned(4)));
};
template <>
struct FloatReg<8> {
  typedef float Type __attribute__((vector_size(32), aligned(4)));
};
#endif

/// N doubles processed in lockstep. Supported widths: 4 and 8.
template <std::size_t N>
struct Lanes {
  static constexpr std::size_t kWidth = N;
  using Reg = typename LaneReg<N>::Type;

  Reg v;

  static Lanes Load(const double* p) {
    Lanes out;
    std::memcpy(&out.v, p, sizeof(out.v));
    return out;
  }

  /// N floats widened to doubles (exact: every float is a double).
  static Lanes LoadWidened(const float* p) {
    Lanes out;
#if defined(OPENAPI_SIMD_VECTOR_EXTENSIONS)
    typename FloatReg<N>::Type narrow;
    std::memcpy(&narrow, p, sizeof(narrow));
    out.v = __builtin_convertvector(narrow, Reg);
#else
    for (std::size_t i = 0; i < N; ++i) out.v.lane[i] = p[i];
#endif
    return out;
  }

  static Lanes Broadcast(double x) {
    Lanes out;
#if defined(OPENAPI_SIMD_VECTOR_EXTENSIONS)
    out.v = x - Reg{};  // splat: {x,x,...} with no per-lane loop
#else
    for (std::size_t i = 0; i < N; ++i) out.v.lane[i] = x;
#endif
    return out;
  }

  static Lanes Zero() { return Broadcast(0.0); }

  void Store(double* p) const { std::memcpy(p, &v, sizeof(v)); }

  double operator[](std::size_t i) const {
#if defined(OPENAPI_SIMD_VECTOR_EXTENSIONS)
    return v[i];
#else
    return v.lane[i];
#endif
  }

  void Set(std::size_t i, double x) {
#if defined(OPENAPI_SIMD_VECTOR_EXTENSIONS)
    v[i] = x;
#else
    v.lane[i] = x;
#endif
  }

  friend Lanes operator+(Lanes a, Lanes b) {
#if defined(OPENAPI_SIMD_VECTOR_EXTENSIONS)
    a.v = a.v + b.v;
#else
    for (std::size_t i = 0; i < N; ++i) a.v.lane[i] += b.v.lane[i];
#endif
    return a;
  }

  friend Lanes operator-(Lanes a, Lanes b) {
#if defined(OPENAPI_SIMD_VECTOR_EXTENSIONS)
    a.v = a.v - b.v;
#else
    for (std::size_t i = 0; i < N; ++i) a.v.lane[i] -= b.v.lane[i];
#endif
    return a;
  }

  friend Lanes operator*(Lanes a, Lanes b) {
#if defined(OPENAPI_SIMD_VECTOR_EXTENSIONS)
    a.v = a.v * b.v;
#else
    for (std::size_t i = 0; i < N; ++i) a.v.lane[i] *= b.v.lane[i];
#endif
    return a;
  }

  friend Lanes operator/(Lanes a, Lanes b) {
#if defined(OPENAPI_SIMD_VECTOR_EXTENSIONS)
    a.v = a.v / b.v;
#else
    for (std::size_t i = 0; i < N; ++i) a.v.lane[i] /= b.v.lane[i];
#endif
    return a;
  }

  Lanes& operator+=(Lanes b) {
    *this = *this + b;
    return *this;
  }
};

using D4 = Lanes<4>;
using D8 = Lanes<8>;

/// acc + a * b, element-wise. Written as the plain expression so the
/// compiler applies exactly the same FP contraction it applies to the
/// scalar kernels' `sum += a * b` — keeping the two paths bit-identical
/// whether or not FMA contraction is enabled.
template <std::size_t N>
inline Lanes<N> MulAdd(Lanes<N> a, Lanes<N> b, Lanes<N> acc) {
#if defined(OPENAPI_SIMD_VECTOR_EXTENSIONS)
  acc.v = acc.v + a.v * b.v;
  return acc;
#else
  for (std::size_t i = 0; i < N; ++i) {
    acc.v.lane[i] = acc.v.lane[i] + a.v.lane[i] * b.v.lane[i];
  }
  return acc;
#endif
}

}  // namespace openapi::linalg::simd

#endif  // OPENAPI_LINALG_SIMD_H_
