// Portable SIMD lane helpers: double lanes for the linalg/ kernels, float
// lanes for interpret/region_screen.cc's fused screen pass.
//
// The matrix kernels vectorize by widening their innermost j
// (output-column) loop: N output elements advance together, each keeping
// its own accumulator chain, so the per-element accumulation order over
// the contraction index is exactly the scalar kernel's — the bit-parity
// contract the batch/single tests enforce. The screen pass does the same
// over 16 cache slots at a time. This header provides the lane types
// those two use and nothing else; no intrinsics or vector extensions
// appear outside it, and it is included by no other module.
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
#include <cstdint>
#include <cstring>

namespace openapi::linalg::simd {

#if defined(__GNUC__) || defined(__clang__)
#define OPENAPI_SIMD_VECTOR_EXTENSIONS 1
#endif

/// Register types backing a lane group of N values of type T: `Type`
/// holds the values, `Int` one integer of the same width per lane (a
/// lane comparison yields all ones or all zeros in it). GCC requires a
/// literal operand for vector_size (a dependent N is silently dropped
/// inside a template), hence the explicit specializations.
template <typename T, std::size_t N>
struct LaneReg {
  struct Type {
    T lane[N];
  };
  struct Int {
    std::int64_t lane[N];
  };
};

#if defined(OPENAPI_SIMD_VECTOR_EXTENSIONS)
// `aligned(sizeof(T))` relaxes the types' default (full-width) alignment
// so lane values can live at any spill slot; actual loads/stores below go
// through memcpy and carry no alignment assumption either.
template <>
struct LaneReg<double, 4> {
  typedef double Type __attribute__((vector_size(32), aligned(8)));
  typedef std::int64_t Int __attribute__((vector_size(32), aligned(8)));
};
template <>
struct LaneReg<double, 8> {
  typedef double Type __attribute__((vector_size(64), aligned(8)));
  typedef std::int64_t Int __attribute__((vector_size(64), aligned(8)));
};
template <>
struct LaneReg<float, 16> {
  typedef float Type __attribute__((vector_size(64), aligned(4)));
  typedef std::int32_t Int __attribute__((vector_size(64), aligned(4)));
  /// Lookup's 16-bit lane indices.
  typedef std::uint16_t Index __attribute__((vector_size(32), aligned(2)));
};
#endif

/// One flag per lane, from a lane comparison: set where it held.
template <typename T, std::size_t N>
struct LaneMask {
  typename LaneReg<T, N>::Int m;

  friend LaneMask operator|(LaneMask a, LaneMask b) {
#if defined(OPENAPI_SIMD_VECTOR_EXTENSIONS)
    a.m = a.m | b.m;
#else
    for (std::size_t i = 0; i < N; ++i) a.m.lane[i] |= b.m.lane[i];
#endif
    return a;
  }

  /// Whether every lane is set.
  bool All() const {
#if defined(OPENAPI_SIMD_VECTOR_EXTENSIONS)
    // AND the lanes' bits together a 64-bit word at a time: set lanes are
    // all ones, so the AND is all ones exactly when every lane is set.
    std::uint64_t words[sizeof(m) / sizeof(std::uint64_t)];
    std::memcpy(words, &m, sizeof(m));
    std::uint64_t all = ~std::uint64_t{0};
    for (std::uint64_t w : words) all &= w;
    return all == ~std::uint64_t{0};
#else
    for (std::size_t i = 0; i < N; ++i) {
      if (!m.lane[i]) return false;
    }
    return true;
#endif
  }

  bool operator[](std::size_t i) const {
#if defined(OPENAPI_SIMD_VECTOR_EXTENSIONS)
    return m[i] != 0;
#else
    return m.lane[i] != 0;
#endif
  }
};

/// N values of type T processed in lockstep. Supported: 4 or 8 doubles,
/// 16 floats.
template <typename T, std::size_t N>
struct Lanes {
  static constexpr std::size_t kWidth = N;
  using Reg = typename LaneReg<T, N>::Type;
  using Mask = LaneMask<T, N>;

  Reg v;

  static Lanes Load(const T* p) {
    Lanes out;
    std::memcpy(&out.v, p, sizeof(out.v));
    return out;
  }

  static Lanes Broadcast(T x) {
    Lanes out;
#if defined(OPENAPI_SIMD_VECTOR_EXTENSIONS)
    out.v = x - Reg{};  // splat: {x,x,...} with no per-lane loop
#else
    for (std::size_t i = 0; i < N; ++i) out.v.lane[i] = x;
#endif
    return out;
  }

  static Lanes Zero() { return Broadcast(T{0}); }

  /// Lane i gets entry idx[i] mod 2N of the 2N-entry table t0 ‖ t1: a
  /// table lookup without a memory access per lane (16-float lanes only).
  static Lanes Lookup(Lanes t0, Lanes t1, const std::uint16_t* idx) {
    Lanes out;
#if defined(OPENAPI_SIMD_VECTOR_EXTENSIONS) && !defined(__clang__)
    typename LaneReg<T, N>::Index narrow;
    std::memcpy(&narrow, idx, sizeof(narrow));
    out.v = __builtin_shuffle(
        t0.v, t1.v,
        __builtin_convertvector(narrow, typename LaneReg<T, N>::Int));
#else
    for (std::size_t i = 0; i < N; ++i) {
      const std::size_t k = idx[i] % (2 * N);
      out.Set(i, k < N ? t0[k] : t1[k - N]);
    }
#endif
    return out;
  }

  void Store(T* p) const { std::memcpy(p, &v, sizeof(v)); }

  T operator[](std::size_t i) const {
#if defined(OPENAPI_SIMD_VECTOR_EXTENSIONS)
    return v[i];
#else
    return v.lane[i];
#endif
  }

  void Set(std::size_t i, T x) {
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

  /// Lanes where a < b (false wherever either is NaN), and a > b.
  friend Mask operator<(Lanes a, Lanes b) {
    Mask out;
#if defined(OPENAPI_SIMD_VECTOR_EXTENSIONS)
    out.m = a.v < b.v;
#else
    for (std::size_t i = 0; i < N; ++i) {
      out.m.lane[i] = a.v.lane[i] < b.v.lane[i] ? -1 : 0;
    }
#endif
    return out;
  }

  friend Mask operator>(Lanes a, Lanes b) { return b < a; }
};

using D4 = Lanes<double, 4>;
using D8 = Lanes<double, 8>;
using F16 = Lanes<float, 16>;

/// acc + a * b, element-wise. Written as the plain expression so the
/// compiler applies exactly the same FP contraction it applies to the
/// scalar kernels' `sum += a * b` — keeping the two paths bit-identical
/// whether or not FMA contraction is enabled.
template <typename T, std::size_t N>
inline Lanes<T, N> MulAdd(Lanes<T, N> a, Lanes<T, N> b, Lanes<T, N> acc) {
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
