// RegionScreen: a conservative log-odds screen in front of the session
// cache's exhaustive fallback scan.
//
// ## Why a screen exists
//
// When no region-index candidate validates, EndpointSession must still
// prove that NO cached region explains the API's answer (x0, y0) before
// it pays an extraction — the fallback that keeps the index
// decision-invisible. Evaluating every cached model (a softmax and two
// allocations each) made a true miss O(n) in full model evaluations:
// ~13 ms at 33k regions. The screen rejects almost all of them with one
// packed dot product each, and only its survivors pay the exact test.
//
// ## The identity
//
// Inside one locally linear region the log-odds of two classes are affine
// in x:  ln(y_a / y_b) = (W_a - W_b)·x + (b_a - b_b).  If a region's
// probabilities at x0 lie within τ′ of y0 for classes a and b, its
// log-odds at x0 lie in
//   [ln(y0_a - τ′) - ln(y0_b + τ′),  ln(y0_a + τ′) - ln(y0_b - τ′)],
// where τ′ is match_tol plus the softmax rounding term. This holds for
// ANY fixed pair (a, b), so each slot keeps one row: W_a - W_b and
// b_a - b_b for the top two classes the region predicts at a point it
// is known to contain (the top two only make the screen sharp). A class
// with y0_k <= τ′ leaves its side of the interval unbounded, so the slot
// passes — saturation needs no branch. Its limit: when every class of y0
// but one is <= τ′, the interval bounds only regions whose pair holds
// that class, and only from one side, so nearly every region passes to
// the exact check and a saturated miss costs about the unscreened scan.
//
// ## Layout and cost
//
// A true miss streams every cached slot's row, and between misses the
// rows go cold, so the screen's cost is mostly the bytes it reads; its
// branches cost little (survivors are rare and well predicted). Each
// slot costs 4(d+2) + 4 bytes: slots are
// grouped into fixed-size blocks, and each block is ONE contiguous
// float32 array of d+2 rows, column = slot — the d weight differences
// W_a - W_b, the bias difference b_a - b_b, and the magnitude M (below)
// rounded up to a float — beside a per-slot pair of uint16_t class
// indices. Screening a block is one linalg::MultiplyTransposedF32 pass
// over its first d+1 rows with [x0; 1] (a lane kernel whose kReference
// leg is bit-identical) into per-thread scratch, then one pass over the
// values, the M row and the pairs. Blocks hold ~64 KiB of rows and are
// never copied on growth (a doubling array would hold two copies at its
// peak).
//
// ## Why it never rejects a match
//
// Widening a float to a double is exact, and the screen accumulates in
// double in the predicate's row order (the d weights, then the bias), so
// the double-precision analysis holds for the stored rows. The computed
// value v differs from the exact predicate's computed logit difference
// by at most 2·γ(d+2)·M·max(1, |x0|∞), where γ(n) = n·u/(1 - n·u), u is
// the unit roundoff, and M is the L1 norm of the two weight columns and
// biases: each side is an inner product of length d+1 with recursive
// summation. Storing the differences as floats adds at most about
// 2⁻²⁴·M·max(1, |x0|∞) (float32's unit roundoff on each term; M also
// carries (d+2)·FLT_MIN so subnormal differences stay covered). The
// screen widens every interval by
//   (2(d+2)·ε + 2·2⁻²⁴)·M·max(1, |x0|∞)
// with ε = 2u — twice each bound — and each log endpoint by
// 4ε(1 + |ln|) for its own rounding. M is rounded UP to a float, and
// when it exceeds FLT_MAX it is stored as +inf, so its slack is infinite
// and the slot always survives (a difference past FLT_MAX is stored as
// an infinity, whose value may be ±inf or NaN). A NaN value passes.
// Only slots that pass go on to the exact 2-point predicate, in
// ascending slot order, so the first match — the decision — is the
// unscreened scan's. A vacated slot's stale row can only add a survivor,
// which the caller's occupancy check drops, so eviction leaves rows
// alone.
//
// ## Concurrency
//
// No locks of its own: like RegionIndex it is owned by EndpointSession
// and shares the cache lock (Collect under the reader lock, Set/Clear
// under the writer lock).

#ifndef OPENAPI_INTERPRET_REGION_SCREEN_H_
#define OPENAPI_INTERPRET_REGION_SCREEN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "api/plm.h"
#include "linalg/matrix.h"

namespace openapi::interpret {

using linalg::Vec;

/// The exact match predicate every cache lookup decides by: `model`'s
/// probabilities at x are within `tol` of y in the infinity norm.
bool ModelExplains(const api::LocalLinearModel& model, const Vec& x,
                   const Vec& y, double tol);

class RegionScreen {
 public:
  /// `dim` is the input dimensionality d of the screened models.
  explicit RegionScreen(size_t dim);

  /// Resident bytes one slot's screen state pins (row, magnitude, pair).
  static size_t BytesPerSlot(size_t dim) {
    return sizeof(float) * (dim + 2) + sizeof(ClassPair);
  }

  /// Writes slot's row from `model`, paired on the top two classes of `y`,
  /// a prediction at a point the region contains (any y keeps the screen
  /// conservative). At most 65536 classes.
  void Set(size_t slot, const api::LocalLinearModel& model, const Vec& y);

  /// Appends, in ascending order, every slot below `num_slots` whose row
  /// admits the answer (x0, y0) at tolerance `match_tol`: a superset of
  /// the slots whose model passes ModelExplains(model, x0, y0, match_tol).
  /// Every slot below `num_slots` must have been Set at least once.
  void Collect(const Vec& x0, const Vec& y0, double match_tol,
               size_t num_slots, std::vector<size_t>* survivors) const;

  /// Slots per block: the granularity rows are allocated and screened in.
  size_t block_slots() const { return block_slots_; }

  /// Drops every row.
  void Clear() {
    blocks_.clear();
    classes_.clear();
  }

 private:
  struct ClassPair {
    uint16_t a;
    uint16_t b;
  };

  size_t dim_;
  size_t block_slots_;
  // Block k holds slots [k·block_slots_, (k+1)·block_slots_): d+2 rows of
  // block_slots_ floats each, row-major (layout above).
  std::vector<std::vector<float>> blocks_;
  std::vector<ClassPair> classes_;
};

}  // namespace openapi::interpret

#endif  // OPENAPI_INTERPRET_REGION_SCREEN_H_
