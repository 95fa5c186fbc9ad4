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
// Rows are stored feature-major: blocks of `(d+1) x block_slots`
// linalg::Matrix, column = slot. Screening a block is one
// MultiplyTransposed([x0; 1]) — the SIMD kernel whose kReference leg is
// bit-identical — so the values come out slot-contiguous with no
// dependent add chain per row. Blocks are fixed-size and never copied on
// growth (a doubling matrix would hold two copies at its peak).
//
// ## Why it never rejects a match
//
// The computed value v differs from the exact predicate's computed
// logit difference by at most 2·γ(d+2)·M·max(1, |x0|∞), where
// γ(n) = n·u/(1 - n·u), u is the unit roundoff, and M (stored per slot)
// is the L1 norm of the two weight columns and biases: each side is an
// inner product of length d+1 with recursive summation. The screen widens
// every interval by 2(d+2)·ε·M·max(1, |x0|∞) with ε = 2u (twice the
// bound), and each log endpoint by 4ε(1 + |ln|) for its own rounding.
// A NaN value passes. Only slots that pass go on to the exact 2-point
// predicate, in ascending slot order, so the first match — the decision
// — is the unscreened scan's. A vacated slot's stale row can only add a
// survivor, which the caller's occupancy check drops, so eviction leaves
// rows alone.
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
#include <utility>
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
    return sizeof(double) * (dim + 2) + sizeof(std::pair<uint32_t, uint32_t>);
  }

  /// Writes slot's row from `model`, paired on the top two classes of `y`,
  /// a prediction at a point the region contains (any y keeps the screen
  /// conservative).
  void Set(size_t slot, const api::LocalLinearModel& model, const Vec& y);

  /// Appends, in ascending order, every slot below `num_slots` whose row
  /// admits the answer (x0, y0) at tolerance `match_tol`: a superset of
  /// the slots whose model passes ModelExplains(model, x0, y0, match_tol).
  /// Every slot below `num_slots` must have been Set at least once.
  void Collect(const Vec& x0, const Vec& y0, double match_tol,
               size_t num_slots, std::vector<size_t>* survivors) const;

  /// Drops every row.
  void Clear() {
    blocks_.clear();
    magnitude_.clear();
    classes_.clear();
  }

 private:
  size_t dim_;
  size_t block_slots_;
  std::vector<linalg::Matrix> blocks_;
  Vec magnitude_;
  std::vector<std::pair<uint32_t, uint32_t>> classes_;
};

}  // namespace openapi::interpret

#endif  // OPENAPI_INTERPRET_REGION_SCREEN_H_
