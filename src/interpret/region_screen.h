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
// Each slot costs 4(d+2) + 4 bytes: slots are grouped into fixed-size
// blocks, and each block is ONE contiguous float32 array of d+2 rows,
// column = slot — the d weight differences W_a - W_b, the bias difference
// b_a - b_b, and the magnitude M (below) rounded up to a float — beside a
// per-slot pair of uint16_t class indices. Blocks hold ~64 KiB of rows
// and are never copied on growth (a doubling array would hold two copies
// at its peak).
//
// Collect makes ONE pass over 16-slot tiles, all in float32 lanes: it
// accumulates the tile's d+1 rows against x0 rounded to float (x_f, with
// x_f[d] = 1), looks up each slot's interval ends in per-query float
// tables of the log bounds per class, widens them by the slot's slack,
// and keeps a lane mask of rejections; only a tile with a surviving lane
// touches the survivor list. The tables are O(C) for any C up to 65536;
// with at most 32 classes each sits in two registers and a lookup is one
// lane permute, otherwise each lane reads its entries from memory. The
// pass streams the rows with a few float operations per slot, so a cold
// pass costs little more than a warm one. The kReference leg runs the
// same float operations slot by slot, so both legs return identical
// survivors.
//
// ## Why it never rejects a match
//
// Let u_f = 2⁻²⁴ and u_d = 2⁻⁵³ be float's and double's unit roundoffs,
// γ_f(n) and γ_d(n) their γ(n) = n·u/(1 - n·u), n = d + 1, X = max(1,
// |x0|∞), and M the L1 norm of the region's two weight columns and
// biases plus a pad of (d+2)·2⁻¹⁰², rounded up to a float. If the exact
// predicate accepts, its computed logit difference λ lies in the double
// interval above (τ′ and each log's own rounding included), and the
// per-class table entries are that interval's ends rounded outward to
// float. The screen rejects a slot only if its float value v falls
// outside the float thresholds widened by the slack S = κ·M·X, where κ
// bounds five terms, each as a multiple of M·X:
//   1. float accumulation of the d+1 terms: γ_f(n), times 1 + 4u_f for
//      the stored rows' and x_f's growth over M·X;
//   2. rounding x0 to float: u_f per term;
//   3. float storage of the rows: u_f, plus 2u_d for forming each
//      difference in double first;
//   4. the exact predicate's own double rounding of λ: γ_d(n);
//   5. the float arithmetic of the thresholds: lo[a] - hi[b] and the
//      slack's subtraction each round once, by at most u_f of their
//      result; that matters only where v is near the threshold, where
//      the threshold is within S of λ and so at most about M·X in
//      magnitude: 3u_f covers both.
// Plus absolute terms, u_f each: differences that round to subnormal
// floats (at most 2⁻¹⁵⁰ each, times |x_f|), products that underflow,
// and the predicate's own underflow; the pad makes M·u_f at least
// (d+2)·2⁻¹²⁶, which covers each of them. A subnormal x0 coordinate's
// absolute error 2⁻¹⁵⁰ is at most 2⁻¹⁵⁰·|D_j|·X, inside term 2. The
// slack is computed as (M·g)·ρ, with g ≥ X·(1 + γ_f(n))·(1 + 8u_f) and
// ρ ≥ κ·(1 + 4u_f), both rounded up; the pad keeps both products normal
// floats, so their own roundings lose at most u_f each, which ρ covers.
//
// Overflow: M·g bounds the magnitude of every partial sum of v, so while
// it is finite no float operation of the pass overflows and the bounds
// above hold; when it is +inf, the slack is +inf and the slot survives.
// M is +inf past FLT_MAX, and a weight difference past FLT_MAX is stored
// as an infinity, whose M is then +inf too. An x0 coordinate that is NaN
// or past FLT_MAX has no float image, so such a query passes every slot.
// A NaN value, threshold or slack passes (the test is written as two
// rejections). Only slots that pass go on to the exact 2-point predicate,
// in ascending slot order, so the first match — the decision — is the
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
    return sizeof(float) * (dim + 2) + 2 * sizeof(uint16_t);
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
    class_a_.clear();
    class_b_.clear();
  }

 private:
  size_t dim_;
  size_t block_slots_;
  // Block k holds slots [k·block_slots_, (k+1)·block_slots_): d+2 rows of
  // block_slots_ floats each, row-major (layout above).
  std::vector<std::vector<float>> blocks_;
  // Each slot's class pair (a, b), for every slot of every block.
  std::vector<uint16_t> class_a_;
  std::vector<uint16_t> class_b_;
};

}  // namespace openapi::interpret

#endif  // OPENAPI_INTERPRET_REGION_SCREEN_H_
