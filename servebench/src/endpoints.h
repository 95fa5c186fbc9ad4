// The benchmark's side of the serving boundary: the hidden models, the
// wrappers that time and count the `api` and `nn` layers from outside
// `src/`, and the in-memory span recorder they write to.
//
// The wrappers are always in place, traced or not, so the untraced run
// pays the same virtual hop and the decorator's row count is available
// to the accounting check in every run. Spans are recorded only while
// tracing is enabled.

#ifndef SERVEBENCH_ENDPOINTS_H_
#define SERVEBENCH_ENDPOINTS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "api/plm.h"
#include "api/prediction_api.h"
#include "bench_util.h"
#include "util/rng.h"

namespace servebench {

using openapi::linalg::Vec;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-thread span buffers, merged when the measured phase has ended.
class Tracer {
 public:
  static void SetEnabled(bool on);
  static bool enabled();
  /// The request the calling thread is serving; spans opened on this
  /// thread are tagged with it.
  static void SetRequest(uint64_t request);
  /// A fresh span id, unique across threads.
  static uint64_t NextId();
  /// Appends a span built by hand (replayed or generator spans).
  static void Record(const Span& span);
  /// Moves every recorded span out of every thread's buffer. Call only
  /// after the threads that recorded them have been joined.
  static std::vector<Span> Drain();

  /// Times one layer call on the calling thread; nests under the
  /// thread's innermost open scope.
  class Scope {
   public:
    explicit Scope(Layer layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    uint64_t id() const { return span_.id; }

   private:
    Span span_;
    bool active_ = false;
  };
};

/// Grid endpoint: [0,1]^3 x R^(d-3) cut into k x k x k cells, each its own
/// locally linear region whose dominant class cycles through the C
/// classes. Also the white-box oracle of itself. Cells are numbered layer
/// by layer along x[2]: cell = layer * k^2 + row * k + column. The models
/// of layer 0 (the first k^2 cells, which workloads import or store) are
/// built up front; those of the other layers are generated from (seed,
/// cell) when asked for, so the grid holds k^3 distinct regions without
/// keeping them in memory. Requires d >= 3.
class GridPlm : public openapi::api::Plm, public openapi::api::PlmOracle {
 public:
  GridPlm(size_t d, size_t num_classes, size_t k, uint64_t seed);

  size_t dim() const override { return d_; }
  size_t num_classes() const override { return num_classes_; }
  Vec Predict(const Vec& x) const override;

  uint64_t RegionId(const Vec& x) const override { return CellOf(x); }
  openapi::api::LocalLinearModel LocalModelAt(const Vec& x) const override {
    return ModelRef(CellOf(x));
  }

  /// Cells in layer 0.
  size_t layer_cells() const { return k_ * k_; }
  /// Cells in all k layers.
  size_t num_cells() const { return k_ * k_ * k_; }
  size_t CellOf(const Vec& x) const;
  openapi::api::LocalLinearModel CellModel(size_t cell) const {
    return ModelRef(cell);
  }
  Vec CellCenter(size_t cell) const;
  double CellHalfEdge() const { return 0.5 / static_cast<double>(k_); }
  /// A never-seen point well inside `cell` and inside the box an import
  /// certifies around its center (every coordinate within 0.4 half-edges).
  Vec PointInCell(size_t cell, openapi::util::Rng* rng) const;

 private:
  /// Valid until the calling thread asks for another generated cell.
  const openapi::api::LocalLinearModel& ModelRef(size_t cell) const;

  size_t d_, num_classes_, k_;
  uint64_t seed_;
  uint64_t id_ = 0;
  std::vector<openapi::api::LocalLinearModel> layer0_;
};

/// `nn` layer probe: forwards to the hidden model, counting rows and
/// timing each batch.
class TracedPlm : public openapi::api::Plm {
 public:
  explicit TracedPlm(const openapi::api::Plm* inner) : inner_(inner) {}

  size_t dim() const override { return inner_->dim(); }
  size_t num_classes() const override { return inner_->num_classes(); }
  Vec Predict(const Vec& x) const override;
  std::vector<Vec> PredictBatch(const std::vector<Vec>& xs) const override;

  uint64_t rows() const { return rows_.load(std::memory_order_relaxed); }

 private:
  const openapi::api::Plm* inner_;
  mutable std::atomic<uint64_t> rows_{0};
};

/// `api` layer probe: a PredictionApi decorator that forwards every
/// entry point to the endpoint it wraps, counting charged rows and
/// timing each call.
class TracedApi : public openapi::api::PredictionApi {
 public:
  explicit TracedApi(openapi::api::PredictionApi* inner) : inner_(inner) {}

  size_t dim() const override { return inner_->dim(); }
  size_t num_classes() const override { return inner_->num_classes(); }
  Vec Predict(const Vec& x) const override;
  openapi::Result<std::vector<Vec>> TryPredictBatch(
      const std::vector<Vec>& xs,
      uint64_t* rows_consumed = nullptr) const override;
  uint64_t ReserveBatch(size_t count) const override;
  std::vector<Vec> PredictBatchReserved(const std::vector<Vec>& xs,
                                        uint64_t first_ticket) const override;
  openapi::Result<std::vector<Vec>> TryPredictBatchReserved(
      const std::vector<Vec>& xs, uint64_t first_ticket) const override;
  uint64_t query_count() const override { return inner_->query_count(); }
  void ResetQueryCount() override { inner_->ResetQueryCount(); }
  void ResetNoiseStream() override { inner_->ResetNoiseStream(); }

  /// Rows charged through this decorator.
  uint64_t rows() const { return rows_.load(std::memory_order_relaxed); }
  uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }

 private:
  openapi::api::PredictionApi* inner_;
  mutable std::atomic<uint64_t> rows_{0};
  mutable std::atomic<uint64_t> calls_{0};
};

}  // namespace servebench

#endif  // SERVEBENCH_ENDPOINTS_H_
