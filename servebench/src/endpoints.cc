#include "endpoints.h"

#include <algorithm>
#include <memory>
#include <mutex>

namespace servebench {

namespace api = openapi::api;

namespace {

std::atomic<bool> g_enabled{false};

struct ThreadBuffer {
  uint64_t thread_index = 0;
  uint64_t next_local = 0;
  uint64_t request = 0;
  std::vector<uint64_t> open;  // ids of the open scopes, innermost last
  std::vector<Span> spans;
};

std::mutex g_registry_mutex;
std::vector<std::unique_ptr<ThreadBuffer>>& Registry() {
  static auto* registry = new std::vector<std::unique_ptr<ThreadBuffer>>();
  return *registry;
}

// Buffers outlive their threads (the registry owns them), so a span
// recorded by a joined worker is still there when the phase drains.
ThreadBuffer& Local() {
  thread_local ThreadBuffer* buffer = [] {
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    auto& registry = Registry();
    registry.push_back(std::make_unique<ThreadBuffer>());
    registry.back()->thread_index = registry.size();
    return registry.back().get();
  }();
  return *buffer;
}

}  // namespace

void Tracer::SetEnabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Tracer::SetRequest(uint64_t request) { Local().request = request; }

uint64_t Tracer::NextId() {
  ThreadBuffer& local = Local();
  return (local.thread_index << 40) | ++local.next_local;
}

void Tracer::Record(const Span& span) { Local().spans.push_back(span); }

std::vector<Span> Tracer::Drain() {
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  std::vector<Span> all;
  for (auto& buffer : Registry()) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
    buffer->spans.shrink_to_fit();
  }
  return all;
}

Tracer::Scope::Scope(Layer layer) {
  if (!enabled()) return;
  ThreadBuffer& local = Local();
  active_ = true;
  span_.id = NextId();
  span_.parent = local.open.empty() ? 0 : local.open.back();
  span_.request = local.request;
  span_.layer = layer;
  local.open.push_back(span_.id);
  span_.start_ns = NowNs();
}

Tracer::Scope::~Scope() {
  if (!active_) return;
  span_.end_ns = NowNs();
  ThreadBuffer& local = Local();
  local.open.pop_back();
  local.spans.push_back(span_);
}

namespace {

api::LocalLinearModel RandomCellModel(size_t d, size_t num_classes,
                                      size_t cell, openapi::util::Rng* rng) {
  api::LocalLinearModel model;
  model.weights = openapi::linalg::Matrix(d, num_classes);
  for (size_t j = 0; j < d; ++j) {
    for (size_t c = 0; c < num_classes; ++c) {
      model.weights(j, c) = rng->Uniform(-0.5, 0.5);
    }
  }
  model.bias = rng->UniformVector(num_classes, -0.5, 0.5);
  model.bias[cell % num_classes] += 4.0;
  return model;
}

}  // namespace

GridPlm::GridPlm(size_t d, size_t num_classes, size_t k, uint64_t seed)
    : d_(d), num_classes_(num_classes), k_(k), seed_(seed) {
  // Ids tell grids apart in the per-thread model cache even when a new
  // grid reuses a destroyed one's address.
  static std::atomic<uint64_t> next_id{0};
  id_ = ++next_id;
  openapi::util::Rng rng(seed);
  layer0_.reserve(k * k);
  for (size_t cell = 0; cell < k * k; ++cell) {
    layer0_.push_back(RandomCellModel(d, num_classes, cell, &rng));
  }
}

const api::LocalLinearModel& GridPlm::ModelRef(size_t cell) const {
  if (cell < layer0_.size()) return layer0_[cell];
  // An extraction asks for the same cell many times in a row; one
  // generated model per thread serves those repeats.
  struct Generated {
    uint64_t grid = 0;
    size_t cell = 0;
    api::LocalLinearModel model;
  };
  thread_local Generated last;
  if (last.grid != id_ || last.cell != cell) {
    openapi::util::Rng rng(openapi::util::Rng::MixSeed(seed_, cell));
    last.model = RandomCellModel(d_, num_classes_, cell, &rng);
    last.grid = id_;
    last.cell = cell;
  }
  return last.model;
}

Vec GridPlm::Predict(const Vec& x) const {
  return api::EvaluateLocalModel(ModelRef(CellOf(x)), x);
}

size_t GridPlm::CellOf(const Vec& x) const {
  auto axis = [this](double v) {
    const double scaled = std::max(0.0, v * static_cast<double>(k_));
    return std::min(static_cast<size_t>(scaled), k_ - 1);
  };
  return (axis(x[2]) * k_ + axis(x[0])) * k_ + axis(x[1]);
}

Vec GridPlm::CellCenter(size_t cell) const {
  const double k = static_cast<double>(k_);
  const size_t in_layer = cell % (k_ * k_);
  Vec x(d_, 0.5);
  x[0] = (static_cast<double>(in_layer / k_) + 0.5) / k;
  x[1] = (static_cast<double>(in_layer % k_) + 0.5) / k;
  x[2] = (static_cast<double>(cell / (k_ * k_)) + 0.5) / k;
  return x;
}

Vec GridPlm::PointInCell(size_t cell, openapi::util::Rng* rng) const {
  Vec x = CellCenter(cell);
  const double reach = 0.4 * CellHalfEdge();
  for (double& v : x) v += rng->Uniform(-reach, reach);
  return x;
}

Vec TracedPlm::Predict(const Vec& x) const {
  Tracer::Scope scope(Layer::kNn);
  rows_.fetch_add(1, std::memory_order_relaxed);
  return inner_->Predict(x);
}

std::vector<Vec> TracedPlm::PredictBatch(const std::vector<Vec>& xs) const {
  Tracer::Scope scope(Layer::kNn);
  rows_.fetch_add(xs.size(), std::memory_order_relaxed);
  return inner_->PredictBatch(xs);
}

Vec TracedApi::Predict(const Vec& x) const {
  Tracer::Scope scope(Layer::kApi);
  rows_.fetch_add(1, std::memory_order_relaxed);
  calls_.fetch_add(1, std::memory_order_relaxed);
  return inner_->Predict(x);
}

openapi::Result<std::vector<Vec>> TracedApi::TryPredictBatch(
    const std::vector<Vec>& xs, uint64_t* rows_consumed) const {
  Tracer::Scope scope(Layer::kApi);
  uint64_t consumed = 0;
  auto result = inner_->TryPredictBatch(xs, &consumed);
  rows_.fetch_add(consumed, std::memory_order_relaxed);
  calls_.fetch_add(1, std::memory_order_relaxed);
  if (rows_consumed != nullptr) *rows_consumed = consumed;
  return result;
}

uint64_t TracedApi::ReserveBatch(size_t count) const {
  rows_.fetch_add(count, std::memory_order_relaxed);
  return inner_->ReserveBatch(count);
}

std::vector<Vec> TracedApi::PredictBatchReserved(
    const std::vector<Vec>& xs, uint64_t first_ticket) const {
  Tracer::Scope scope(Layer::kApi);
  calls_.fetch_add(1, std::memory_order_relaxed);
  return inner_->PredictBatchReserved(xs, first_ticket);
}

openapi::Result<std::vector<Vec>> TracedApi::TryPredictBatchReserved(
    const std::vector<Vec>& xs, uint64_t first_ticket) const {
  Tracer::Scope scope(Layer::kApi);
  calls_.fetch_add(1, std::memory_order_relaxed);
  return inner_->TryPredictBatchReserved(xs, first_ticket);
}

}  // namespace servebench
