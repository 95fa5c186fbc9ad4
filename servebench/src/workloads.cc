#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <atomic>
#include <filesystem>
#include <mutex>
#include <numeric>
#include <thread>

#include "api/ground_truth.h"
#include "endpoints.h"
#include "interpret/decision_features.h"
#include "linalg/qr.h"
#include "nn/plnn.h"
#include "store/region_store.h"

namespace servebench {

namespace api = openapi::api;
namespace interpret = openapi::interpret;
namespace store = openapi::store;
using openapi::util::Rng;

namespace {

// The hidden models are part of the system under test, not of the
// traffic: they stay fixed across seeds.
constexpr uint64_t kModelSeed = 20260611;

using Session = std::shared_ptr<interpret::EndpointSession>;

/// First error wins; later ones only bump the count.
class ErrorSink {
 public:
  void Add(const std::string& message) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (first_.empty()) first_ = message;
    ++count_;
  }
  bool empty() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return count_ == 0;
  }
  std::string Describe() const {
    std::lock_guard<std::mutex> lock(mutex_);
    if (count_ <= 1) return first_;
    return first_ + " (and " + std::to_string(count_ - 1) + " more)";
  }

 private:
  mutable std::mutex mutex_;
  std::string first_;
  size_t count_ = 0;
};

// Busy-wait hint: polls shared memory without entering the kernel.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "servebench: set-up failed: %s\n", message.c_str());
  std::exit(3);
}

}  // namespace

const char* OutcomeName(CacheOutcome outcome) {
  switch (outcome) {
    case CacheOutcome::kBypass: return "bypass";
    case CacheOutcome::kPointMemo: return "memo";
    case CacheOutcome::kMemoryHit: return "memhit";
    case CacheOutcome::kDiskHit: return "diskhit";
    case CacheOutcome::kMiss: return "miss";
    case CacheOutcome::kEvictedRefetch: return "evicted_refetch";
    case CacheOutcome::kStaleRefetch: return "stale_refetch";
  }
  return "?";
}

namespace {

/// max |dc - truth| relative to the truth's scale.
double DcError(const Vec& dc, const Vec& truth) {
  if (dc.size() != truth.size()) return INFINITY;
  double worst = 0.0, scale = 1.0;
  for (size_t j = 0; j < dc.size(); ++j) {
    worst = std::max(worst, std::fabs(dc[j] - truth[j]));
    scale = std::max(scale, std::fabs(truth[j]));
  }
  return worst / scale;
}
constexpr double kDcTolerance = 1e-6;

bool ModelMatches(const api::LocalLinearModel& model, const Vec& x,
                  const Vec& y) {
  const Vec predicted = api::EvaluateLocalModel(model, x);
  for (size_t k = 0; k < y.size(); ++k) {
    if (std::fabs(predicted[k] - y[k]) > 1e-9) return false;
  }
  return true;
}

EngineStats CounterDelta(const EngineStats& after, const EngineStats& before) {
  EngineStats d;
  d.requests = after.requests - before.requests;
  d.point_memo_hits = after.point_memo_hits - before.point_memo_hits;
  d.cache_hits = after.cache_hits - before.cache_hits;
  d.disk_hits = after.disk_hits - before.disk_hits;
  d.cache_misses = after.cache_misses - before.cache_misses;
  d.evictions = after.evictions - before.evictions;
  d.failures = after.failures - before.failures;
  d.queries = after.queries - before.queries;
  d.store_appends = after.store_appends - before.store_appends;
  return d;
}

}  // namespace

double QrFactorMicros(size_t d) {
  Rng rng(kModelSeed);
  const Vec x0 = rng.UniformVector(d, 0.05, 0.95);
  const auto probes = interpret::SampleHypercube(x0, 1e-3, d + 1, &rng);
  const openapi::linalg::Matrix a =
      interpret::BuildCoefficientMatrix(x0, probes);
  std::vector<double> micros;
  for (int rep = 0; rep < 201; ++rep) {
    const int64_t t0 = NowNs();
    auto qr = openapi::linalg::QrDecomposition::Factor(a);
    const int64_t t1 = NowNs();
    if (!qr.ok()) return 0.0;
    micros.push_back(static_cast<double>(t1 - t0) / 1e3);
  }
  return Percentile(micros, 0.5).value;
}

namespace {

/// The endpoint stack every workload serves through:
/// model -> TracedPlm (nn) -> PredictionApi -> TracedApi (api) -> engine.
struct Stack {
  std::unique_ptr<TracedPlm> plm;
  std::unique_ptr<api::PredictionApi> endpoint;
  std::unique_ptr<TracedApi> api;
  std::unique_ptr<interpret::InterpretationEngine> engine;

  explicit Stack(const api::Plm* model) {
    plm = std::make_unique<TracedPlm>(model);
    endpoint = std::make_unique<api::PredictionApi>(plm.get());
    api = std::make_unique<TracedApi>(endpoint.get());
    interpret::EngineConfig config;
    // Sessions are driven synchronously by the benchmark's own threads;
    // the engine's pool only serves async entry points, which no
    // workload uses.
    config.num_threads = 1;
    engine = std::make_unique<interpret::InterpretationEngine>(config);
  }

  struct Counters {
    uint64_t endpoint_queries, decorator_rows, api_calls, nn_rows;
    EngineStats stats;
  };
  Counters Snapshot() const {
    return {endpoint->query_count(), api->rows(), api->calls(), plm->rows(),
            engine->stats()};
  }
  void FillDelta(const Counters& before, PhaseResult* out) const {
    const Counters after = Snapshot();
    out->endpoint_queries = after.endpoint_queries - before.endpoint_queries;
    out->decorator_rows = after.decorator_rows - before.decorator_rows;
    out->api_calls = after.api_calls - before.api_calls;
    out->nn_rows = after.nn_rows - before.nn_rows;
    out->stats = CounterDelta(after.stats, before.stats);
  }
};

/// Serves one request on the calling thread, timing it and (when tracing)
/// opening its root span, whose id lands in *root_span.
interpret::EngineResponse ServeTimed(const interpret::EndpointSession& session,
                                     const Vec& x0, size_t c, uint64_t seed,
                                     uint64_t index, RequestRecord* record,
                                     uint64_t* root_span = nullptr) {
  Tracer::SetRequest(index + 1);
  interpret::EngineRequest request;
  request.x0 = x0;
  request.c = c;
  const int64_t t0 = NowNs();
  interpret::EngineResponse response = [&] {
    Tracer::Scope root(Layer::kInterpret);
    if (root_span != nullptr) *root_span = root.id();
    return session.Interpret(request, seed, index);
  }();
  const int64_t t1 = NowNs();
  record->index = index;
  record->outcome = response.cache_outcome;
  record->ok = response.result.ok();
  record->queries = static_cast<uint32_t>(response.queries);
  record->iterations = static_cast<uint16_t>(response.shrink_iterations);
  record->latency_ms = static_cast<float>(static_cast<double>(t1 - t0) / 1e6);
  return response;
}

/// Relative D_c error of one answer against white-box ground truth. A
/// request that returned an error is itself a check failure.
double AnswerError(const interpret::EngineResponse& response,
                   const api::LocalLinearModel& truth, size_t c,
                   uint64_t index, ErrorSink* errors) {
  if (!response.result.ok()) {
    errors->Add("request " + std::to_string(index) + " failed: " +
                response.result.status().ToString());
    return 0.0;
  }
  return DcError(response.result->dc,
                 api::GroundTruthDecisionFeatures(truth, c));
}

void RequireExact(double error, const interpret::EngineResponse& response,
                  uint64_t index, ErrorSink* errors) {
  if (error <= kDcTolerance) return;
  errors->Add("request " + std::to_string(index) + " (" +
              OutcomeName(response.cache_outcome) + ", " +
              std::to_string(response.shrink_iterations) +
              " shrink iterations): decision features differ from ground "
              "truth by " + std::to_string(error));
}

double CheckAnswer(const interpret::EngineResponse& response,
                   const api::LocalLinearModel& truth, size_t c,
                   uint64_t index, ErrorSink* errors) {
  const double error = AnswerError(response, truth, c, index, errors);
  RequireExact(error, response, index, errors);
  return error;
}

void CheckOutcome(CacheOutcome got, std::initializer_list<CacheOutcome> want,
                  uint64_t index, ErrorSink* errors) {
  for (CacheOutcome w : want) {
    if (got == w) return;
  }
  errors->Add("request " + std::to_string(index) + " served as " +
              OutcomeName(got) + ", which its generated kind rules out");
}

// ---------------------------------------------------------------------------
// audit_cold
// ---------------------------------------------------------------------------

class AuditCold : public Workload {
 public:
  static constexpr size_t kDim = 64;
  static constexpr size_t kClasses = 10;
  static constexpr size_t kClients = 3;
  static constexpr size_t kInstancesPerSession = 32;

  explicit AuditCold(uint64_t seed) : seed_(seed) {}

  WorkloadInfo info() const override {
    return {"audit_cold", "closed loop, 3 clients", kDim, kClasses};
  }

  void Setup() override {
    Rng rng(kModelSeed);
    model_ = std::make_unique<openapi::nn::Plnn>(
        std::vector<size_t>{kDim, 2 * kDim, kDim, kClasses}, &rng);
    stack_ = std::make_unique<Stack>(model_.get());
    // Lazy set-up the first measured requests would otherwise pay: the
    // engine's pooled solver workspace and its first-touch buffers. The
    // warm-up points are fixed, so set-up does the same work every run.
    Session warm = stack_->engine->OpenSession(*stack_->api);
    for (size_t i = 0; i < kClients; ++i) {
      interpret::EngineRequest request;
      request.x0 = rng.UniformVector(kDim, 0.05, 0.95);
      if (!warm->Interpret(request, kModelSeed, i).result.ok()) {
        Die("audit_cold warm-up request failed");
      }
    }
  }

  void Teardown() override {
    stack_.reset();
    model_.reset();
  }

  size_t replay_prefix() const override { return 16 * kClasses; }

  PhaseResult Measure(double seconds, std::string* error) override {
    PhaseResult out;
    out.dim = kDim;
    const Stack::Counters before = stack_->Snapshot();
    ErrorSink errors;
    std::atomic<uint64_t> next{0};
    std::mutex merge_mutex;
    out.records.reserve(static_cast<size_t>(seconds * 30000));
    double cache_bytes_sum = 0.0;
    size_t sessions = 0;
    const int64_t start = NowNs();
    const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
    int64_t last_finish = start;
    std::vector<std::thread> clients;
    for (size_t t = 0; t < kClients; ++t) {
      clients.emplace_back([&] {
        std::vector<RequestRecord> records;
        double max_error = 0.0, bytes = 0.0;
        size_t opened = 0, served = 0;
        Session session;
        auto retire = [&] {
          if (session == nullptr) return;
          bytes += static_cast<double>(session->stats().cache_bytes);
          session.reset();
        };
        while (NowNs() < end) {
          if (served++ % kInstancesPerSession == 0) {
            retire();
            session = stack_->engine->OpenSession(*stack_->api);
            ++opened;
          }
          records.clear();
          ServeInstance(*session, next.fetch_add(1), &records, &max_error,
                        &errors);
          // Appending per instance keeps one copy of the records, so the
          // benchmark's own memory stays small next to the engine's.
          std::lock_guard<std::mutex> lock(merge_mutex);
          out.records.insert(out.records.end(), records.begin(),
                             records.end());
        }
        retire();
        const int64_t finish = NowNs();
        std::lock_guard<std::mutex> lock(merge_mutex);
        out.max_dc_error = std::max(out.max_dc_error, max_error);
        cache_bytes_sum += bytes;
        sessions += opened;
        last_finish = std::max(last_finish, finish);
      });
    }
    for (auto& client : clients) client.join();
    out.elapsed_s = static_cast<double>(last_finish - start) / 1e9;
    out.attempted = out.records.size();
    out.checked = out.records.size();
    for (const auto& r : out.records) out.failed += r.ok ? 0 : 1;
    out.cache_bytes = sessions > 0 ? cache_bytes_sum / sessions : 0.0;
    stack_->FillDelta(before, &out);
    if (!errors.empty()) *error = errors.Describe();
    return out;
  }

  std::vector<RequestRecord> Replay(size_t count,
                                    std::string* error) override {
    ErrorSink errors;
    std::vector<RequestRecord> records;
    double max_error = 0.0;
    Session session = stack_->engine->OpenSession(*stack_->api);
    for (uint64_t k = 0; k * kClasses < count; ++k) {
      ServeInstance(*session, k, &records, &max_error, &errors);
    }
    if (!errors.empty()) *error = errors.Describe();
    return records;
  }

 private:
  Vec Instance(uint64_t k) const {
    Rng rng(Rng::MixSeed(seed_, k));
    return rng.UniformVector(kDim, 0.05, 0.95);
  }

  // Whole-instance assignment: every class of instance k, in order, on
  // one session — one extraction, then C-1 point-memo hits.
  //
  // Known defect: near a region boundary the solver's consistency test
  // (residual <= tol * (1 + |rhs|), with a tol that does not shrink with
  // the hypercube) can accept a final probe set that straddles the
  // boundary; the extracted model is then wrong and the point memo serves
  // it to the instance's other classes. Every wrong answer fails the run;
  // the message says whether a final probe left x0's ReLU region.
  void ServeInstance(const interpret::EndpointSession& session, uint64_t k,
                     std::vector<RequestRecord>* records, double* max_error,
                     ErrorSink* errors) const {
    const Vec x0 = Instance(k);
    const api::LocalLinearModel truth = model_->LocalModelAt(x0);
    for (size_t c = 0; c < kClasses; ++c) {
      const uint64_t index = k * kClasses + c;
      RequestRecord record;
      auto response = ServeTimed(session, x0, c, seed_, index, &record);
      // Two audited instances sharing one ReLU region could turn the
      // first request into a RAM hit; anything else is a defect.
      if (c == 0) {
        CheckOutcome(record.outcome,
                     {CacheOutcome::kMiss, CacheOutcome::kMemoryHit}, index,
                     errors);
      } else {
        CheckOutcome(record.outcome, {CacheOutcome::kPointMemo}, index,
                     errors);
      }
      const double error = AnswerError(response, truth, c, index, errors);
      if (error > kDcTolerance && c == 0 && response.result.ok() &&
          ProbesLeaveRegion(x0, response.result->probes)) {
        errors->Add("request " + std::to_string(index) +
                    ": KNOWN DEFECT, the solver accepted a final probe set "
                    "straddling a ReLU region boundary (decision features "
                    "differ from ground truth by " + std::to_string(error) +
                    ")");
      } else {
        RequireExact(error, response, index, errors);
      }
      *max_error = std::max(*max_error, error);
      records->push_back(record);
    }
  }

  bool ProbesLeaveRegion(const Vec& x0, const std::vector<Vec>& probes) const {
    const uint64_t region = model_->RegionId(x0);
    for (const Vec& probe : probes) {
      if (model_->RegionId(probe) != region) return true;
    }
    return false;
  }

  uint64_t seed_;
  std::unique_ptr<openapi::nn::Plnn> model_;
  std::unique_ptr<Stack> stack_;
};

// ---------------------------------------------------------------------------
// Grid workloads: shared cell split and point generation.
// ---------------------------------------------------------------------------

/// Splits a k x k x k grid's cells into a served set and a never-served
/// pool. The served cells (imported or stored; ranked for Zipf) are the
/// first `served_count` cells of layer 0 in a seeded order. The
/// never-served pool is layers 1..k-1, each visited once: layer after
/// layer, in the same seeded order within a layer. That is k^3 - k^2
/// cells (10^7 at k = 220), far more than any run can draw.
struct CellSplit {
  std::vector<uint32_t> served;  // rank -> cell
  std::vector<uint32_t> order;   // seeded permutation of layer 0
  size_t fresh_pool = 0;

  CellSplit(size_t k, size_t served_count, uint64_t seed)
      : order(k * k), fresh_pool(k * k * (k - 1)) {
    std::iota(order.begin(), order.end(), 0u);
    Rng rng(seed);
    rng.Shuffle(&order);
    served.assign(order.begin(), order.begin() + served_count);
  }

  /// The i-th never-served cell, i < fresh_pool.
  uint32_t Fresh(size_t i) const {
    const size_t layer_cells = order.size();
    return static_cast<uint32_t>(layer_cells * (1 + i / layer_cells) +
                                 order[i % layer_cells]);
  }
};

/// Sequential generator of grid requests: kind, cell, class and point of
/// request i are a function of (seed, i) alone, given the same order.
/// Exactly one request in every block of `fresh_every` goes to a
/// never-served cell, at a seeded place in the block, so every run of a
/// given length meets the same share of misses.
class GridTraffic {
 public:
  struct Request {
    uint32_t cell = 0;
    uint8_t c = 0;
    bool fresh = false;
  };

  GridTraffic(const CellSplit* split, double zipf_s, size_t fresh_every,
              size_t num_classes, uint64_t seed)
      : split_(split), zipf_(split->served.size(), zipf_s),
        fresh_every_(fresh_every), num_classes_(num_classes),
        rng_(Rng::MixSeed(seed, 2)) {}

  /// False once the never-served pool is exhausted.
  bool Next(Request* request) {
    if (served_ % fresh_every_ == 0) fresh_slot_ = rng_.Index(fresh_every_);
    request->fresh = served_++ % fresh_every_ == fresh_slot_;
    if (request->fresh) {
      if (next_fresh_ >= split_->fresh_pool) return false;
      request->cell = split_->Fresh(next_fresh_++);
    } else {
      request->cell = split_->served[zipf_.Sample(&rng_)];
    }
    request->c = static_cast<uint8_t>(rng_.Index(num_classes_));
    return true;
  }

 private:
  const CellSplit* split_;
  ZipfSampler zipf_;
  size_t fresh_every_;
  size_t num_classes_;
  Rng rng_;
  size_t served_ = 0;
  size_t fresh_slot_ = 0;
  size_t next_fresh_ = 0;
};

Vec PointFor(const GridPlm& grid, uint32_t cell, uint64_t seed,
             uint64_t index) {
  Rng rng(Rng::MixSeed(seed ^ 0x706f696e74ULL, index));
  return grid.PointInCell(cell, &rng);
}

/// Serves the first `count` requests of a grid stream on the calling
/// thread: the repeatability reference both grid workloads compare with.
std::vector<RequestRecord> ReplayGrid(
    const interpret::EndpointSession& session, const GridPlm& grid,
    const CellSplit* split, double zipf_s, size_t fresh_every, uint64_t seed,
    size_t count, std::string* error) {
  ErrorSink errors;
  GridTraffic traffic(split, zipf_s, fresh_every, grid.num_classes(), seed);
  std::vector<RequestRecord> records;
  for (size_t i = 0; i < count; ++i) {
    GridTraffic::Request request;
    if (!traffic.Next(&request)) break;
    const Vec x0 = PointFor(grid, request.cell, seed, i);
    RequestRecord record;
    auto response = ServeTimed(session, x0, request.c, seed, i, &record);
    CheckAnswer(response, grid.CellModel(request.cell), request.c, i,
                &errors);
    records.push_back(record);
  }
  if (!errors.empty()) *error = errors.Describe();
  return records;
}

// ---------------------------------------------------------------------------
// lookup_zipf
// ---------------------------------------------------------------------------

class LookupZipf : public Workload {
 public:
  static constexpr size_t kDim = 8;
  static constexpr size_t kClasses = 10;
  static constexpr size_t kGrid = 183;  // 33489 cells per layer
  // About a tenth of the worker's capacity on this mix (interp_per_s:
  // 18k-41k/s on a 4-vCPU x86-64 VM, with how busy its host was). That is not idle: a miss's O(n) fallback scan
  // takes ~10 ms, and the ~30 requests that arrive meanwhile queue behind
  // it. A higher rate makes one miss's queue hold the next miss as well,
  // and the tail then jumps with how the misses happen to chain.
  static constexpr double kRate = 3000.0;
  static constexpr size_t kMissEvery = 400;  // 0.25% true misses
  static constexpr double kZipfS = 1.0;
  // One server. Two, measured on a 4-vCPU VM, served no more than one
  // (a RAM hit takes the writer lock to memoize its point, so a miss's
  // scan under the reader lock stalled both) and made every timing spread
  // wider from run to run.
  static constexpr size_t kWorkers = 1;
  static constexpr double kSloMs = 50.0;

  explicit LookupZipf(uint64_t seed)
      : seed_(seed),
        split_(kGrid, kGrid * kGrid, Rng::MixSeed(seed, 1)) {}

  WorkloadInfo info() const override {
    return {"lookup_zipf", "open loop, Poisson 3000/s, 1 worker", kDim,
            kClasses};
  }

  void Setup() override {
    grid_ = std::make_unique<GridPlm>(kDim, kClasses, kGrid, kModelSeed);
    stack_ = std::make_unique<Stack>(grid_.get());
    session_ = stack_->engine->OpenSession(*stack_->api);
    for (uint32_t cell : split_.served) {
      auto slot = session_->ImportRegion(grid_->CellModel(cell),
                                         grid_->CellCenter(cell),
                                         grid_->CellHalfEdge());
      if (!slot.ok()) Die("import failed: " + slot.status().ToString());
    }
  }

  void Teardown() override {
    session_.reset();
    stack_.reset();
    grid_.reset();
  }

  size_t replay_prefix() const override { return 600; }

  PhaseResult Measure(double seconds, std::string* error) override {
    PhaseResult out;
    out.dim = kDim;
    out.open_loop = true;
    out.offered_rate = kRate;
    out.slo_ms = kSloMs;
    const std::vector<double> due_s =
        PoissonSchedule(kRate, seconds, Rng::MixSeed(seed_, 3));
    std::vector<GridTraffic::Request> plan(due_s.size());
    GridTraffic traffic(&split_, kZipfS, kMissEvery, kClasses, seed_);
    for (auto& request : plan) {
      if (!traffic.Next(&request)) {
        *error = "held-out pool exhausted";
        return out;
      }
    }
    out.attempted = plan.size();

    const Stack::Counters before = stack_->Snapshot();
    ErrorSink errors;
    // The workers are the generator: each claims the next request in due
    // order, spins until it is due if it is not yet, and serves it. That
    // is a FIFO queue with kWorkers servers fed by the Poisson arrivals,
    // and it keeps the busy threads at kWorkers: a separate spinning
    // generator thread would compete with them for the CPU, and a
    // descheduled generator shows up as milliseconds of latency that no
    // server caused. Spinning rather than sleeping for the same reason: a
    // sleeping thread's virtual CPU halts, and waking it can take
    // milliseconds.
    std::vector<int64_t> claimed_at(plan.size(), 0);
    std::atomic<size_t> next{0};
    std::mutex merge_mutex;
    const int64_t start = NowNs() + 2'000'000;
    const int64_t generation_end = start + static_cast<int64_t>(seconds * 1e9);
    // A miss holds up the queue for tens of milliseconds at most; a
    // backlog that a second does not drain has been growing.
    const int64_t drain_deadline = generation_end + 1'000'000'000;
    auto due_ns = [&](size_t i) {
      return start + static_cast<int64_t>(due_s[i] * 1e9);
    };

    int64_t last_finish = start;
    std::vector<std::thread> workers;
    for (size_t w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&] {
        std::vector<RequestRecord> records;
        double max_error = 0.0;
        int64_t busy_ns = 0;
        while (true) {
          const size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= plan.size()) break;
          const int64_t claimed = NowNs();
          if (claimed > drain_deadline) break;
          claimed_at[i] = claimed;
          const int64_t due = due_ns(i);
          while (NowNs() < due) CpuRelax();
          const int64_t started = NowNs();
          RequestRecord record;
          max_error =
              std::max(max_error, ServeChecked(plan[i], i, &record, &errors));
          const int64_t done = NowNs();
          busy_ns += done - started;
          auto ms = [](int64_t ns) {
            return static_cast<float>(static_cast<double>(ns) / 1e6);
          };
          // latency = queue wait + lateness + service.
          record.latency_ms = ms(done - due);
          record.queue_ms = ms(std::max<int64_t>(0, claimed - due));
          record.late_ms = ms(started - std::max(due, claimed));
          if (Tracer::enabled()) {
            Span gen;
            gen.id = Tracer::NextId();
            gen.request = i + 1;
            gen.start_ns = due;
            gen.end_ns = started;
            gen.layer = Layer::kGen;
            Tracer::Record(gen);
          }
          records.push_back(record);
        }
        const int64_t finish = NowNs();
        std::lock_guard<std::mutex> lock(merge_mutex);
        out.records.insert(out.records.end(), records.begin(), records.end());
        out.max_dc_error = std::max(out.max_dc_error, max_error);
        out.busy_s += static_cast<double>(busy_ns) / 1e9;
        last_finish = std::max(last_finish, finish);
      });
    }
    for (auto& worker : workers) worker.join();
    out.elapsed_s = static_cast<double>(last_finish - start) / 1e9;
    out.checked = out.records.size();
    size_t ok = 0;
    for (const auto& r : out.records) ok += r.ok ? 1 : 0;
    out.failed = out.attempted - ok;
    // Backlog: requests that had arrived when generation ended but that no
    // worker had claimed yet.
    for (size_t i = 0; i < plan.size() && due_ns(i) <= generation_end; ++i) {
      if (claimed_at[i] == 0 || claimed_at[i] > generation_end) {
        ++out.backlog_end;
      }
    }
    out.overloaded = out.records.size() < out.attempted;
    out.cache_bytes = static_cast<double>(session_->stats().cache_bytes);
    stack_->FillDelta(before, &out);
    if (!errors.empty()) *error = errors.Describe();
    return out;
  }

  std::vector<RequestRecord> Replay(size_t count,
                                    std::string* error) override {
    return ReplayGrid(*session_, *grid_, &split_, kZipfS, kMissEvery, seed_,
                      count, error);
  }

 private:
  // Serves request i and checks its outcome and answer; returns the
  // answer's relative D_c error.
  double ServeChecked(const GridTraffic::Request& request, uint64_t i,
                      RequestRecord* record, ErrorSink* errors) const {
    const Vec x0 = PointFor(*grid_, request.cell, seed_, i);
    auto response = ServeTimed(*session_, x0, request.c, seed_, i, record);
    CheckOutcome(record->outcome,
                 {request.fresh ? CacheOutcome::kMiss
                                : CacheOutcome::kMemoryHit},
                 i, errors);
    return CheckAnswer(response, grid_->CellModel(request.cell), request.c, i,
                       errors);
  }

  uint64_t seed_;
  CellSplit split_;
  std::unique_ptr<GridPlm> grid_;
  std::unique_ptr<Stack> stack_;
  Session session_;
};

// ---------------------------------------------------------------------------
// tiered_churn
// ---------------------------------------------------------------------------

class TieredChurn : public Workload {
 public:
  static constexpr size_t kDim = 8;
  static constexpr size_t kClasses = 10;
  static constexpr size_t kGrid = 220;  // 48400 cells per layer
  static constexpr size_t kStored = 6000;
  static constexpr size_t kFreshEvery = 33;  // 3% never-stored cells
  static constexpr double kZipfS = 0.8;
  static constexpr size_t kBudgetBytes = 512u << 10;

  TieredChurn(uint64_t seed, const std::string& scratch_dir)
      : seed_(seed),
        split_(kGrid, kStored, Rng::MixSeed(seed, 1)),
        path_(scratch_dir + "/tiered_churn.rlog") {}

  WorkloadInfo info() const override {
    return {"tiered_churn", "closed loop, 1 client", kDim, kClasses};
  }

  void Setup() override {
    grid_ = std::make_unique<GridPlm>(kDim, kClasses, kGrid, kModelSeed);
    stack_ = std::make_unique<Stack>(grid_.get());
    std::error_code ignored;
    std::filesystem::remove(path_, ignored);
    {
      auto seeding = OpenStore();
      interpret::SessionOptions options;
      options.cache_capacity_bytes = kBudgetBytes;
      options.store = seeding.get();
      Session session = stack_->engine->OpenSession(*stack_->api, options);
      for (uint32_t cell : split_.served) {
        auto slot = session->ImportRegion(grid_->CellModel(cell),
                                          grid_->CellCenter(cell),
                                          grid_->CellHalfEdge());
        if (!slot.ok()) Die("seeding import failed: " +
                            slot.status().ToString());
      }
      if (!seeding->Flush().ok()) Die("seeding flush failed");
    }
    // The restart: a new process would reopen the log and recover it.
    const int64_t t0 = NowNs();
    store_ = OpenStore();
    store_open_ms_ = static_cast<double>(NowNs() - t0) / 1e6;
    interpret::SessionOptions options;
    options.cache_capacity_bytes = kBudgetBytes;
    options.store = store_.get();
    session_ = stack_->engine->OpenSession(*stack_->api, options);
  }

  void Teardown() override {
    session_.reset();
    store_.reset();
    stack_.reset();
    grid_.reset();
    std::error_code ignored;
    std::filesystem::remove(path_, ignored);
  }

  size_t replay_prefix() const override { return 2000; }

  PhaseResult Measure(double seconds, std::string* error) override {
    PhaseResult out;
    out.dim = kDim;
    out.has_store = true;
    out.store_open_ms = store_open_ms_;
    out.records_recovered = store_->recovery_stats().records_recovered;
    const uint64_t appended_before = store_->appended_records();
    const uint64_t size_before = LogBytes();
    const Stack::Counters before = stack_->Snapshot();
    ErrorSink errors;
    GridTraffic traffic(&split_, kZipfS, kFreshEvery, kClasses, seed_);
    const int64_t start = NowNs();
    const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
    for (uint64_t i = 0; NowNs() < end; ++i) {
      GridTraffic::Request request;
      if (!traffic.Next(&request)) {
        errors.Add("never-stored pool exhausted");
        break;
      }
      const Vec x0 = PointFor(*grid_, request.cell, seed_, i);
      StoreReplay replay;
      int64_t replay_start = 0;
      if (Tracer::enabled()) {
        replay_start = NowNs();
        replay = ReplayStoreLookup(x0);
      }
      RequestRecord record;
      uint64_t root_span = 0;
      auto response = ServeTimed(*session_, x0, request.c, seed_, i, &record,
                                 &root_span);
      if (Tracer::enabled() && ReachedStore(record.outcome)) {
        Span span;
        span.id = Tracer::NextId();
        span.parent = root_span;
        span.request = i + 1;
        span.start_ns = replay_start;
        span.end_ns = replay_start + static_cast<int64_t>(
                                         (replay.lookup_us + replay.read_us) *
                                         1e3);
        span.layer = Layer::kStore;
        span.replayed = true;
        Tracer::Record(span);
        out.store_replays.push_back(replay);
      }
      CheckOutcome(record.outcome,
                   request.fresh
                       ? std::initializer_list<CacheOutcome>{CacheOutcome::kMiss}
                       : std::initializer_list<CacheOutcome>{
                             CacheOutcome::kMemoryHit,
                             CacheOutcome::kDiskHit},
                   i, &errors);
      out.max_dc_error = std::max(
          out.max_dc_error, CheckAnswer(response, grid_->CellModel(request.cell),
                                        request.c, i, &errors));
      out.records.push_back(record);
    }
    out.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
    out.attempted = out.records.size();
    out.checked = out.records.size();
    for (const auto& r : out.records) out.failed += r.ok ? 0 : 1;
    out.cache_bytes = static_cast<double>(session_->stats().cache_bytes);
    out.appended = store_->appended_records() - appended_before;
    if (!store_->Flush().ok()) errors.Add("store flush failed");
    out.bytes_written = LogBytes() - size_before;
    out.directory_bytes = store_->directory_bytes();
    stack_->FillDelta(before, &out);
    if (!errors.empty()) *error = errors.Describe();
    return out;
  }

  std::vector<RequestRecord> Replay(size_t count,
                                    std::string* error) override {
    return ReplayGrid(*session_, *grid_, &split_, kZipfS, kFreshEvery, seed_,
                      count, error);
  }

 private:
  std::unique_ptr<store::RegionStore> OpenStore() const {
    auto opened = store::RegionStore::Open(path_, kDim, kClasses);
    if (!opened.ok()) Die("store open failed: " + opened.status().ToString());
    return std::move(opened).ValueOrDie();
  }

  uint64_t LogBytes() const {
    std::error_code ec;
    const auto size = std::filesystem::file_size(path_, ec);
    return ec ? 0 : static_cast<uint64_t>(size);
  }

  static bool ReachedStore(CacheOutcome outcome) {
    return outcome == CacheOutcome::kDiskHit ||
           outcome == CacheOutcome::kMiss ||
           outcome == CacheOutcome::kEvictedRefetch ||
           outcome == CacheOutcome::kStaleRefetch;
  }

  // The calls a RAM miss makes on the store, re-run from outside: the
  // directory lookup for x0's predicted class, then record reads in
  // candidate order until one matches, as the session does.
  StoreReplay ReplayStoreLookup(const Vec& x0) const {
    StoreReplay replay;
    const Vec y0 = grid_->Predict(x0);
    std::vector<uint64_t> offsets;
    const int64_t t0 = NowNs();
    store_->CollectCandidates(x0, openapi::linalg::ArgMax(y0), &offsets);
    const int64_t t1 = NowNs();
    replay.candidates = offsets.size();
    for (uint64_t offset : offsets) {
      auto record = store_->Read(offset);
      ++replay.reads;
      if (record.ok() && ModelMatches(record->model, x0, y0)) {
        ++replay.valid;
        break;
      }
    }
    const int64_t t2 = NowNs();
    replay.lookup_us = static_cast<double>(t1 - t0) / 1e3;
    replay.read_us = static_cast<double>(t2 - t1) / 1e3;
    return replay;
  }

  uint64_t seed_;
  CellSplit split_;
  std::string path_;
  std::unique_ptr<GridPlm> grid_;
  std::unique_ptr<Stack> stack_;
  std::unique_ptr<store::RegionStore> store_;
  Session session_;
  double store_open_ms_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed,
                                       const std::string& scratch_dir) {
  if (name == "audit_cold") return std::make_unique<AuditCold>(seed);
  if (name == "lookup_zipf") return std::make_unique<LookupZipf>(seed);
  if (name == "tiered_churn") {
    return std::make_unique<TieredChurn>(seed, scratch_dir);
  }
  return nullptr;
}

}  // namespace servebench
