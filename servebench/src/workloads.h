// The benchmark's three workloads over the public serving surface:
// InterpretationEngine::OpenSession -> EndpointSession::Interpret, with
// an optional store::RegionStore.
//
//   audit_cold    closed loop, 3 clients. The paper's audit: a PLNN of
//                 the paper's shape scaled to d=64 ({64,128,64,10}); each
//                 client takes whole instances and asks for every class,
//                 so an instance pays one extraction and C-1 point-memo
//                 hits. Each client serves 32 instances per fresh session.
//                 Not listed in BENCHMARK.json: the solver's known
//                 boundary defect (see AuditCold::ServeInstance) makes
//                 about 0.15% of its answers wrong, and a wrong answer
//                 fails the run.
//   lookup_zipf   open loop, Poisson arrivals at 3000/s, served FIFO by
//                 one worker that also generates the arrivals. Grid endpoint
//                 (d=8) with 33489 imported cells; Zipf(1.0) over them,
//                 fresh raw bits per point; 0.25% of requests go to
//                 held-out cells, each visited once (true misses). Latency
//                 limit 50 ms. Its interp_per_s is the worker's capacity:
//                 requests served per second of serving time.
//   tiered_churn  closed loop, 1 client. Grid endpoint (d=8); a region
//                 log seeded with 6000 cells and reopened (the restart);
//                 a 512 KiB RAM byte budget (about a tenth of the stored
//                 regions); Zipf(0.8) over the stored cells plus 3%
//                 never-stored cells, each visited once. Flush policy: the
//                 store's current one (no fsync).
//
// Held-out and never-stored cells come from grid layers no set-up imports
// or stores (see CellSplit), a pool of millions of cells, so no run
// length or serving speed exhausts it.
//
// The hidden models are fixed (kModelSeed); --seed drives everything a
// client generates: the split of cells, the traffic, the points and the
// probe RNG streams.

#ifndef SERVEBENCH_WORKLOADS_H_
#define SERVEBENCH_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "interpret/interpretation_engine.h"

namespace servebench {

using openapi::interpret::CacheOutcome;
using openapi::interpret::EngineStats;

/// What the benchmark saw for one request. Kept small: a run holds one
/// per request, and they count towards the process's peak RSS.
struct RequestRecord {
  uint64_t index = 0;  // position in the generated request stream
  CacheOutcome outcome = CacheOutcome::kBypass;
  uint32_t queries = 0;
  uint16_t iterations = 0;
  bool ok = false;     // served, and the answer matches ground truth
  float latency_ms = 0;  // open loop: completion minus due time
  float queue_ms = 0;    // open loop: due until a worker was free
  float late_ms = 0;     // open loop: then until it started serving
};

/// One traced replay of the store calls a disk-tier request made.
struct StoreReplay {
  double lookup_us = 0.0;  // RegionStore::CollectCandidates
  double read_us = 0.0;    // every RegionStore::Read up to the match
  size_t candidates = 0;
  size_t reads = 0;
  size_t valid = 0;
};

struct PhaseResult {
  std::vector<RequestRecord> records;  // completed requests
  double elapsed_s = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;  // errors plus requests that never completed

  // Accounting, each a delta over the phase.
  uint64_t endpoint_queries = 0;  // PredictionApi::query_count()
  uint64_t decorator_rows = 0;    // rows charged through TracedApi
  uint64_t api_calls = 0;
  uint64_t nn_rows = 0;
  EngineStats stats;          // engine aggregate, counters only
  double cache_bytes = 0.0;   // session cache residency at session end
  double max_dc_error = 0.0;  // worst |D_c - ground truth| (relative)
  size_t checked = 0;

  // Open loop only.
  bool open_loop = false;
  double offered_rate = 0.0;
  double slo_ms = 0.0;
  double busy_s = 0.0;     // workers' time spent serving, summed
  size_t backlog_end = 0;  // arrived but not yet taken when generation ended
  bool overloaded = false;  // requests still unserved 1 s after it ended

  // Store only.
  bool has_store = false;
  double store_open_ms = 0.0;
  uint64_t records_recovered = 0;
  uint64_t appended = 0;
  uint64_t bytes_written = 0;
  uint64_t directory_bytes = 0;
  std::vector<StoreReplay> store_replays;  // traced runs

  // Traced runs only.
  std::vector<Span> spans;
  double qr_factor_us = 0.0;
  size_t dim = 0;
};

struct WorkloadInfo {
  std::string name;
  std::string loop;  // "closed, N clients" or "open, R/s"
  size_t dim = 0;
  size_t num_classes = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual WorkloadInfo info() const = 0;
  /// Builds a fresh endpoint, engine, imports and store: the state a
  /// restarted server would have. Timed by the caller as setup_s.
  virtual void Setup() = 0;
  virtual void Teardown() = 0;
  /// Runs the workload's traffic on the current state for `seconds`.
  /// Correctness and accounting failures are returned in *error.
  virtual PhaseResult Measure(double seconds, std::string* error) = 0;
  /// Serves the first `count` requests of the same stream on one thread,
  /// on the current (fresh) state: the repeatability reference.
  virtual std::vector<RequestRecord> Replay(size_t count,
                                            std::string* error) = 0;
  /// Requests compared against Replay.
  virtual size_t replay_prefix() const = 0;
};

/// nullptr for an unknown name. `scratch_dir` receives the region log.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed,
                                       const std::string& scratch_dir);

const char* OutcomeName(CacheOutcome outcome);

/// Median wall time of QrDecomposition::Factor on the solver's
/// coefficient matrix at dimension d: (d+2) x (d+1), x0 plus d+1 probes.
double QrFactorMicros(size_t d);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOADS_H_
