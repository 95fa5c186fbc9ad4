// servebench: one command that runs a serving workload, checks every
// answer, and prints its metrics.
//
//   servebench --workload audit_cold|lookup_zipf|tiered_churn --seed N
//              --seconds S --trace 0|1 [--scratch DIR] [--trace-out FILE]
//              [--setup-probe 1]
//
// A run first times 5 to 41 set-ups, each in a fresh process started with
// --setup-probe 1; setup_s is their median. With --trace 0 the run's
// first own set-up then serves S seconds of traffic untraced and the
// end-to-end metrics come from it. With --trace 1 the first set-up
// serves S/2 seconds untraced and the second S/2 seconds traced; the
// per-layer metrics come from the traced half and the difference between
// the two halves is the tracing overhead. The last set-up replays the
// first requests of the stream on one thread, and every counter that
// should repeat for a seed is compared request by request.
//
// The last line of standard output is one JSON object:
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
// A wrong answer, an accounting mismatch, or a replay mismatch prints no
// JSON and exits with status 4. An open-loop run that did not keep up
// with its rate prints no JSON and exits with status 5: its latencies are
// not latencies at that rate.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "endpoints.h"
#include "workloads.h"

namespace servebench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".";
  std::string trace_out;
  bool setup_probe = false;  // set up once, print the time, exit
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "servebench: %s\nusage: servebench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--scratch DIR] [--trace-out FILE] "
               "[--setup-probe 1]\n",
               message);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--setup-probe") {
      args.setup_probe = value == "1";
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(args.seconds > 0.0 && args.seconds <= 600.0)) {
    Usage("--seconds must be in (0, 600]");
  }
  return args;
}

[[noreturn]] void Fail(const std::string& what) {
  std::fflush(stdout);
  std::fprintf(stderr, "servebench: CHECK FAILED: %s\n", what.c_str());
  std::exit(4);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool IsMiss(CacheOutcome o) {
  return o == CacheOutcome::kMiss || o == CacheOutcome::kEvictedRefetch ||
         o == CacheOutcome::kStaleRefetch;
}

/// One printed metric: its value plus where it came from.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::string samples;  // sample count, or why the metric does not apply
  bool applies = true;
};
using MetricTable = std::vector<std::pair<std::string, Metric>>;

std::string SampleNote(const Quantile& q) {
  std::string note = "n=" + std::to_string(q.samples) + ", " +
                     std::to_string(q.beyond) + " beyond";
  if (q.beyond < 10) note += " (<10: tail estimate is coarse)";
  return note;
}

void AddLatency(MetricTable* table, const std::string& prefix,
                const std::vector<double>& samples, const char* why_absent) {
  for (double q : {0.5, 0.99}) {
    const std::string name = prefix + (q == 0.5 ? "_p50_ms" : "_p99_ms");
    const Quantile quantile = Percentile(samples, q);
    Metric metric{quantile.value, "ms", SampleNote(quantile)};
    if (samples.empty()) {
      metric.applies = false;
      metric.samples = why_absent;
    }
    table->emplace_back(name, metric);
  }
}

MetricTable EndToEnd(const PhaseResult& phase, double setup_s,
                     size_t setups) {
  MetricTable table;
  std::vector<double> all, memhit, diskhit, miss;
  uint64_t ok = 0, queries = 0, slo_misses = phase.failed;
  for (const auto& r : phase.records) {
    all.push_back(r.latency_ms);
    if (r.outcome == CacheOutcome::kMemoryHit) memhit.push_back(r.latency_ms);
    if (r.outcome == CacheOutcome::kDiskHit) diskhit.push_back(r.latency_ms);
    if (IsMiss(r.outcome)) miss.push_back(r.latency_ms);
    if (r.ok) {
      ++ok;
      if (phase.open_loop && r.latency_ms > phase.slo_ms) ++slo_misses;
    }
    queries += r.queries;
  }
  table.emplace_back("setup_s", Metric{setup_s, "s",
                                       "median of " + std::to_string(setups) +
                                           " set-ups in fresh processes"});
  // An open loop completes requests at its offered rate; its capacity is
  // the rate the workers serve at while busy.
  const double serving_s = phase.open_loop ? phase.busy_s : phase.elapsed_s;
  const Metric rate{static_cast<double>(ok) / serving_s, "1/s",
                    "n=" + std::to_string(ok) + " over " +
                        FullDigits(serving_s) +
                        (phase.open_loop ? " s of serving time" : " s")};
  table.emplace_back("interp_per_s", rate);
  AddLatency(&table, "latency", all, "no completed request");
  AddLatency(&table, "memhit", memhit,
             "n/a: no kMemoryHit (workload bypasses the RAM region index)");
  AddLatency(&table, "diskhit", diskhit,
             "n/a: no kDiskHit (workload has no store)");
  AddLatency(&table, "miss", miss, "n/a: no miss");
  table.emplace_back(
      "queries_per_interp",
      Metric{ok > 0 ? static_cast<double>(queries) / ok : 0.0, "queries",
             "n=" + std::to_string(ok)});
  const double attempted = static_cast<double>(phase.attempted);
  table.emplace_back("failed_share",
                     Metric{phase.failed / attempted, "share",
                            "n=" + std::to_string(phase.attempted)});
  Metric slo{slo_misses / attempted, "share",
             "n=" + std::to_string(phase.attempted) + ", limit " +
                 FullDigits(phase.slo_ms) + " ms"};
  if (!phase.open_loop) {
    slo.applies = false;
    slo.samples = "n/a: closed loop (no latency limit)";
  }
  table.emplace_back("slo_miss_share", slo);
  table.emplace_back("peak_rss_mb",
                     Metric{PeakRssMb(), "MB", "process ru_maxrss"});
  return table;
}

const Metric& Find(const MetricTable& table, const std::string& name) {
  for (const auto& [n, m] : table) {
    if (n == name) return m;
  }
  static const Metric missing{0.0, "", "", false};
  return missing;
}

void PrintTable(const char* title, const MetricTable& table) {
  std::printf("%s\n", title);
  std::printf("  %-36s %14s  %-8s %s\n", "metric", "value", "unit",
              "samples");
  for (const auto& [name, metric] : table) {
    if (!metric.applies) {
      std::printf("  %-36s %14s  %-8s %s\n", name.c_str(), "-",
                  metric.unit.c_str(), metric.samples.c_str());
    } else {
      std::printf("  %-36s %14.6g  %-8s %s\n", name.c_str(), metric.value,
                  metric.unit.c_str(), metric.samples.c_str());
    }
  }
}

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

void CheckAccounting(const char* phase_name, const PhaseResult& phase) {
  uint64_t from_responses = 0;
  for (const auto& r : phase.records) from_responses += r.queries;
  std::printf(
      "accounting (%s): sum(EngineResponse::queries)=%llu  "
      "endpoint query_count()=%llu  EngineStats::queries=%llu  "
      "decorator rows=%llu\n",
      phase_name, static_cast<unsigned long long>(from_responses),
      static_cast<unsigned long long>(phase.endpoint_queries),
      static_cast<unsigned long long>(phase.stats.queries),
      static_cast<unsigned long long>(phase.decorator_rows));
  if (from_responses != phase.endpoint_queries ||
      from_responses != phase.stats.queries ||
      from_responses != phase.decorator_rows) {
    Fail(std::string("query accounting mismatch in the ") + phase_name +
         " phase");
  }
  if (phase.stats.requests != phase.records.size()) {
    Fail("EngineStats::requests differs from the requests served");
  }
}

/// An open-loop phase that fell behind its rate measured queueing without
/// bound, not a latency: the run exits without a result.
void RefuseIfOverloaded(const char* phase_name, const PhaseResult& phase) {
  if (!phase.overloaded) return;
  std::fflush(stdout);
  std::fprintf(stderr,
               "servebench: OVERLOADED (%s): the open loop did not keep up "
               "with %.0f/s (backlog %zu at the end of generation, %zu of "
               "%llu requests served within 1 s after it); no result is "
               "printed\n",
               phase_name, phase.offered_rate, phase.backlog_end,
               phase.records.size(),
               static_cast<unsigned long long>(phase.attempted));
  std::exit(5);
}

void CheckReplay(const char* phase_name, const PhaseResult& phase,
                 const std::vector<RequestRecord>& replay) {
  std::unordered_map<uint64_t, const RequestRecord*> by_index;
  for (const auto& r : phase.records) by_index[r.index] = &r;
  size_t compared = 0;
  std::map<std::string, size_t> outcomes;
  uint64_t queries = 0;
  for (const auto& r : replay) {
    auto it = by_index.find(r.index);
    if (it == by_index.end()) continue;
    const RequestRecord& m = *it->second;
    if (m.outcome != r.outcome || m.ok != r.ok || m.queries != r.queries ||
        m.iterations != r.iterations) {
      Fail("request " + std::to_string(r.index) + " served as " +
           OutcomeName(m.outcome) + " with " + std::to_string(m.queries) +
           " queries, but the single-threaded replay gave " +
           OutcomeName(r.outcome) + " with " + std::to_string(r.queries));
    }
    ++compared;
    ++outcomes[OutcomeName(r.outcome)];
    queries += r.queries;
  }
  if (compared == 0) Fail("no request of the replay prefix completed");
  std::printf(
      "repeatable for a given seed (checked here, %s): per-request outcome, "
      "queries and shrink iterations of the first %zu requests equal a "
      "single-threaded replay on a fresh set-up.\n  prefix counts:",
      phase_name, compared);
  for (const auto& [name, count] : outcomes) {
    std::printf(" %s=%zu", name.c_str(), count);
  }
  std::printf("  queries=%llu  queries_per_interp=%.6g\n",
              static_cast<unsigned long long>(queries),
              static_cast<double>(queries) / compared);
}

// ---------------------------------------------------------------------------
// Per-layer report (traced phase)
// ---------------------------------------------------------------------------

struct RequestLayers {
  CacheOutcome outcome = CacheOutcome::kBypass;
  double wall_ns = 0;
  double self_ns[kNumLayers] = {0, 0, 0, 0, 0};
};

MetricTable PerLayer(const PhaseResult& phase, double* sum_within,
                     double* sum_worst, std::string* self_table) {
  // Group spans by request; self times are per request.
  std::unordered_map<uint64_t, std::vector<Span>> by_request;
  for (const Span& span : phase.spans) by_request[span.request].push_back(span);
  std::unordered_map<uint64_t, CacheOutcome> outcome_of;
  for (const auto& r : phase.records) outcome_of[r.index + 1] = r.outcome;

  std::vector<RequestLayers> requests;
  size_t within = 0;
  double worst = 0.0;
  for (auto& [request, spans] : by_request) {
    auto it = outcome_of.find(request);
    if (it == outcome_of.end()) continue;
    const std::vector<int64_t> self = SelfTimes(spans);
    RequestLayers layers;
    layers.outcome = it->second;
    double accounted = 0.0;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const size_t layer = static_cast<size_t>(s.layer);
      if (s.layer == Layer::kInterpret && s.parent == 0) {
        layers.wall_ns = static_cast<double>(s.end_ns - s.start_ns);
      }
      const double ns = s.replayed ? static_cast<double>(s.end_ns - s.start_ns)
                                   : static_cast<double>(self[i]);
      layers.self_ns[layer] += ns;
      if (s.layer != Layer::kGen) accounted += ns;
    }
    // Tolerance: 1% of the request's wall time plus 1 microsecond.
    const double gap = std::fabs(accounted - layers.wall_ns);
    if (gap <= 0.01 * layers.wall_ns + 1e3) ++within;
    if (layers.wall_ns > 0) worst = std::max(worst, gap / layers.wall_ns);
    requests.push_back(layers);
  }
  *sum_within = requests.empty() ? 0.0
                                 : static_cast<double>(within) /
                                       static_cast<double>(requests.size());
  *sum_worst = worst;

  // Self time per outcome.
  std::map<std::string, std::vector<const RequestLayers*>> by_outcome;
  for (const auto& r : requests) {
    by_outcome[IsMiss(r.outcome) ? "miss" : OutcomeName(r.outcome)].push_back(
        &r);
  }
  auto mean_ns = [](const std::vector<const RequestLayers*>& rs, int layer) {
    double sum = 0;
    for (const auto* r : rs) {
      sum += layer < 0 ? r->wall_ns : r->self_ns[layer];
    }
    return rs.empty() ? 0.0 : sum / static_cast<double>(rs.size());
  };
  char line[256];
  std::snprintf(line, sizeof(line),
                "  %-10s %8s %12s %12s %12s %12s %12s %12s\n", "outcome", "n",
                "wall_us", "interpret_us", "api_us", "nn_us", "store_us",
                "gen_wait_us");
  *self_table = line;
  for (const auto& [name, rs] : by_outcome) {
    std::snprintf(line, sizeof(line),
                  "  %-10s %8zu %12.3f %12.3f %12.3f %12.3f %12.3f %12.3f\n",
                  name.c_str(), rs.size(), mean_ns(rs, -1) / 1e3,
                  mean_ns(rs, 0) / 1e3, mean_ns(rs, 1) / 1e3,
                  mean_ns(rs, 2) / 1e3, mean_ns(rs, 3) / 1e3,
                  mean_ns(rs, 4) / 1e3);
    *self_table += line;
  }
  auto outcome_self = [&](const std::string& key, int layer) {
    auto it = by_outcome.find(key);
    return it == by_outcome.end() ? -1.0 : mean_ns(it->second, layer);
  };
  std::vector<const RequestLayers*> everyone;
  for (const auto& r : requests) everyone.push_back(&r);

  const double n_req = static_cast<double>(phase.records.size());
  MetricTable table;
  auto add = [&](const std::string& name, double value, const std::string& unit,
                 const std::string& note, bool applies = true) {
    table.emplace_back(name, Metric{value, unit, note, applies});
  };
  const std::string req_note = "n=" + std::to_string(phase.records.size());
  add("api.calls_per_req", phase.api_calls / n_req, "count", req_note);
  add("api.rows_per_call",
      phase.api_calls > 0
          ? static_cast<double>(phase.decorator_rows) / phase.api_calls
          : 0.0,
      "rows", "n=" + std::to_string(phase.api_calls) + " calls");
  add("api.self_ms", mean_ns(everyone, 1) / 1e6, "ms",
      "mean per request, " + req_note);
  add("nn.forward_ms", mean_ns(everyone, 2) / 1e6, "ms",
      "mean per request, " + req_note);
  add("nn.rows", phase.nn_rows / n_req, "rows", "per request, " + req_note);

  auto per_outcome = [&](const std::string& name, const std::string& key,
                         double scale, const std::string& unit) {
    const double v = outcome_self(key, 0);
    const size_t n = by_outcome.count(key) ? by_outcome[key].size() : 0;
    add(name, v < 0 ? 0.0 : v / scale, unit,
        v < 0 ? "n/a: no " + key + " request in this workload"
              : "n=" + std::to_string(n),
        v >= 0);
  };
  per_outcome("interpret.memhit_self_us", "memhit", 1e3, "us");
  per_outcome("interpret.miss_self_ms", "miss", 1e6, "ms");
  per_outcome("interpret.diskhit_self_ms", "diskhit", 1e6, "ms");

  const EngineStats& s = phase.stats;
  add("interpret.served_without_extraction",
      static_cast<double>(s.point_memo_hits + s.cache_hits + s.disk_hits) /
          static_cast<double>(s.requests),
      "share", "EngineStats, n=" + std::to_string(s.requests));
  size_t misses = 0, iters = 0;
  for (const auto& r : phase.records) {
    if (IsMiss(r.outcome)) {
      ++misses;
      iters += r.iterations;
    }
  }
  const double iters_per_miss =
      misses > 0 ? static_cast<double>(iters) / misses : 0.0;
  add("interpret.shrink_iters_per_miss", iters_per_miss, "count",
      "n=" + std::to_string(misses) + " misses");
  add("interpret.evictions_per_req", s.evictions / n_req, "count", req_note,
      phase.has_store);
  if (!phase.has_store) {
    table.back().second.samples = "n/a: unbounded cache, no eviction";
  }
  add("interpret.cache_bytes", phase.cache_bytes, "bytes",
      "EngineStats::cache_bytes at session end");
  // Householder QR of an m x n matrix costs 2mn^2 - 2n^3/3 flops; the
  // solver factors one (d+2) x (d+1) matrix per shrink iteration.
  const double m = static_cast<double>(phase.dim + 2);
  const double n = static_cast<double>(phase.dim + 1);
  add("linalg.qr_factor_us", phase.qr_factor_us, "us",
      "median of 201 Factor calls at d=" + std::to_string(phase.dim));
  add("linalg.qr_flops_per_miss",
      iters_per_miss * (2 * m * n * n - 2 * n * n * n / 3), "flop",
      "computed: iterations x (2mn^2 - 2n^3/3), not counted");

  if (phase.has_store) {
    double lookup = 0, read = 0, candidates = 0, reads = 0, valid = 0;
    for (const auto& r : phase.store_replays) {
      lookup += r.lookup_us;
      read += r.read_us;
      candidates += r.candidates;
      reads += r.reads;
      valid += r.valid;
    }
    const double k = std::max<size_t>(1, phase.store_replays.size());
    const std::string note =
        "replayed, n=" + std::to_string(phase.store_replays.size());
    add("store.open_ms", phase.store_open_ms, "ms", "RegionStore::Open");
    add("store.records_recovered", phase.records_recovered, "count",
        "recovery_stats()");
    add("store.lookup_us", lookup / k, "us", note);
    add("store.candidates_per_lookup", candidates / k, "count", note);
    add("store.read_us", read / k, "us", note);
    add("store.valid_candidate_ratio", reads > 0 ? valid / reads : 0.0,
        "share", note);
    add("store.appends_per_req", phase.appended / n_req, "count", req_note);
    add("store.bytes_written_per_req", phase.bytes_written / n_req, "bytes",
        "log size delta, " + req_note);
    add("store.directory_bytes", phase.directory_bytes, "bytes",
        "directory_bytes()");
  } else {
    for (const char* name :
         {"store.open_ms", "store.records_recovered", "store.lookup_us",
          "store.candidates_per_lookup", "store.read_us",
          "store.valid_candidate_ratio", "store.appends_per_req",
          "store.bytes_written_per_req", "store.directory_bytes"}) {
      add(name, 0.0, "", "n/a: workload has no store", false);
    }
  }
  if (phase.open_loop) {
    std::vector<double> late, wait;
    for (const auto& r : phase.records) {
      late.push_back(r.late_ms);
      wait.push_back(r.queue_ms);
    }
    const Quantile late_q = Percentile(late, 0.99);
    const Quantile wait_q = Percentile(wait, 0.99);
    add("gen.late_p99_ms", late_q.value, "ms", SampleNote(late_q));
    add("gen.queue_wait_p99_ms", wait_q.value, "ms", SampleNote(wait_q));
    add("gen.backlog_end", phase.backlog_end, "count",
        "queued when generation stopped");
  } else {
    for (const char* name :
         {"gen.late_p99_ms", "gen.queue_wait_p99_ms", "gen.backlog_end"}) {
      add(name, 0.0, "", "n/a: closed loop", false);
    }
  }
  return table;
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "servebench: cannot write spans to %s\n",
                 path.c_str());
    return;
  }
  out << "request\tid\tparent\tlayer\tstart_ns\tend_ns\treplayed\n";
  for (const Span& s : spans) {
    out << s.request << '\t' << s.id << '\t' << s.parent << '\t'
        << LayerName(s.layer) << '\t' << s.start_ns << '\t' << s.end_ns
        << '\t' << (s.replayed ? 1 : 0) << '\n';
  }
}

// The metrics the JSON result carries (BENCHMARK.json lists the same
// names): every workload defines them, none is ever 0, and each stays
// within its bound from run to run. The rest are printed in the report
// only: memhit/diskhit latencies and the store.* and gen.* layers exist
// on one workload or the other; failed_share is 0 in a run that prints
// a result, and slo_miss_share nearly always; and p99s rest on the few
// slowest requests of a run (on lookup_zipf, the queue behind one miss's
// scan), so they jump between runs of the same code on a shared host.
const char* const kEndToEndJson[] = {
    "setup_s",     "interp_per_s",       "latency_p50_ms",
    "miss_p50_ms", "queries_per_interp", "peak_rss_mb"};
const char* const kPerLayerJson[] = {
    "api.calls_per_req",      "api.rows_per_call",
    "api.self_ms",            "nn.forward_ms",
    "nn.rows",                "interpret.miss_self_ms",
    "interpret.served_without_extraction",
    "interpret.shrink_iters_per_miss",
    "interpret.cache_bytes",  "linalg.qr_factor_us",
    "linalg.qr_flops_per_miss"};

template <size_t N>
void PrintJson(uint64_t attempted, uint64_t failed, const MetricTable& table,
               const char* const (&names)[N]) {
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < N; ++i) {
    const Metric& m = Find(table, names[i]);
    if (!m.applies) Fail(std::string("metric ") + names[i] + " has no value");
    json += std::string(i ? ", " : "") + "\"" + names[i] +
            "\": {\"value\": " + FullDigits(m.value) + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

// setup_s is the median of set-ups timed each in a fresh process, as a
// restarted server pays them: at least kMinSetups, then more while they
// stay cheap (up to kMaxSetups, or until kSetupBudgetS of set-up time in
// all). A set-up repeated inside the measuring process, after its phases
// have churned the heap, ran about 40% slower in some processes and not
// in others, so its median jumped between runs.
constexpr size_t kMinSetups = 5;
constexpr size_t kMaxSetups = 41;
constexpr double kSetupBudgetS = 4.0;

/// Runs this program again with --setup-probe 1 and returns the set-up
/// time the child prints; fails the run if the child fails.
double SetupInFreshProcess(const Args& args) {
  char self[4096];
  const ssize_t length = readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (length <= 0) Fail("cannot find the benchmark's own executable");
  self[length] = '\0';
  const std::string seed = std::to_string(args.seed);
  const char* const argv[] = {self,          "--workload",
                              args.workload.c_str(), "--seed",
                              seed.c_str(),  "--seconds",
                              "1",           "--trace",
                              "0",           "--scratch",
                              args.scratch.c_str(), "--setup-probe",
                              "1",           nullptr};
  int out[2];
  if (pipe(out) != 0) Fail("pipe failed");
  std::fflush(stdout);
  const pid_t child = fork();
  if (child < 0) Fail("fork failed");
  if (child == 0) {
    dup2(out[1], STDOUT_FILENO);
    close(out[0]);
    close(out[1]);
    execv(self, const_cast<char* const*>(argv));
    _exit(127);
  }
  close(out[1]);
  std::string text;
  char buffer[256];
  ssize_t got;
  while ((got = read(out[0], buffer, sizeof(buffer))) > 0) {
    text.append(buffer, static_cast<size_t>(got));
  }
  close(out[0]);
  int status = 0;
  waitpid(child, &status, 0);
  char* end = nullptr;
  const double seconds = std::strtod(text.c_str(), &end);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || end == text.c_str() ||
      !(seconds > 0.0)) {
    Fail("set-up in a fresh process failed: " + text);
  }
  return seconds;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  auto workload = MakeWorkload(args.workload, args.seed, args.scratch);
  if (workload == nullptr) Usage("unknown workload");
  const WorkloadInfo info = workload->info();
  if (args.setup_probe) {
    const int64_t t0 = NowNs();
    workload->Setup();
    const double seconds = static_cast<double>(NowNs() - t0) / 1e9;
    workload->Teardown();
    std::printf("%s\n", FullDigits(seconds).c_str());
    return 0;
  }
  std::printf("== servebench workload=%s seed=%llu seconds=%g trace=%d ==\n",
              info.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("%s; d=%zu, C=%zu\n", info.loop.c_str(), info.dim,
              info.num_classes);

  std::vector<double> setups;
  double setup_total = 0.0;
  while (setups.size() < kMinSetups ||
         (setups.size() < kMaxSetups && setup_total < kSetupBudgetS)) {
    setups.push_back(SetupInFreshProcess(args));
    setup_total += setups.back();
  }
  const double setup_s = Percentile(setups, 0.5).value;

  auto setup = [&] { workload->Setup(); };
  std::string error;

  setup();
  PhaseResult untraced = workload->Measure(
      args.trace ? args.seconds / 2 : args.seconds, &error);
  workload->Teardown();
  if (!error.empty()) Fail(error);

  PhaseResult traced;
  if (args.trace) {
    setup();
    Tracer::SetEnabled(true);
    traced = workload->Measure(args.seconds / 2, &error);
    Tracer::SetEnabled(false);
    traced.spans = Tracer::Drain();
    traced.qr_factor_us = QrFactorMicros(traced.dim);
    workload->Teardown();
    if (!error.empty()) Fail(error);
  }

  setup();
  const std::vector<RequestRecord> replay =
      workload->Replay(workload->replay_prefix(), &error);
  workload->Teardown();
  if (!error.empty()) Fail(error);

  std::printf(
      "correctness: %zu answers checked against white-box ground truth "
      "(GroundTruthDecisionFeatures), worst relative |D_c error| of the "
      "exact ones %.3g (limit 1e-6)\n",
      untraced.checked + traced.checked,
      std::max(untraced.max_dc_error, traced.max_dc_error));
  CheckAccounting("untraced", untraced);
  if (args.trace) CheckAccounting("traced", traced);
  CheckReplay("untraced", untraced, replay);
  std::printf(
      "  so outcome counts and queries_per_interp repeat exactly for a seed "
      "and a request count; the request count itself, latencies, "
      "interp_per_s, setup_s, peak_rss_mb and cache bytes depend on "
      "timing and do not.\n");

  const MetricTable e2e = EndToEnd(untraced, setup_s, setups.size());
  std::map<std::string, size_t> outcomes;
  for (const auto& r : untraced.records) ++outcomes[OutcomeName(r.outcome)];
  std::printf("phase: attempted=%llu failed=%llu elapsed=%.3f s, outcomes:",
              static_cast<unsigned long long>(untraced.attempted),
              static_cast<unsigned long long>(untraced.failed),
              untraced.elapsed_s);
  for (const auto& [name, count] : outcomes) {
    std::printf(" %s=%zu", name.c_str(), count);
  }
  std::printf("\n");
  if (untraced.open_loop) {
    std::vector<double> late, wait, service;
    for (const auto& r : untraced.records) {
      late.push_back(r.late_ms);
      wait.push_back(r.queue_ms);
      service.push_back(r.latency_ms - r.late_ms - r.queue_ms);
    }
    std::printf(
        "open loop: p50/p99 ms of queue wait (due until a worker was free) "
        "%.4f/%.4f, start lateness (then until it started) %.4f/%.4f, "
        "service %.4f/%.4f\n",
        Percentile(wait, 0.5).value, Percentile(wait, 0.99).value,
        Percentile(late, 0.5).value, Percentile(late, 0.99).value,
        Percentile(service, 0.5).value, Percentile(service, 0.99).value);
    std::printf(
        "open loop: offered %.0f/s, backlog at end of generation %zu -> %s\n",
        untraced.offered_rate, untraced.backlog_end,
        untraced.overloaded ? "OVERLOADED: latencies below are not a "
                              "latency at this rate"
                            : "keeping up");
    std::printf("open loop: the offered rate is %.1f%% of the capacity\n",
                100.0 * untraced.offered_rate * untraced.busy_s /
                    static_cast<double>(untraced.records.size()));
  }
  PrintTable(args.trace ? "end-to-end (untraced half)" : "end-to-end", e2e);
  RefuseIfOverloaded("untraced", untraced);
  if (!args.trace) {
    PrintJson(untraced.attempted, untraced.failed, e2e, kEndToEndJson);
    return 0;
  }

  double within = 0, worst = 0;
  std::string self_table;
  const MetricTable layers = PerLayer(traced, &within, &worst, &self_table);
  PrintTable("per-layer (traced half)", layers);
  std::printf("self time per outcome (mean per request):\n%s",
              self_table.c_str());
  std::printf(
      "self-time sum check: %.2f%% of requests have layer self times summing "
      "to their wall time within 1%% + 1 us (worst gap %.3g of wall). The "
      "store figure is a replay before the request, so it can exceed what "
      "the request itself spent.\n",
      100.0 * within, worst);
  const MetricTable traced_e2e = EndToEnd(traced, setup_s, setups.size());
  std::printf("tracing overhead (traced / untraced):");
  for (const char* name :
       {"interp_per_s", "latency_p50_ms", "latency_p99_ms", "miss_p50_ms"}) {
    const Metric& a = Find(traced_e2e, name);
    const Metric& b = Find(e2e, name);
    if (a.applies && b.applies && b.value > 0) {
      std::printf("  %s %.3f", name, a.value / b.value);
    }
  }
  std::printf("\n");
  if (!args.trace_out.empty()) {
    WriteSpans(args.trace_out, traced.spans);
    std::printf("spans: %zu written to %s\n", traced.spans.size(),
                args.trace_out.c_str());
  }
  RefuseIfOverloaded("traced", traced);
  PrintJson(traced.attempted, traced.failed, layers, kPerLayerJson);
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
