// perfbench: the end-to-end benchmark program.
//
// One process runs one workload on inputs generated from --seed, measures
// for --seconds, checks every answer against a reference computed from the
// generated rows, and prints one JSON object as its last line of output:
//
//   --trace 0  end-to-end metrics (CPU time per request class, set-up
//              time, peak RSS, storage overhead; wall-clock latency and
//              throughput are printed beside them);
//   --trace 1  the same workload twice, untraced and then traced with spans
//              around every call into the engine; prints the per-layer
//              metrics and the tracing overhead, and writes the spans out.
//
// Timings come only from outside the engine: this file times calls into
// public functions and reads the diagnostics the API already returns
// (PhysicalPlan::joins()/costs()/MeasuredExclusiveNs(), Server::stats(),
// QueryOutcome::queue_ms/exec_ms, arena::Stats(), getrusage). Every planner
// gets MachineProfile::GenericX86(), so a plan depends only on the data and
// not on the per-process host calibration (README.md explains why).
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <functional>
#include <limits>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "exec/plan.h"
#include "exec/table.h"
#include "mem/arena.h"
#include "mem/machine.h"
#include "model/calibrator.h"
#include "model/planner.h"
#include "serve/server.h"
#include "util/rng.h"

using namespace ccdb;

namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// CPU time of the whole process (all threads). Unlike wall time it leaves
/// out time the hypervisor gives other tenants and time spent waiting to be
/// scheduled; it keeps memory stalls, which are what this engine is about.
double ProcessCpuMs() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) * 1e3 +
         static_cast<double>(t.tv_nsec) / 1e6;
}

// ---- statistics -------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto idx = static_cast<size_t>(q * static_cast<double>(v.size()));
  return v[std::min(idx, v.size() - 1)];
}

/// The highest percentile with at least kTailBeyond samples above it.
constexpr size_t kTailBeyond = 10;

struct Tail {
  double ms = 0;
  double percentile = 0;
  size_t samples = 0;
};

Tail TailOf(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  // With too few samples no percentile has kTailBeyond beyond it; the
  // maximum is reported and the printed percentile (100) says so.
  size_t idx = v.size() > kTailBeyond ? v.size() - 1 - kTailBeyond
                                      : v.size() - 1;
  t.ms = v[idx];
  t.percentile = 100.0 * static_cast<double>(idx + 1) /
                 static_cast<double>(v.size());
  return t;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t MinorFaults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<uint64_t>(ru.ru_minflt);
}

// ---- tracing ----------------------------------------------------------------

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t request = 0;
};

/// In-memory span recorder. A disabled tracer records nothing, so untraced
/// runs pay one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records a finished span; returns its id (-1 when disabled).
  int64_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int64_t parent, uint64_t request) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, start_ns, end_ns, parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  /// One JSON object per line; times are relative to the first span.
  bool Write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    int64_t origin = std::numeric_limits<int64_t>::max();
    for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"parent\": %lld, \"request\": %llu}\n",
                   i, s.name, static_cast<long long>(s.start_ns - origin),
                   static_cast<long long>(s.end_ns - origin),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
    return std::fclose(f) == 0;
  }

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

std::atomic<uint64_t> g_next_request{1};

uint64_t NextRequest() { return g_next_request.fetch_add(1); }

// ---- operation accounting ---------------------------------------------------

/// Every operation the benchmark issues (warm-up included): a non-ok
/// Status, a refusal or a wrong answer counts as failed.
struct OpCounter {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};

  /// `error` empty means the operation succeeded; returns whether it did.
  bool Record(const std::string& error) {
    attempted.fetch_add(1);
    if (error.empty()) return true;
    if (failed.fetch_add(1) < 5) {
      std::fprintf(stderr, "perfbench: failed operation: %s\n", error.c_str());
    }
    return false;
  }
};

OpCounter g_ops;

/// Set-up steps must succeed: there is nothing to measure without them.
template <class T>
T Must(StatusOr<T> v, const char* what) {
  if (!v.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
                 v.status().ToString().c_str());
    std::exit(1);
  }
  return *std::move(v);
}

const MaterializedColumn* ResultColumn(const QueryResult& r,
                                       const char* name) {
  auto i = r.ColumnIndex(name);
  return i.ok() ? &r.columns[*i] : nullptr;
}

// ---- per-plan diagnostics ---------------------------------------------------

/// What one executed PhysicalPlan reports about its layers.
struct LayerSample {
  double lower_ms = 0;
  double execute_ms = 0;
  uint64_t max_inner = 0;  // inner cardinality of the largest join
  double cluster_ms = 0;   // of the largest join
  double probe_ms = 0;
  int bits = 0;
  int passes = 0;
  double join_excl_ms = 0;
  double groupby_excl_ms = 0;
  double select_excl_ms = 0;
  double pred_l2_misses = 0;
  double pred_tlb_misses = 0;
  double pred_ns = 0;
  double q_error = 1;  // worst per-operator row-count q-error
};

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

LayerSample Diagnose(const PhysicalPlan& p, double lower_ms,
                     double execute_ms) {
  LayerSample s;
  s.lower_ms = lower_ms;
  s.execute_ms = execute_ms;
  bool any_join = false;
  for (const JoinNodeInfo& j : p.joins()) {
    if (any_join && j.inner_cardinality <= s.max_inner) continue;
    any_join = true;
    s.max_inner = j.inner_cardinality;
    s.cluster_ms = j.stats.cluster_left_ms + j.stats.cluster_right_ms;
    s.probe_ms = j.stats.join_ms;
    s.bits = j.plan.bits;
    s.passes = j.plan.passes;
  }
  const std::vector<OpCostInfo>& costs = p.costs();
  std::vector<double> excl = p.MeasuredExclusiveNs();
  for (size_t i = 0; i < costs.size() && i < excl.size(); ++i) {
    const OpCostInfo& c = costs[i];
    double ms = excl[i] / 1e6;
    if (StartsWith(c.label, "Join(")) s.join_excl_ms += ms;
    if (StartsWith(c.label, "GroupByAgg(")) s.groupby_excl_ms += ms;
    if (StartsWith(c.label, "Select(")) s.select_excl_ms += ms;
    s.pred_l2_misses += c.predicted_l2_misses;
    s.pred_tlb_misses += c.predicted_tlb_misses;
    s.pred_ns += c.predicted_ns;
    double est = static_cast<double>(c.estimated_rows) + 1;
    double act = static_cast<double>(c.actual_rows) + 1;
    s.q_error = std::max(s.q_error, std::max(est / act, act / est));
  }
  return s;
}

/// Strategy, radix bits and passes of every join, in execution order.
std::string PlanSignature(const PhysicalPlan& p) {
  std::string sig;
  for (const JoinNodeInfo& j : p.joins()) {
    if (!sig.empty()) sig += ",";
    sig += JoinStrategyName(j.plan.strategy);
    sig += j.plan.use_radix_join ? ":radix/" : ":phash/";
    sig += std::to_string(j.plan.bits) + "b/" +
           std::to_string(j.plan.passes) + "p";
  }
  return sig.empty() ? "nojoin" : sig;
}

// ---- one pass of a workload ------------------------------------------------

/// Everything one pass measures. Light and heavy are the workload's two
/// request classes (README.md names them per workload).
struct PassOut {
  std::vector<double> light_ms, heavy_ms;          // wall latency
  std::vector<double> light_cpu_ms, heavy_cpu_ms;  // process CPU per request
  std::vector<double> setup_ms;  // one entry per set-up
  std::vector<double> build_ms;  // FromRowStore of the largest table
  double measured_s = 0;         // wall time of the measured phases
  uint64_t requests = 0;         // completed inside the measured phases
  double storage_ratio = 0;
  std::set<std::string> signatures;
  std::vector<std::vector<double>> template_ms;  // latencies per template

  // Filled by traced passes only.
  std::vector<LayerSample> layers;
  std::vector<double> light_queue_ms, light_exec_ms;
  std::vector<double> heavy_queue_ms, heavy_exec_ms;
  uint64_t minor_faults = 0;  // over the measured phases
  uint64_t large_allocs = 0;
  uint64_t cache_hits = 0, cache_misses = 0, cache_invalidations = 0;
  uint64_t chunks_driven = 0, chunks_fanned_out = 0, rejected = 0;
  bool used_server = false;
  double measured_profile_query_ms = 0;
  int measured_profile_bits = 0;
};

/// Brackets a measured phase: wall time and the per-request memory
/// counters accumulate into the pass.
class MeasuredPhase {
 public:
  explicit MeasuredPhase(PassOut* out)
      : out_(out),
        start_ns_(NowNs()),
        faults_(MinorFaults()),
        large_(arena::Stats().large_allocs) {}
  ~MeasuredPhase() {
    out_->measured_s += static_cast<double>(NowNs() - start_ns_) / 1e9;
    out_->minor_faults += MinorFaults() - faults_;
    out_->large_allocs += arena::Stats().large_allocs - large_;
  }
  MeasuredPhase(const MeasuredPhase&) = delete;
  MeasuredPhase& operator=(const MeasuredPhase&) = delete;

 private:
  PassOut* out_;
  int64_t start_ns_;
  uint64_t faults_;
  uint64_t large_;
};

void AccumulateServerStats(const Server& server, PassOut* out) {
  Server::Stats s = server.stats();
  out->used_server = true;
  out->cache_hits += s.cache.hits;
  out->cache_misses += s.cache.misses;
  out->cache_invalidations += s.cache.invalidations;
  out->chunks_driven += s.shared_scans.chunks_driven;
  out->chunks_fanned_out += s.shared_scans.chunks_fanned_out;
  out->rejected += s.rejected;
}

void CheckThreadBudget(size_t clients, size_t inflight, size_t parallelism) {
  cpu_set_t set;
  CPU_ZERO(&set);
  size_t nproc = std::max<unsigned>(1, std::thread::hardware_concurrency());
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    nproc = static_cast<size_t>(CPU_COUNT(&set));
  }
  size_t busy = clients + inflight * parallelism;
  std::printf(
      "thread_budget clients=%zu max_inflight=%zu parallelism=%zu "
      "total=%zu nproc=%zu %s\n",
      clients, inflight, parallelism, busy, nproc,
      busy <= nproc ? "ok" : "OVER");
  if (busy > nproc) {
    std::fprintf(stderr,
                 "perfbench: warning: %zu busy threads on %zu CPUs; "
                 "latencies include oversubscription\n",
                 busy, nproc);
  }
}

/// A request through a QuerySession: Submit -> Wait, with the outcome's
/// queue/exec split recorded as child spans.
struct ServedRequest {
  bool ok = false;
  double latency_ms = 0;
  double cpu_ms = 0;  // meaningful only when nothing else runs meanwhile
  double queue_ms = 0;
  double exec_ms = 0;
};

ServedRequest Serve(QuerySession& session, const LogicalPlan& plan,
                    Tracer& tracer,
                    const std::function<std::string(const QueryResult&)>&
                        check) {
  ServedRequest out;
  uint64_t req = NextRequest();
  double cpu0 = ProcessCpuMs();
  int64_t t0 = NowNs();
  auto ticket = session.Submit(plan);
  if (!ticket.ok()) {
    g_ops.Record("submit refused: " + ticket.status().ToString());
    return out;
  }
  const QueryOutcome& o = ticket->Wait();
  int64_t t1 = NowNs();
  out.cpu_ms = ProcessCpuMs() - cpu0;
  out.latency_ms = NsToMs(t1 - t0);
  out.queue_ms = o.queue_ms;
  out.exec_ms = o.exec_ms;
  if (tracer.enabled()) {
    int64_t id = tracer.Add("Submit-Wait", t0, t1, -1, req);
    auto queue_ns = static_cast<int64_t>(o.queue_ms * 1e6);
    auto exec_ns = static_cast<int64_t>(o.exec_ms * 1e6);
    tracer.Add("queue", t0, t0 + queue_ns, id, req);
    tracer.Add("exec", t1 - exec_ns, t1, id, req);
  }
  if (!o.status.ok()) {
    g_ops.Record("query failed: " + o.status.ToString());
    return out;
  }
  out.ok = g_ops.Record(check(o.result));
  return out;
}

/// Lower + Execute outside any server, timed and traced.
struct DirectRun {
  bool ok = false;
  double lower_ms = 0;
  double execute_ms = 0;
  double cpu_ms = 0;
  std::optional<PhysicalPlan> plan;  // kept for its diagnostics
};

DirectRun RunDirect(const Planner& planner, const LogicalPlan& logical,
                    Tracer& tracer,
                    const std::function<std::string(const QueryResult&)>&
                        check) {
  DirectRun out;
  uint64_t req = NextRequest();
  double cpu0 = ProcessCpuMs();
  int64_t t0 = NowNs();
  auto physical = planner.Lower(logical);
  int64_t t1 = NowNs();
  out.lower_ms = NsToMs(t1 - t0);
  if (!physical.ok()) {
    g_ops.Record("lower failed: " + physical.status().ToString());
    return out;
  }
  auto result = physical->Execute();
  int64_t t2 = NowNs();
  out.cpu_ms = ProcessCpuMs() - cpu0;
  out.execute_ms = NsToMs(t2 - t1);
  if (tracer.enabled()) {
    int64_t id = tracer.Add("query", t0, t2, -1, req);
    tracer.Add("Lower", t0, t1, id, req);
    tracer.Add("Execute", t1, t2, id, req);
  }
  if (!result.ok()) {
    g_ops.Record("execute failed: " + result.status().ToString());
    return out;
  }
  out.ok = g_ops.Record(check(*result));
  out.plan.emplace(*std::move(physical));
  return out;
}

/// FromRowStore, timed and traced.
Table BuildTable(const RowStore& rows, Tracer& tracer, double* ms) {
  int64_t t0 = NowNs();
  Table t = Must(Table::FromRowStore(rows), "Table::FromRowStore");
  int64_t t1 = NowNs();
  tracer.Add("FromRowStore", t0, t1, -1, 0);
  *ms = NsToMs(t1 - t0);
  return t;
}

RowStore NewRowStore(std::vector<FieldDef> fields, size_t rows) {
  return Must(RowStore::Make(std::move(fields), rows), "RowStore::Make");
}

/// A seeded Fisher-Yates shuffle of 0..n-1.
template <class T>
std::vector<T> Permutation(T n, Rng& rng) {
  std::vector<T> p(n);
  for (T i = 0; i < n; ++i) p[i] = i;
  for (T i = n; i > 1; --i) {
    std::swap(p[i - 1], p[rng.NextBelow(i)]);
  }
  return p;
}

PlannerOptions FixedProfileOptions(size_t parallelism) {
  PlannerOptions o;
  o.profile = MachineProfile::GenericX86();
  o.exec.parallelism = parallelism;
  return o;
}

/// Set-ups per pass: the reported set-up time is their median, and each
/// set-up builds every table afresh and serves an equal share of the
/// measured time, so a pass averages over several memory placements and
/// moments of host load.
constexpr int kSetupsPerPass = 8;

using Workload = std::function<void(Tracer&, double seconds, PassOut*)>;

// ---- star_join --------------------------------------------------------------
//
// fact(fk_a, fk_b, amount) ⋈ σ(dim_a: a_attr in window) ⋈ dim_b, grouped by
// (a_grp, b_cat), top 20 by sum. The window keeps exactly the template's
// share of dim_a (a_attr is a permutation), so the join inner — and with
// it the plan — is the same for every seed.

constexpr size_t kStarFactRows = 2'000'000;
constexpr uint32_t kStarDimARows = 500'000;
constexpr uint32_t kStarDimBRows = 1'000;
constexpr uint32_t kStarGroups = 50;
constexpr uint32_t kStarCats = 10;
constexpr size_t kStarLimit = 20;
constexpr size_t kStarParallelism = 2;
/// Share of dim_a each template keeps. The first three are light (the
/// filtered inner fits the L2), the rest heavy (it does not). Three per
/// class keeps each class median inside one template's latency mode.
constexpr double kStarSelectivity[] = {0.02, 0.05, 0.10, 0.30, 0.60, 1.00};
constexpr size_t kStarTemplates = std::size(kStarSelectivity);
constexpr size_t kStarLightTemplates = 3;

struct StarTemplate {
  uint32_t lo = 0, hi = 0;
  std::vector<int64_t> sum, count;  // reference, per a_grp * kStarCats + cat
};

struct StarData {
  RowStore fact, dim_a, dim_b;
  std::vector<StarTemplate> templates;
  std::vector<size_t> order;  // seeded cyclic query sequence
};

StarData MakeStarData(uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  std::vector<uint32_t> a_ids = Permutation(kStarDimARows, rng);
  std::vector<uint32_t> a_attr = Permutation(kStarDimARows, rng);
  std::vector<uint32_t> attr_by_id(kStarDimARows), grp_by_id(kStarDimARows);
  RowStore dim_a = NewRowStore({{"a_id", FieldType::kU32},
                                {"a_attr", FieldType::kU32},
                                {"a_grp", FieldType::kU32}},
                               kStarDimARows);
  for (uint32_t i = 0; i < kStarDimARows; ++i) {
    auto grp = static_cast<uint32_t>(rng.NextBelow(kStarGroups));
    size_t r = Must(dim_a.AppendRow(), "AppendRow");
    dim_a.SetU32(r, 0, a_ids[i]);
    dim_a.SetU32(r, 1, a_attr[i]);
    dim_a.SetU32(r, 2, grp);
    attr_by_id[a_ids[i]] = a_attr[i];
    grp_by_id[a_ids[i]] = grp;
  }
  std::vector<uint32_t> b_ids = Permutation(kStarDimBRows, rng);
  std::vector<uint32_t> cat_by_id(kStarDimBRows);
  RowStore dim_b = NewRowStore(
      {{"b_id", FieldType::kU32}, {"b_cat", FieldType::kU32}}, kStarDimBRows);
  for (uint32_t i = 0; i < kStarDimBRows; ++i) {
    auto cat = static_cast<uint32_t>(rng.NextBelow(kStarCats));
    size_t r = Must(dim_b.AppendRow(), "AppendRow");
    dim_b.SetU32(r, 0, b_ids[i]);
    dim_b.SetU32(r, 1, cat);
    cat_by_id[b_ids[i]] = cat;
  }
  std::vector<uint32_t> fk_a(kStarFactRows), fk_b(kStarFactRows),
      amount(kStarFactRows);
  RowStore fact = NewRowStore({{"fk_a", FieldType::kU32},
                               {"fk_b", FieldType::kU32},
                               {"amount", FieldType::kU32}},
                              kStarFactRows);
  for (size_t i = 0; i < kStarFactRows; ++i) {
    fk_a[i] = static_cast<uint32_t>(rng.NextBelow(kStarDimARows));
    fk_b[i] = static_cast<uint32_t>(rng.NextBelow(kStarDimBRows));
    amount[i] = 1 + static_cast<uint32_t>(rng.NextBelow(1000));
    size_t r = Must(fact.AppendRow(), "AppendRow");
    fact.SetU32(r, 0, fk_a[i]);
    fact.SetU32(r, 1, fk_b[i]);
    fact.SetU32(r, 2, amount[i]);
  }
  std::vector<StarTemplate> templates;
  for (double sel : kStarSelectivity) {
    StarTemplate t;
    auto width = static_cast<uint32_t>(std::lround(sel * kStarDimARows));
    t.lo = static_cast<uint32_t>(rng.NextBelow(kStarDimARows - width + 1));
    t.hi = t.lo + width - 1;
    t.sum.assign(kStarGroups * kStarCats, 0);
    t.count.assign(kStarGroups * kStarCats, 0);
    for (size_t i = 0; i < kStarFactRows; ++i) {
      uint32_t attr = attr_by_id[fk_a[i]];
      if (attr < t.lo || attr > t.hi) continue;
      size_t key = grp_by_id[fk_a[i]] * kStarCats + cat_by_id[fk_b[i]];
      t.sum[key] += amount[i];
      t.count[key] += 1;
    }
    templates.push_back(std::move(t));
  }
  return StarData{std::move(fact), std::move(dim_a), std::move(dim_b),
                  std::move(templates), Permutation(kStarTemplates, rng)};
}

std::string CheckStar(const QueryResult& r, const StarTemplate& t) {
  const MaterializedColumn* g = ResultColumn(r, "a_grp");
  const MaterializedColumn* c = ResultColumn(r, "b_cat");
  const MaterializedColumn* s = ResultColumn(r, "sum");
  const MaterializedColumn* n = ResultColumn(r, "count");
  if (g == nullptr || c == nullptr || s == nullptr || n == nullptr) {
    return "star_join: missing result column";
  }
  size_t groups = 0;
  for (int64_t cnt : t.count) groups += cnt > 0 ? 1 : 0;
  if (r.num_rows() != std::min(kStarLimit, groups)) {
    return "star_join: " + std::to_string(r.num_rows()) + " rows, want " +
           std::to_string(std::min(kStarLimit, groups));
  }
  std::vector<bool> seen(t.sum.size(), false);
  int64_t min_sum = std::numeric_limits<int64_t>::max();
  for (size_t i = 0; i < r.num_rows(); ++i) {
    uint32_t grp = g->u32_values[i], cat = c->u32_values[i];
    if (grp >= kStarGroups || cat >= kStarCats) return "star_join: bad key";
    size_t key = grp * kStarCats + cat;
    if (seen[key]) return "star_join: duplicate group";
    seen[key] = true;
    if (s->i64_values[i] != t.sum[key] || n->i64_values[i] != t.count[key]) {
      return "star_join: wrong sum/count for group " + std::to_string(key);
    }
    if (i > 0 && s->i64_values[i] > s->i64_values[i - 1]) {
      return "star_join: rows not in descending sum order";
    }
    min_sum = std::min(min_sum, s->i64_values[i]);
  }
  for (size_t key = 0; key < t.sum.size(); ++key) {
    if (!seen[key] && t.count[key] > 0 && t.sum[key] > min_sum) {
      return "star_join: a larger group was left out of the top rows";
    }
  }
  return "";
}

StatusOr<LogicalPlan> StarPlan(const Table& fact, const Table& dim_a,
                               const Table& dim_b, const StarTemplate& t) {
  QueryBuilder big_dim(dim_a);
  big_dim.Filter(Between(Col("a_attr"), t.lo, t.hi));
  return QueryBuilder(fact)
      .Join(std::move(big_dim), "fk_a", "a_id")
      .Join(dim_b, "fk_b", "b_id")
      .GroupByAgg({"a_grp", "b_cat"}, {Agg::Sum("amount"), Agg::Count()})
      .OrderBy("sum", /*descending=*/true)
      .Limit(kStarLimit)
      .Build();
}

Workload StarJoinWorkload(const StarData& d) {
  return [&d](Tracer& tracer, double seconds, PassOut* out) {
    const Planner planner(FixedProfileOptions(kStarParallelism));
    size_t cursor = 0;
    for (int setup = 0; setup < kSetupsPerPass; ++setup) {
      double fact_ms = 0, a_ms = 0, b_ms = 0;
      Table fact = BuildTable(d.fact, tracer, &fact_ms);
      Table dim_a = BuildTable(d.dim_a, tracer, &a_ms);
      Table dim_b = BuildTable(d.dim_b, tracer, &b_ms);
      out->setup_ms.push_back(fact_ms + a_ms + b_ms);
      out->build_ms.push_back(fact_ms);
      out->storage_ratio =
          static_cast<double>(fact.MemoryBytes() + dim_a.MemoryBytes() +
                              dim_b.MemoryBytes()) /
          static_cast<double>(d.fact.size() * d.fact.record_width() +
                              d.dim_a.size() * d.dim_a.record_width() +
                              d.dim_b.size() * d.dim_b.record_width());

      std::vector<LogicalPlan> plans;
      for (const StarTemplate& t : d.templates) {
        plans.push_back(Must(StarPlan(fact, dim_a, dim_b, t), "star plan"));
      }
      auto check = [&d](size_t i) {
        return [&d, i](const QueryResult& r) {
          return CheckStar(r, d.templates[i]);
        };
      };

      // Warm-up (discarded): the first set-up runs every template once; the
      // others run the lightest one, which fills the fresh tables' column
      // stats that every template's planning reads.
      for (size_t i = 0; i < (setup == 0 ? kStarTemplates : 1); ++i) {
        RunDirect(planner, plans[i], tracer, check(i));
      }

      {
        MeasuredPhase phase(out);
        int64_t deadline =
            NowNs() + static_cast<int64_t>(seconds / kSetupsPerPass * 1e9);
        while (NowNs() < deadline) {
          size_t i = d.order[cursor++ % kStarTemplates];
          DirectRun run = RunDirect(planner, plans[i], tracer, check(i));
          if (!run.ok) continue;
          double ms = run.lower_ms + run.execute_ms;
          bool light = i < kStarLightTemplates;
          (light ? out->light_ms : out->heavy_ms).push_back(ms);
          (light ? out->light_cpu_ms : out->heavy_cpu_ms).push_back(run.cpu_ms);
          out->template_ms.resize(kStarTemplates);
          out->template_ms[i].push_back(ms);
          out->requests++;
          out->signatures.insert(std::to_string(i) + "=" +
                                 PlanSignature(*run.plan));
          if (tracer.enabled()) {
            out->layers.push_back(
                Diagnose(*run.plan, run.lower_ms, run.execute_ms));
          }
        }
      }

      if (tracer.enabled() && setup + 1 == kSetupsPerPass) {
        // The heaviest template under the per-process host calibration:
        // its radix bits move with the measured TLB reach.
        PlannerOptions measured = FixedProfileOptions(kStarParallelism);
        measured.profile = MeasuredHostProfile();
        size_t heaviest = kStarTemplates - 1;
        DirectRun run = RunDirect(Planner(measured), plans[heaviest], tracer,
                                  check(heaviest));
        out->measured_profile_query_ms = run.lower_ms + run.execute_ms;
        if (run.plan) {
          out->measured_profile_bits = Diagnose(*run.plan, 0, 0).bits;
        }
      }
    }
  };
}

// ---- serve_mixed ------------------------------------------------------------
//
// One point session and one analytic session in closed loops against a
// fair Server (max_inflight 2, parallelism 1). The fact table's columns fit
// the L2; the analytic join's 4k-row inner never needs radix clustering.

constexpr size_t kServeFactRows = 400'000;
constexpr uint32_t kServeKeyDomain = 25'000;  // ~16 rows per key
constexpr uint32_t kServeDimRows = 4'000;
constexpr uint32_t kServeGroups = 32;
constexpr uint32_t kServeValueDomain = 1'000;
constexpr uint32_t kServeValueWindow = 500;
constexpr size_t kServePointLiterals = 32;
constexpr size_t kServeAnalyticTemplates = 4;  // same cost, other windows
constexpr size_t kPointLimit = 16;
constexpr size_t kServeInflight = 2;

struct AnalyticTemplate {
  uint32_t lo = 0, hi = 0;
  std::vector<int64_t> sum, count;  // reference, per w
};

struct ServeData {
  RowStore fact, dim;
  std::vector<uint32_t> point_keys;
  std::vector<size_t> point_rows;  // reference: rows with k == key
  std::vector<AnalyticTemplate> analytics;
  std::vector<size_t> point_order;  // seeded cyclic sequence
};

ServeData MakeServeData(uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 2);
  std::vector<uint32_t> ids = Permutation(kServeDimRows, rng);
  std::vector<uint32_t> w_by_id(kServeDimRows);
  RowStore dim = NewRowStore(
      {{"id", FieldType::kU32}, {"w", FieldType::kU32}}, kServeDimRows);
  for (uint32_t i = 0; i < kServeDimRows; ++i) {
    auto w = static_cast<uint32_t>(rng.NextBelow(kServeGroups));
    size_t r = Must(dim.AppendRow(), "AppendRow");
    dim.SetU32(r, 0, ids[i]);
    dim.SetU32(r, 1, w);
    w_by_id[ids[i]] = w;
  }
  std::vector<uint32_t> k(kServeFactRows), v(kServeFactRows),
      dk(kServeFactRows);
  RowStore fact = NewRowStore({{"k", FieldType::kU32},
                               {"v", FieldType::kU32},
                               {"d", FieldType::kU32}},
                              kServeFactRows);
  std::vector<size_t> key_rows(kServeKeyDomain, 0);
  for (size_t i = 0; i < kServeFactRows; ++i) {
    k[i] = static_cast<uint32_t>(rng.NextBelow(kServeKeyDomain));
    v[i] = static_cast<uint32_t>(rng.NextBelow(kServeValueDomain));
    dk[i] = static_cast<uint32_t>(rng.NextBelow(kServeDimRows));
    size_t r = Must(fact.AppendRow(), "AppendRow");
    fact.SetU32(r, 0, k[i]);
    fact.SetU32(r, 1, v[i]);
    fact.SetU32(r, 2, dk[i]);
    key_rows[k[i]]++;
  }
  ServeData d{std::move(fact), std::move(dim), {}, {}, {}, {}};
  for (size_t i = 0; i < kServePointLiterals; ++i) {
    auto key = static_cast<uint32_t>(rng.NextBelow(kServeKeyDomain));
    d.point_keys.push_back(key);
    d.point_rows.push_back(key_rows[key]);
  }
  d.point_order = Permutation(kServePointLiterals, rng);
  for (size_t t = 0; t < kServeAnalyticTemplates; ++t) {
    AnalyticTemplate a;
    a.lo = static_cast<uint32_t>(
        rng.NextBelow(kServeValueDomain - kServeValueWindow + 1));
    a.hi = a.lo + kServeValueWindow - 1;
    a.sum.assign(kServeGroups, 0);
    a.count.assign(kServeGroups, 0);
    for (size_t i = 0; i < kServeFactRows; ++i) {
      if (v[i] < a.lo || v[i] > a.hi) continue;
      a.sum[w_by_id[dk[i]]] += v[i];
      a.count[w_by_id[dk[i]]] += 1;
    }
    d.analytics.push_back(std::move(a));
  }
  return d;
}

std::string CheckPoint(const QueryResult& r, uint32_t key, size_t rows) {
  const MaterializedColumn* k = ResultColumn(r, "k");
  if (k == nullptr) return "point: missing column k";
  if (r.num_rows() != std::min(kPointLimit, rows)) {
    return "point: " + std::to_string(r.num_rows()) + " rows, want " +
           std::to_string(std::min(kPointLimit, rows));
  }
  for (uint32_t got : k->u32_values) {
    if (got != key) return "point: row with k != literal";
  }
  return "";
}

std::string CheckAnalytic(const QueryResult& r, const AnalyticTemplate& a) {
  const MaterializedColumn* w = ResultColumn(r, "w");
  const MaterializedColumn* s = ResultColumn(r, "sum");
  const MaterializedColumn* n = ResultColumn(r, "count");
  if (w == nullptr || s == nullptr || n == nullptr) {
    return "analytic: missing result column";
  }
  size_t groups = 0;
  for (int64_t c : a.count) groups += c > 0 ? 1 : 0;
  if (r.num_rows() != groups) return "analytic: wrong group count";
  for (size_t i = 0; i < r.num_rows(); ++i) {
    uint32_t g = w->u32_values[i];
    if (g >= kServeGroups) return "analytic: bad group key";
    if (i > 0 && g <= w->u32_values[i - 1]) return "analytic: not ordered";
    if (s->i64_values[i] != a.sum[g] || n->i64_values[i] != a.count[g]) {
      return "analytic: wrong sum/count for w=" + std::to_string(g);
    }
  }
  return "";
}

Workload ServeMixedWorkload(const ServeData& d) {
  return [&d](Tracer& tracer, double seconds, PassOut* out) {
    ServerOptions options;
    options.max_inflight = kServeInflight;
    options.planner = FixedProfileOptions(/*parallelism=*/1);
    const Planner direct(options.planner);
    size_t point_cursor = 0, analytic_cursor = 0;
    for (int setup = 0; setup < kSetupsPerPass; ++setup) {
      double fact_ms = 0, dim_ms = 0;
      int64_t t0 = NowNs();
      Table fact = BuildTable(d.fact, tracer, &fact_ms);
      Table dim = BuildTable(d.dim, tracer, &dim_ms);
      auto server = std::make_unique<Server>(options);
      out->setup_ms.push_back(NsToMs(NowNs() - t0));
      out->build_ms.push_back(fact_ms);
      out->storage_ratio =
          static_cast<double>(fact.MemoryBytes() + dim.MemoryBytes()) /
          static_cast<double>(d.fact.size() * d.fact.record_width() +
                              d.dim.size() * d.dim.record_width());

      std::vector<LogicalPlan> points, analytics;
      for (uint32_t key : d.point_keys) {
        points.push_back(Must(QueryBuilder(fact)
                                  .Filter(Col("k") == key)
                                  .Limit(kPointLimit)
                                  .Build(),
                              "point plan"));
      }
      for (const AnalyticTemplate& a : d.analytics) {
        analytics.push_back(Must(
            QueryBuilder(fact)
                .Filter(Between(Col("v"), a.lo, a.hi))
                .Join(dim, "d", "id")
                .GroupByAgg({"w"}, {Agg::Sum("v"), Agg::Count()})
                .OrderBy("w")
                .Build(),
            "analytic plan"));
      }
      auto point_check = [&d](size_t i) {
        return [&d, i](const QueryResult& r) {
          return CheckPoint(r, d.point_keys[i], d.point_rows[i]);
        };
      };
      auto analytic_check = [&d](size_t i) {
        return [&d, i](const QueryResult& r) {
          return CheckAnalytic(r, d.analytics[i]);
        };
      };

      // Warm-up (discarded): every plan once through the server, and the
      // analytic plans once directly to record their join plans.
      {
        QuerySession session(server.get(), "warmup");
        for (size_t i = 0; i < points.size(); ++i) {
          Serve(session, points[i], tracer, point_check(i));
        }
        for (size_t i = 0; i < analytics.size(); ++i) {
          Serve(session, analytics[i], tracer, analytic_check(i));
          DirectRun run =
              RunDirect(direct, analytics[i], tracer, analytic_check(i));
          if (run.ok) {
            out->signatures.insert(std::to_string(i) + "=" +
                                   PlanSignature(*run.plan));
          }
        }
      }

      {
        MeasuredPhase phase(out);
        int64_t deadline =
            NowNs() + static_cast<int64_t>(seconds / kSetupsPerPass * 1e9);
        size_t light_before = out->light_ms.size();
        PassOut analytic_part;  // written only by the analytic client
        std::thread analytic_client([&] {
          QuerySession session(server.get(), "analytic");
          while (NowNs() < deadline) {
            size_t i = analytic_cursor++ % kServeAnalyticTemplates;
            ServedRequest r =
                Serve(session, analytics[i], tracer, analytic_check(i));
            if (!r.ok) continue;
            analytic_part.heavy_ms.push_back(r.latency_ms);
            analytic_part.heavy_queue_ms.push_back(r.queue_ms);
            analytic_part.heavy_exec_ms.push_back(r.exec_ms);
          }
        });
        QuerySession session(server.get(), "point");
        while (NowNs() < deadline) {
          size_t i = d.point_order[point_cursor++ % kServePointLiterals];
          ServedRequest r = Serve(session, points[i], tracer, point_check(i));
          if (!r.ok) continue;
          out->light_ms.push_back(r.latency_ms);
          out->light_queue_ms.push_back(r.queue_ms);
          out->light_exec_ms.push_back(r.exec_ms);
        }
        analytic_client.join();
        out->requests += out->light_ms.size() - light_before +
                         analytic_part.heavy_ms.size();
        for (const auto& [dst, src] :
             {std::pair{&out->heavy_ms, &analytic_part.heavy_ms},
              std::pair{&out->heavy_queue_ms, &analytic_part.heavy_queue_ms},
              std::pair{&out->heavy_exec_ms, &analytic_part.heavy_exec_ms}}) {
          dst->insert(dst->end(), src->begin(), src->end());
        }
      }
      AccumulateServerStats(*server, out);

      if (tracer.enabled() && setup + 1 == kSetupsPerPass) {
        // Plans run inside the server expose no diagnostics, so the layer
        // numbers come from the same plans lowered and executed directly.
        // Equal numbers of point and analytic plans, three runs each.
        auto diagnose = [out](const DirectRun& run) {
          if (run.ok) {
            out->layers.push_back(
                Diagnose(*run.plan, run.lower_ms, run.execute_ms));
          }
        };
        for (int rep = 0; rep < 3; ++rep) {
          for (size_t i = 0; i < kServeAnalyticTemplates; ++i) {
            diagnose(RunDirect(direct, analytics[i], tracer, analytic_check(i)));
            diagnose(RunDirect(direct, points[i], tracer, point_check(i)));
          }
        }
        PlannerOptions measured = options.planner;
        measured.profile = MeasuredHostProfile();
        DirectRun run = RunDirect(Planner(measured), analytics[0], tracer,
                                  analytic_check(0));
        out->measured_profile_query_ms = run.lower_ms + run.execute_ms;
        if (run.plan) out->measured_profile_bits = Diagnose(*run.plan, 0, 0).bits;
      }
    }
  };
}

// ---- ingest -----------------------------------------------------------------
//
// One client: a fresh table from the 100k base rows, then a fixed sequence
// of AppendRows batches, each followed by a fixed set of reads through a
// Server. Append cost grows with the table, so the work is fixed per cycle
// and a pass repeats whole cycles rather than appending for a set time.

constexpr size_t kIngestBaseRows = 100'000;
/// Odd, so the append median sits in one batch's latency mode.
constexpr size_t kIngestBatches = 15;
constexpr size_t kIngestBatchRows = 12'500;
constexpr const char* kModes[] = {"AIR",     "FOB",  "MAIL", "RAIL",
                                  "REG AIR", "SHIP", "TRUCK"};
constexpr size_t kModeCount = std::size(kModes);
constexpr size_t kIngestReads = 3;  // read templates, each run after a batch

struct IngestData {
  RowStore base;
  std::vector<RowStore> batches;
  /// reference[b][t][mode] = {sum, count} of read t after b batches
  std::vector<std::vector<std::vector<std::pair<int64_t, int64_t>>>> reference;
};

IngestData MakeIngestData(uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 3);
  std::vector<FieldDef> fields = {{"id", FieldType::kU32},
                                  {"mode", FieldType::kChar10},
                                  {"qty", FieldType::kU32},
                                  {"price", FieldType::kU32}};
  std::vector<std::vector<std::pair<int64_t, int64_t>>> state(
      kIngestReads, std::vector<std::pair<int64_t, int64_t>>(kModeCount));
  uint32_t next_id = 0;
  auto fill = [&](RowStore& rs, size_t rows) {
    for (size_t i = 0; i < rows; ++i) {
      size_t mode = rng.NextBelow(kModeCount);
      auto qty = 1 + static_cast<uint32_t>(rng.NextBelow(50));
      auto price = static_cast<uint32_t>(rng.NextBelow(10'000));
      size_t r = Must(rs.AppendRow(), "AppendRow");
      rs.SetU32(r, 0, next_id++);
      rs.SetBytes(r, 1, kModes[mode], std::strlen(kModes[mode]));
      rs.SetU32(r, 2, qty);
      rs.SetU32(r, 3, price);
      // Reads: 0 = sum(qty) by mode; 1 = sum(price) where mode = MAIL;
      // 2 = sum(price) by mode where qty in [10, 20].
      state[0][mode].first += qty;
      state[0][mode].second += 1;
      if (std::strcmp(kModes[mode], "MAIL") == 0) {
        state[1][mode].first += price;
        state[1][mode].second += 1;
      }
      if (qty >= 10 && qty <= 20) {
        state[2][mode].first += price;
        state[2][mode].second += 1;
      }
    }
  };
  RowStore base = NewRowStore(fields, kIngestBaseRows);
  fill(base, kIngestBaseRows);
  IngestData d{std::move(base), {}, {state}};
  for (size_t b = 0; b < kIngestBatches; ++b) {
    RowStore batch = NewRowStore(fields, kIngestBatchRows);
    fill(batch, kIngestBatchRows);
    d.batches.push_back(std::move(batch));
    d.reference.push_back(state);
  }
  return d;
}

StatusOr<LogicalPlan> IngestRead(const Table& t, size_t i) {
  switch (i) {
    case 0:
      return QueryBuilder(t)
          .GroupByAgg({"mode"}, {Agg::Sum("qty"), Agg::Count()})
          .Build();
    case 1:
      return QueryBuilder(t)
          .Filter(Col("mode") == "MAIL")
          .GroupByAgg({"mode"}, {Agg::Sum("price"), Agg::Count()})
          .Build();
    default:
      return QueryBuilder(t)
          .Filter(Between(Col("qty"), 10u, 20u))
          .GroupByAgg({"mode"}, {Agg::Sum("price"), Agg::Count()})
          .Build();
  }
}

std::string CheckIngestRead(
    const QueryResult& r,
    const std::vector<std::pair<int64_t, int64_t>>& want) {
  const MaterializedColumn* m = ResultColumn(r, "mode");
  const MaterializedColumn* s = ResultColumn(r, "sum");
  const MaterializedColumn* n = ResultColumn(r, "count");
  if (m == nullptr || s == nullptr || n == nullptr) {
    return "ingest read: missing result column";
  }
  size_t groups = 0;
  for (const auto& [sum, count] : want) groups += count > 0 ? 1 : 0;
  if (r.num_rows() != groups) return "ingest read: wrong group count";
  std::vector<bool> seen(kModeCount, false);
  for (size_t i = 0; i < r.num_rows(); ++i) {
    size_t mode = 0;
    while (mode < kModeCount && m->str_values[i] != kModes[mode]) ++mode;
    if (mode == kModeCount || seen[mode]) return "ingest read: bad mode";
    seen[mode] = true;
    if (s->i64_values[i] != want[mode].first ||
        n->i64_values[i] != want[mode].second) {
      return "ingest read: wrong sum/count for " + m->str_values[i];
    }
  }
  return "";
}

Workload IngestWorkload(const IngestData& d) {
  return [&d](Tracer& tracer, double seconds, PassOut* out) {
    ServerOptions options;
    options.max_inflight = 1;
    options.planner = FixedProfileOptions(/*parallelism=*/1);
    const Planner direct(options.planner);
    size_t user_bytes = d.base.size() * d.base.record_width();
    for (const RowStore& b : d.batches) user_bytes += b.size() * b.record_width();

    // One cycle: set-up, then every batch followed by every read. Only
    // measured cycles record samples.
    auto cycle = [&](bool measured, bool diagnose) {
      double build_ms = 0;
      int64_t t0 = NowNs();
      Table table = BuildTable(d.base, tracer, &build_ms);
      auto server = std::make_unique<Server>(options);
      int64_t t1 = NowNs();
      std::vector<LogicalPlan> reads;
      for (size_t i = 0; i < kIngestReads; ++i) {
        reads.push_back(Must(IngestRead(table, i), "ingest read plan"));
      }
      QuerySession session(server.get(), "read");
      std::optional<MeasuredPhase> phase;
      if (measured) {
        out->setup_ms.push_back(NsToMs(t1 - t0));
        out->build_ms.push_back(build_ms);
        phase.emplace(out);
      }
      for (size_t b = 0; b < kIngestBatches; ++b) {
        uint64_t req = NextRequest();
        double cpu0 = ProcessCpuMs();
        int64_t a0 = NowNs();
        Status st = table.AppendRows(d.batches[b]);
        int64_t a1 = NowNs();
        double append_cpu_ms = ProcessCpuMs() - cpu0;
        tracer.Add("AppendRows", a0, a1, -1, req);
        if (!g_ops.Record(st.ok() ? "" : "append: " + st.ToString())) continue;
        if (measured) {
          out->heavy_ms.push_back(NsToMs(a1 - a0));
          out->heavy_cpu_ms.push_back(append_cpu_ms);
          out->requests++;
        }
        for (size_t i = 0; i < kIngestReads; ++i) {
          const auto& want = d.reference[b + 1][i];
          ServedRequest r =
              Serve(session, reads[i], tracer, [&want](const QueryResult& q) {
                return CheckIngestRead(q, want);
              });
          if (!r.ok || !measured) continue;
          out->light_ms.push_back(r.latency_ms);
          out->light_cpu_ms.push_back(r.cpu_ms);
          out->light_queue_ms.push_back(r.queue_ms);
          out->light_exec_ms.push_back(r.exec_ms);
          out->requests++;
        }
      }
      phase.reset();
      out->storage_ratio = static_cast<double>(table.MemoryBytes()) /
                           static_cast<double>(user_bytes);
      if (measured) {
        AccumulateServerStats(*server, out);
        return;
      }
      // A Server keeps its plans to itself, so unmeasured cycles end with
      // the same reads lowered and executed directly on the full table: the
      // warm-up records their plans, a traced pass's last cycle also their
      // layer numbers.
      const auto& final_state = d.reference[kIngestBatches];
      auto check = [&final_state](size_t i) {
        return [&final_state, i](const QueryResult& q) {
          return CheckIngestRead(q, final_state[i]);
        };
      };
      for (int rep = 0; rep < (diagnose ? 3 : 1); ++rep) {
        for (size_t i = 0; i < kIngestReads; ++i) {
          DirectRun run = RunDirect(direct, reads[i], tracer, check(i));
          if (!run.ok) continue;
          out->signatures.insert(std::to_string(i) + "=" +
                                 PlanSignature(*run.plan));
          if (diagnose) {
            out->layers.push_back(
                Diagnose(*run.plan, run.lower_ms, run.execute_ms));
          }
        }
      }
      if (!diagnose) return;
      PlannerOptions measured_opts = options.planner;
      measured_opts.profile = MeasuredHostProfile();
      DirectRun run =
          RunDirect(Planner(measured_opts), reads[0], tracer, check(0));
      out->measured_profile_query_ms = run.lower_ms + run.execute_ms;
    };

    cycle(/*measured=*/false, /*diagnose=*/false);  // warm-up, discarded
    // Whole cycles only, at least kSetupsPerPass of them.
    int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    for (int done = 0; done < kSetupsPerPass || NowNs() < deadline; ++done) {
      cycle(/*measured=*/true, /*diagnose=*/false);
    }
    if (tracer.enabled()) cycle(/*measured=*/false, /*diagnose=*/true);
  };
}

// ---- reporting --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  const char* unit = "";
};

void PrintClass(const char* name, const std::vector<double>& wall,
                const std::vector<double>& cpu) {
  Tail t = TailOf(wall);
  std::printf(
      "%-6s wall p50 %.4f ms  p90 %.4f ms  tail p%.2f %.4f ms  (%zu "
      "samples%s)  cpu p50 ",
      name, Median(wall), Quantile(wall, 0.9), t.percentile, t.ms, t.samples,
      t.samples > kTailBeyond ? "" : ", too few for a tail");
  if (cpu.empty()) {
    std::printf("n/a (sessions run concurrently)\n");
  } else {
    std::printf("%.4f ms\n", Median(cpu));
  }
}

double RequestsPerSecond(const PassOut& o) {
  return o.measured_s > 0 ? static_cast<double>(o.requests) / o.measured_s
                          : 0;
}

std::vector<Metric> EndToEnd(const PassOut& o) {
  return {
      {"light_cpu_ms", Median(o.light_cpu_ms), "ms"},
      {"heavy_cpu_ms", Median(o.heavy_cpu_ms), "ms"},
      {"setup_s", Median(o.setup_ms) / 1e3, "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"storage_bytes_per_user_byte", o.storage_ratio, "ratio"},
  };
}

void PrintPass(const char* label, const PassOut& o) {
  std::printf("-- %s pass: %llu requests in %.3f s of measured phases "
              "(%.3f requests/s), %zu set-ups\n",
              label, static_cast<unsigned long long>(o.requests),
              o.measured_s, RequestsPerSecond(o), o.setup_ms.size());
  PrintClass("light", o.light_ms, o.light_cpu_ms);
  PrintClass("heavy", o.heavy_ms, o.heavy_cpu_ms);
  for (size_t i = 0; i < o.template_ms.size(); ++i) {
    std::printf("template %zu p50 %.4f ms (%zu samples)\n", i,
                Median(o.template_ms[i]), o.template_ms[i].size());
  }
  // One "template=join plans" entry per template; more entries than
  // templates means some template's plan changed within the run.
  std::string line;
  std::set<std::string> templates;
  for (const std::string& sig : o.signatures) {
    line += " " + sig;
    templates.insert(sig.substr(0, sig.find('=')));
  }
  std::printf("plan_signature%s\n", line.empty() ? " none" : line.c_str());
  if (o.signatures.size() > templates.size()) {
    std::printf("note: a plan signature changed within the run\n");
  }
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<Metric> PerLayer(const PassOut& base, const PassOut& o,
                             double calibrate_ms) {
  // algo.*: the executions whose largest join has the largest inner.
  uint64_t max_inner = 0;
  for (const LayerSample& s : o.layers) {
    max_inner = std::max(max_inner, s.max_inner);
  }
  std::vector<double> cluster, probe;
  int bits = 0, passes = 0;
  std::vector<double> join, groupby, select, execute, lower, l2, tlb, qerr,
      pred_ratio;
  for (const LayerSample& s : o.layers) {
    if (max_inner > 0 && s.max_inner == max_inner) {
      cluster.push_back(s.cluster_ms);
      probe.push_back(s.probe_ms);
      bits = s.bits;
      passes = s.passes;
    }
    join.push_back(s.join_excl_ms);
    groupby.push_back(s.groupby_excl_ms);
    select.push_back(s.select_excl_ms);
    execute.push_back(s.execute_ms);
    lower.push_back(s.lower_ms);
    l2.push_back(s.pred_l2_misses);
    tlb.push_back(s.pred_tlb_misses);
    qerr.push_back(s.q_error);
    pred_ratio.push_back(Ratio(s.pred_ns / 1e6, s.execute_ms));
  }
  if (max_inner == 0) {
    std::printf("note: algo.* are 0: no plan of this workload joins\n");
  }
  if (!o.used_server) {
    std::printf("note: serve.* are 0: this workload bypasses serve/\n");
  }
  if (o.used_server && o.heavy_queue_ms.empty()) {
    std::printf("note: serve.heavy_* are 0: heavy requests bypass the "
                "server\n");
  }
  if (o.measured_profile_bits == 0) {
    std::printf("note: model.measured_join_bits is 0: the workload's "
                "heaviest plan has no radix-clustered join\n");
  }
  double per_request = static_cast<double>(std::max<uint64_t>(1, o.requests));
  double lookups = static_cast<double>(o.cache_hits + o.cache_misses);
  std::vector<Metric> m = {
      {"algo.cluster_ms", Median(cluster), "ms"},
      {"algo.probe_ms", Median(probe), "ms"},
      {"algo.radix_bits", static_cast<double>(bits), "count"},
      {"algo.passes", static_cast<double>(passes), "count"},
      {"exec.join_excl_ms", Median(join), "ms"},
      {"exec.groupby_excl_ms", Median(groupby), "ms"},
      {"exec.select_excl_ms", Median(select), "ms"},
      {"exec.execute_ms", Median(execute), "ms"},
      {"exec.table_build_ms", Median(o.build_ms), "ms"},
      {"mem.minor_faults_per_query",
       static_cast<double>(o.minor_faults) / per_request, "count"},
      {"mem.large_allocs_per_query",
       static_cast<double>(o.large_allocs) / per_request, "count"},
      {"mem.pred_l2_misses", Median(l2), "count"},
      {"mem.pred_tlb_misses", Median(tlb), "count"},
      {"model.lower_ms", Median(lower), "ms"},
      {"model.row_q_error", Median(qerr), "ratio"},
      {"model.pred_over_measured", Median(pred_ratio), "ratio"},
      {"model.calibrate_ms", calibrate_ms, "ms"},
      {"model.measured_tlb_entries",
       static_cast<double>(MeasuredTlbGeometry().entries), "count"},
      {"model.measured_join_bits",
       static_cast<double>(o.measured_profile_bits), "count"},
      {"model.measured_query_ms", o.measured_profile_query_ms, "ms"},
      {"serve.light_queue_ms", Median(o.light_queue_ms), "ms"},
      {"serve.light_exec_ms", Median(o.light_exec_ms), "ms"},
      {"serve.heavy_queue_ms", Median(o.heavy_queue_ms), "ms"},
      {"serve.heavy_exec_ms", Median(o.heavy_exec_ms), "ms"},
      {"serve.plan_cache_hit_ratio",
       Ratio(static_cast<double>(o.cache_hits), lookups), "ratio"},
      {"serve.plan_cache_invalidations",
       static_cast<double>(o.cache_invalidations), "count"},
      {"serve.shared_scan_fanout",
       Ratio(static_cast<double>(o.chunks_fanned_out),
             static_cast<double>(o.chunks_driven)),
       "ratio"},
      {"serve.rejected", static_cast<double>(o.rejected), "count"},
  };
  // Tracing overhead: traced minus untraced end-to-end figures, plus the
  // wall-clock ones that are printed but not gated.
  std::vector<Metric> untraced = EndToEnd(base), traced = EndToEnd(o);
  untraced.push_back({"light_wall_p50_ms", Median(base.light_ms), "ms"});
  traced.push_back({"light_wall_p50_ms", Median(o.light_ms), "ms"});
  untraced.push_back({"requests_per_s", RequestsPerSecond(base), "1/s"});
  traced.push_back({"requests_per_s", RequestsPerSecond(o), "1/s"});
  for (size_t i = 0; i < untraced.size(); ++i) {
    const std::string& name = untraced[i].name;
    double pct = 100 * (Ratio(traced[i].value, untraced[i].value) - 1);
    std::printf("trace_overhead %-28s untraced %.4f traced %.4f (%+.2f%%)\n",
                name.c_str(), untraced[i].value, traced[i].value, pct);
    if (name == "light_cpu_ms" || name == "heavy_cpu_ms") {
      m.push_back({"trace.overhead_" + name + "_pct", pct, "%"});
    }
  }
  return m;
}

void PrintResult(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-36s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  uint64_t attempted = g_ops.attempted.load(), failed = g_ops.failed.load();
  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(value, sizeof value, "%.17g", v);
    json += (i > 0 ? ", \"" : "\"") + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a->seconds > 0) || a->seconds > 120) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      a->trace = value == "1";
    } else if (flag == "--trace-dir") {
      a->trace_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload star_join|serve_mixed|ingest "
                 "--seed N --seconds S --trace 0|1 [--trace-dir DIR]\n");
    return 2;
  }

  // glibc raises its mmap threshold each time a mapped block is freed, so
  // which blocks land on the heap depends on the order of frees across
  // threads: peak RSS of identical ingest runs ranged 55-140 MB. Holding
  // the threshold at the engine arena's own large-block size (2 MiB) makes
  // memory use repeatable.
  mallopt(M_MMAP_THRESHOLD, static_cast<int>(arena::kDefaultLargeThresholdBytes));

  // The one-off host calibration runs on first use of PlannerOptions; pay
  // it here so no set-up or request timing includes it.
  int64_t c0 = NowNs();
  const MachineProfile& host = MeasuredHostProfile();
  double calibrate_ms = NsToMs(NowNs() - c0);
  std::printf("workload %s seed %llu seconds %.3f trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("host calibration: %.1f ms, measured TLB reach %zu entries, "
              "profile %s (not used by any planner here)\n",
              calibrate_ms, MeasuredTlbGeometry().entries, host.name.c_str());

  // Inputs are generated before anything is timed and live for the run.
  std::optional<StarData> star;
  std::optional<ServeData> serve;
  std::optional<IngestData> ingest;
  Workload workload;
  if (args.workload == "star_join") {
    CheckThreadBudget(/*clients=*/1, /*inflight=*/1, kStarParallelism);
    star.emplace(MakeStarData(args.seed));
    workload = StarJoinWorkload(*star);
  } else if (args.workload == "serve_mixed") {
    CheckThreadBudget(/*clients=*/2, kServeInflight, /*parallelism=*/1);
    serve.emplace(MakeServeData(args.seed));
    workload = ServeMixedWorkload(*serve);
  } else if (args.workload == "ingest") {
    CheckThreadBudget(/*clients=*/1, /*inflight=*/1, /*parallelism=*/1);
    ingest.emplace(MakeIngestData(args.seed));
    workload = IngestWorkload(*ingest);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }

  if (!args.trace) {
    Tracer off(false);
    PassOut out;
    workload(off, args.seconds, &out);
    PrintPass("untraced", out);
    PrintResult(EndToEnd(out));
    return 0;
  }
  // Traced run: half the time untraced, half traced; the difference
  // between the two passes is the tracing overhead.
  Tracer off(false), on(true);
  PassOut base, traced;
  workload(off, args.seconds / 2, &base);
  workload(on, args.seconds / 2, &traced);
  PrintPass("untraced", base);
  PrintPass("traced", traced);
  std::string path = args.trace_dir + "/" + args.workload + "_seed" +
                     std::to_string(args.seed) + ".jsonl";
  std::vector<Metric> layers = PerLayer(base, traced, calibrate_ms);
  layers.push_back({"trace.spans", static_cast<double>(on.size()), "count"});
  if (!on.Write(path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("spans: %zu written to %s\n", on.size(), path.c_str());
  PrintResult(layers);
  return 0;
}
