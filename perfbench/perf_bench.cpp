// perf_bench: one repeatable end-to-end + per-layer benchmark of the
// library, over four workloads (see README.md for why each exists).
//
//   perf_bench --workload <large_gemm|isda|serve_mixed|serve_skinny>
//              --seed <n> --seconds <s> --trace <0|1>
//              [--out <result.json>] [--trace-file <trace.json>]
//   perf_bench --self-test
//
// Every run sets up three times (the median is setup_s), measures the
// workload for --seconds, checks every output it produced, prints each
// metric as `name value unit`, and ends stdout with one JSON line:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 reruns the workload with spans on, runs
// the layer probes and reports the per-layer metrics instead. The exit
// code is nonzero when any output check failed.
#include "perf_bench.hpp"

#include <sys/resource.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <random>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>

#include "blas/gemm.hpp"
#include "blas/kernels.hpp"
#include "blas/pack_operand.hpp"
#include "blas/packed_loop.hpp"
#include "core/cabi.hpp"
#include "core/dgefmm.hpp"
#include "core/gemm_backend.hpp"
#include "core/tuned_policy.hpp"
#include "core/workspace.hpp"
#include "eigen/isda.hpp"
#include "parallel/parallel_strassen.hpp"
#include "parallel/task_dag.hpp"
#include "serve/serve.hpp"
#include "support/thread_pool.hpp"
#include "tuning/autotune.hpp"

extern char** environ;

namespace perf {
namespace {

using strassen::Matrix;
using strassen::Rng;
using strassen::Trans;
namespace blas = strassen::blas;
namespace core = strassen::core;
namespace eigen = strassen::eigen;
namespace parallel = strassen::parallel;
namespace serve = strassen::serve;

struct MetricName {
  const char* name;
  const char* unit;
};

// The metric lists of BENCHMARK.json; run.py refuses a result whose names
// differ from it.
constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},
    {"gflops", "GFLOP/s"},
    {"p50_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricName kPerLayer[] = {
    {"bench.self_s", "s"},
    {"blas.self_s", "s"},
    {"blas.dgemm_gflops", "GFLOP/s"},
    {"blas.gemm_gflops_1t", "GFLOP/s"},
    {"blas.gemm_gflops_pool", "GFLOP/s"},
    {"blas.thread_scaling", "x"},
    {"blas.leaf_gemm_gflops", "GFLOP/s"},
    {"blas.pack_b_gbps", "GB/s"},
    {"blas.prepacked_speedup", "x"},
    {"core.self_s", "s"},
    {"core.cabi_gflops", "GFLOP/s"},
    {"core.tuned_gflops", "GFLOP/s"},
    {"core.default.strassen_nodes", "count"},
    {"core.default.base_gemms", "count"},
    {"core.default.max_depth", "count"},
    {"core.default.peel_fixups", "count"},
    {"core.default.peak_workspace_mb", "MB"},
    {"core.tuned.strassen_nodes", "count"},
    {"core.tuned.base_gemms", "count"},
    {"core.tuned.max_depth", "count"},
    {"core.tuned.peel_fixups", "count"},
    {"core.tuned.peak_workspace_mb", "MB"},
    {"core.fallbacks", "count"},
    {"core.combine_gbps", "GB/s"},
    {"core.ledger_gemm_s", "s"},
    {"core.ledger_combine_s", "s"},
    {"core.ledger_residual_s", "s"},
    {"core.max_rel_err", "ratio"},
    {"tuning.autotune_s", "s"},
    {"tuning.route_flips", "count"},
    {"tuning.route_regret", "x"},
    {"parallel.dag_gflops", "GFLOP/s"},
    {"parallel.dag_speedup", "x"},
    {"parallel.steals", "count"},
    {"parallel.dag_nodes", "count"},
    {"parallel.lanes", "count"},
    {"serve.self_s", "s"},
    {"serve.p50_ms", "ms"},
    {"serve.p99_ms", "ms"},
    {"serve.low_p50_ms", "ms"},
    {"serve.goodput_rps", "req/s"},
    {"serve.submit_us_p50", "us"},
    {"serve.gen_lag_ms_p99", "ms"},
    {"serve.service_ms_p50", "ms"},
    {"serve.wait_ms_p50", "ms"},
    {"serve.peak_queue_depth", "count"},
    {"serve.pool_peak_mb", "MB"},
    {"serve.rejected", "count"},
    {"serve.shed", "count"},
    {"serve.expired", "count"},
    {"serve.pack_hits", "count"},
    {"serve.pack_misses", "count"},
    {"serve.prepacked_p50_ms", "ms"},
    {"serve.fresh_p50_ms", "ms"},
    {"eigen.self_s", "s"},
    {"eigen.mm_s", "s"},
    {"eigen.mm_share", "ratio"},
    {"eigen.mm_gflops", "GFLOP/s"},
    {"eigen.gemm_calls", "count"},
    {"eigen.beta_iterations", "count"},
    {"eigen.table6_ratio", "x"},
    {"trace.overhead_pct", "%"},
};

constexpr int kSetupReps = 3;
constexpr double kMiB = 1024.0 * 1024.0;

double elapsed_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

double ms_since(Clock::time_point from, Clock::time_point to) {
  return 1e3 * seconds_between(from, to);
}

// Sets up the workload kSetupReps times, reports the median as setup_s and
// keeps the last state.
template <class State, class Make>
std::unique_ptr<State> set_up(Run& run, Make&& make) {
  std::vector<double> t;
  std::unique_ptr<State> st;
  for (int r = 0; r < kSetupReps; ++r) {
    st.reset();
    const Clock::time_point t0 = Clock::now();
    st = make();
    t.push_back(elapsed_since(t0));
  }
  run.e2e.set("setup_s", summarize(t), "s");
  return st;
}

// ---------------------------------------------------------------------------
// large_gemm: closed loop, one caller, rounds of every product through
// every GEMM entry point in a seed-shuffled order.
// ---------------------------------------------------------------------------

enum Entry { kDgemm, kCabi, kTuned, kEntries };
constexpr const char* kEntrySpan[kEntries] = {"blas.dgemm", "core.cabi",
                                              "core.dgefmm"};

struct LargeProduct {
  GemmShape s;
  Matrix a, b, c, c0;
  FreivaldsRef ref;

  void reset_c() {
    if (s.beta != 0.0) strassen::copy(c0.view(), c.view());
  }
};

struct LargeState {
  std::vector<LargeProduct> p;
  strassen::Arena arena;  // the tuned entry's reusable workspace
};

int call_entry(Entry e, LargeProduct& p, strassen::Arena& arena) {
  const GemmShape& s = p.s;
  switch (e) {
    case kDgemm:
      blas::dgemm(Trans::no, Trans::no, s.m, s.n, s.k, 1.0, p.a.data(),
                  p.a.ld(), p.b.data(), p.b.ld(), s.beta, p.c.data(), p.c.ld());
      return 0;
    case kCabi:
      return strassen_dgefmm('N', 'N', s.m, s.n, s.k, 1.0, p.a.data(),
                             p.a.ld(), p.b.data(), p.b.ld(), s.beta,
                             p.c.data(), p.c.ld());
    case kTuned:
    case kEntries:
      break;
  }
  core::DgefmmConfig cfg;
  cfg.use_tuned = true;
  cfg.workspace = &arena;
  return core::dgefmm(Trans::no, Trans::no, s.m, s.n, s.k, 1.0, p.a.data(),
                      p.a.ld(), p.b.data(), p.b.ld(), s.beta, p.c.data(),
                      p.c.ld(), cfg);
}

// Calls one entry on one product and checks C.
double timed_entry(Run& run, Entry e, LargeProduct& p, strassen::Arena& arena,
                   std::uint32_t parent) {
  p.reset_c();
  const Clock::time_point t0 = Clock::now();
  int info = 0;
  {
    ScopedSpan span(run.tracer, kEntrySpan[e], parent);
    info = call_entry(e, p, arena);
  }
  const double t = elapsed_since(t0);
  const std::string what = std::string(kEntrySpan[e]) + " " + shape_key(p.s);
  if (info != 0) {
    run.fail(what + " info " + std::to_string(info));
  } else {
    run.check(p.ref.residual(p.c.data(), p.s.m, p.s.n, p.c.ld()),
              kGemmTolerance, what);
  }
  return t;
}

// The tuned entry needs a measured policy: a user of use_tuned autotunes
// once at start-up, so set-up does too.
std::unique_ptr<LargeState> make_large(Run& run) {
  autotune_and_install(run);
  auto st = std::make_unique<LargeState>();
  Rng rng = stream_rng(run.seed, 1);
  for (const GemmShape& s : kLargeShapes) {
    LargeProduct p{s, strassen::random_matrix(s.m, s.k, rng),
                   strassen::random_matrix(s.k, s.n, rng), Matrix(s.m, s.n),
                   Matrix(), FreivaldsRef()};
    if (s.beta != 0.0) p.c0 = strassen::random_matrix(s.m, s.n, rng);
    strassen::fill(p.c.view(), 0.0);
    p.ref = FreivaldsRef(s.m, s.n, s.k, 1.0, p.a.data(), p.a.ld(), p.b.data(),
                         p.b.ld(), s.beta, p.c0.data(), p.c0.ld(), rng);
    st->p.push_back(std::move(p));
  }
  // Warm-up: the pool, per-thread pack scratch and the binding arena.
  for (int e = 0; e < kEntries; ++e) {
    timed_entry(run, static_cast<Entry>(e), st->p.back(), st->arena,
                Tracer::kNone);
  }
  return st;
}

void run_large_gemm(Run& run) {
  std::unique_ptr<LargeState> st =
      set_up<LargeState>(run, [&] { return make_large(run); });

  std::vector<std::pair<int, Entry>> slots;
  for (int i = 0; i < static_cast<int>(st->p.size()); ++i) {
    for (int e = 0; e < kEntries; ++e) slots.emplace_back(i, static_cast<Entry>(e));
  }
  Rng order = stream_rng(run.seed, 2);
  std::vector<double> round_s, round_gflops;
  std::vector<double> entry_gflops[kEntries];
  const ScopedSpan workload(run.tracer, "bench.workload");
  const Clock::time_point start = Clock::now();
  double last_round = 0;
  // The first round is the sampler's warm-up: every large workspace and
  // pack buffer reaches its final size in it. At least one more is measured.
  while (round_s.size() < 2 ||
         elapsed_since(start) + last_round <= run.seconds) {
    std::shuffle(slots.begin(), slots.end(), order.engine());
    const Clock::time_point r0 = Clock::now();
    const ScopedSpan round(run.tracer, "bench.round", workload.id());
    double call_s = 0, flops = 0;
    double e_s[kEntries] = {}, e_flops[kEntries] = {};
    for (const auto& [i, e] : slots) {
      LargeProduct& p = st->p[static_cast<std::size_t>(i)];
      const double t = timed_entry(run, e, p, st->arena, round.id());
      const double f = gemm_flops(p.s.m, p.s.n, p.s.k);
      call_s += t;
      flops += f;
      e_s[e] += t;
      e_flops[e] += f;
    }
    round_s.push_back(call_s);
    round_gflops.push_back(1e-9 * flops / call_s);
    for (int e = 0; e < kEntries; ++e) {
      entry_gflops[e].push_back(1e-9 * e_flops[e] / e_s[e]);
    }
    last_round = elapsed_since(r0);
  }

  run.e2e.set("gflops", summarize(round_gflops, 1), "GFLOP/s");
  run.e2e.set("p50_ms", summarize(round_s, 1), "ms", 1e3);
  run.layer.set("blas.dgemm_gflops", summarize(entry_gflops[kDgemm], 1),
                "GFLOP/s");
  run.layer.set("core.cabi_gflops", summarize(entry_gflops[kCabi], 1),
                "GFLOP/s");
  run.layer.set("core.tuned_gflops", summarize(entry_gflops[kTuned], 1),
                "GFLOP/s");
}

// ---------------------------------------------------------------------------
// isda: repeated ISDA solves (Table 6) through gemm_backend_dgefmm().
// ---------------------------------------------------------------------------

// Order of the solved matrices. The paper's Table 6 solves order 1000; this
// order keeps at least five solves inside one measured phase.
constexpr index_t kIsdaOrder = 640;
constexpr int kIsdaMatrices = 8;

struct IsdaState {
  std::vector<Matrix> a;  // seeded random symmetric matrices, solved in turn
  Rng check_rng{0};
};

struct SolveRecord {
  double seconds = 0, mm_seconds = 0, gemm_flops = 0;
  eigen::IsdaStats stats;
};

// One ISDA solve of `a` through `backend`, wrapped so that every GEMM call
// is counted (and spanned when tracing); the decomposition is checked.
SolveRecord solve(Run& run, IsdaState& st, const Matrix& a,
                  const core::GemmFn& backend, std::uint32_t parent,
                  const char* what) {
  SolveRecord rec;
  eigen::IsdaOptions opts;
  opts.base_size = 32;
  const ScopedSpan span(run.tracer, "eigen.solve", parent);
  const std::uint32_t solve_id = span.id();
  opts.gemm = [&](Trans ta, Trans tb, index_t m, index_t n, index_t k,
                  double alpha, const double* pa, index_t lda,
                  const double* pb, index_t ldb, double beta, double* pc,
                  index_t ldc) {
    rec.gemm_flops += gemm_flops(m, n, k);
    const ScopedSpan call(run.tracer, "core.gemm_fn", solve_id);
    backend(ta, tb, m, n, k, alpha, pa, lda, pb, ldb, beta, pc, ldc);
  };
  const Clock::time_point t0 = Clock::now();
  eigen::IsdaResult res = eigen::isda_eigensolver(a.view(), opts);
  rec.seconds = elapsed_since(t0);
  rec.mm_seconds = res.stats.mm_seconds;
  rec.stats = res.stats;
  const EigenResiduals r =
      eigen_residuals(a, res.eigenvectors, res.eigenvalues, st.check_rng);
  const bool sorted =
      std::is_sorted(res.eigenvalues.begin(), res.eigenvalues.end()) &&
      static_cast<index_t>(res.eigenvalues.size()) == a.rows();
  if (!sorted) {
    run.fail(std::string(what) + " eigenvalues not ascending");
  } else {
    run.check(std::max(r.residual, r.orthogonality), kEigenTolerance, what);
  }
  return rec;
}

std::unique_ptr<IsdaState> make_isda(Run& run) {
  auto st = std::make_unique<IsdaState>();
  Rng rng = stream_rng(run.seed, 3);
  for (int i = 0; i < kIsdaMatrices; ++i) {
    st->a.emplace_back(kIsdaOrder, kIsdaOrder);
    strassen::fill_random_symmetric(st->a.back().view(), rng);
  }
  st->check_rng = stream_rng(run.seed, 4);
  // Warm-up: one small solve brings up the pool and the solver's buffers.
  Matrix small(96, 96);
  strassen::fill_random_symmetric(small.view(), rng);
  solve(run, *st, small, core::gemm_backend_dgefmm(), Tracer::kNone,
        "isda warm-up");
  return st;
}

void run_isda(Run& run) {
  std::unique_ptr<IsdaState> st =
      set_up<IsdaState>(run, [&] { return make_isda(run); });
  const core::GemmFn backend = core::gemm_backend_dgefmm();

  std::vector<SolveRecord> recs;
  const ScopedSpan workload(run.tracer, "bench.workload");
  const Clock::time_point start = Clock::now();
  // The first solve is the sampler's warm-up (the backend's shared arena
  // grows to its final size in it); at least one more is measured.
  while (recs.size() < 2 ||
         elapsed_since(start) + recs.back().seconds <= run.seconds) {
    const Matrix& a = st->a[recs.size() % st->a.size()];
    recs.push_back(solve(run, *st, a, backend, workload.id(), "isda solve"));
  }

  std::vector<double> secs, gflops, mm, share, mm_gflops, calls, iters;
  for (const SolveRecord& r : recs) {
    secs.push_back(r.seconds);
    gflops.push_back(1e-9 * r.gemm_flops / r.seconds);
    mm.push_back(r.mm_seconds);
    share.push_back(r.mm_seconds / r.seconds);
    mm_gflops.push_back(1e-9 * r.gemm_flops / r.mm_seconds);
    calls.push_back(static_cast<double>(r.stats.gemm_calls));
    iters.push_back(static_cast<double>(r.stats.beta_iterations));
  }
  run.e2e.set("gflops", summarize(gflops, 1), "GFLOP/s");
  run.e2e.set("p50_ms", summarize(secs, 1), "ms", 1e3);
  run.layer.set("eigen.mm_s", summarize(mm, 1), "s");
  run.layer.set("eigen.mm_share", summarize(share, 1), "ratio");
  run.layer.set("eigen.mm_gflops", summarize(mm_gflops, 1), "GFLOP/s");
  run.layer.set("eigen.gemm_calls", summarize(calls, 1), "count");
  run.layer.set("eigen.beta_iterations", summarize(iters, 1), "count");

  if (run.traced) {
    // Table 6: the same matrix through DGEMM and through DGEFMM.
    const SolveRecord base = solve(run, *st, st->a[0],
                                   core::gemm_backend_dgemm(), Tracer::kNone,
                                   "isda dgemm solve");
    const SolveRecord fast =
        solve(run, *st, st->a[0], backend, Tracer::kNone, "isda solve");
    run.layer.set("eigen.table6_ratio", fast.seconds / base.seconds, "x");
  }
}

// ---------------------------------------------------------------------------
// serve_mixed / serve_skinny: open loop, seeded Poisson arrivals from one
// generator thread into serve::Queue, completions taken by one collector
// thread, over a ladder of fixed absolute rates.
// ---------------------------------------------------------------------------

struct ServeClass {
  index_t m, k, n;
  double beta;
  bool packed;  // carries a prepacked B handle built in set-up
  int per_deck;  // arrivals of this class in every deck (see deck())
};

// Rates in requests per second and the latency limit, fixed once from the
// seed commit's saturated throughput on the reference host (README.md):
// low ~25%, nominal ~50% and overload ~150% of it. The end-to-end p50 is
// taken at the low rung, where queueing adds little to the service time;
// at the nominal rung it mostly measures queueing and varies too much
// between runs to carry a bound (it is a per-layer metric instead).
struct Ladder {
  double low_rps, nominal_rps, overload_rps, limit_ms;
};
constexpr Ladder kMixedLadder{120.0, 235.0, 700.0, 400.0};
constexpr Ladder kSkinnyLadder{100.0, 200.0, 580.0, 400.0};

// Share of --seconds each rung runs for (low, nominal, overload).
constexpr double kRungShare[3] = {0.4, 0.35, 0.25};
constexpr double kBlockSeconds = 1.0;
constexpr const char* kRungName[3] = {"bench.rung_low", "bench.rung_nominal",
                                      "bench.rung_overload"};
enum Rung { kLow, kNominal, kOverload };

constexpr std::size_t kQueueCap = 64;
constexpr int kServeWorkers = 2;
constexpr index_t kSampledRows = 16;  // rows of C checked per ticket

std::vector<ServeClass> serve_classes(bool skinny) {
  std::vector<ServeClass> c;
  if (!skinny) {
    // About equal bytes per class: small requests arrive more often.
    const std::pair<index_t, int> sizes[] = {
        {256, 16}, {384, 7}, {512, 4}, {768, 2}, {1024, 1}};
    for (const auto& [n, count] : sizes) {
      for (const double beta : {0.0, 1.0}) {
        c.push_back({n, n, n, beta, false, count});
      }
    }
  } else {
    for (const index_t kn : {1024, 2048}) {
      for (const index_t m : {8, 16, 32, 64}) {
        for (const bool packed : {false, true}) {
          c.push_back({m, kn, kn, 0.0, packed, 1});
        }
      }
    }
  }
  return c;
}

// One deck: every class index repeated per_deck times.
std::vector<int> deck(const std::vector<ServeClass>& classes) {
  std::vector<int> d;
  for (std::size_t i = 0; i < classes.size(); ++i) {
    d.insert(d.end(), static_cast<std::size_t>(classes[i].per_deck),
             static_cast<int>(i));
  }
  return d;
}

// Whether the queue runs a request of this class on the task-DAG driver (it
// does when the default cutoff recurses) or on the serial one; the exact
// admission price follows from that choice.
bool runs_dag(const ServeClass& c) {
  const core::CutoffCriterion cut =
      core::CutoffCriterion::paper_default(blas::active_machine());
  return c.m >= 2 && c.k >= 2 && c.n >= 2 && !cut.stop(c.m, c.k, c.n, 0);
}

std::size_t request_price(const ServeClass& c) {
  if (runs_dag(c)) {
    const parallel::ParallelDgefmmConfig cfg;
    return static_cast<std::size_t>(
        parallel::plan_dag<double>(c.m, c.n, c.k, cfg).workspace);
  }
  return static_cast<std::size_t>(
      core::workspace_doubles(c.m, c.n, c.k, c.beta, core::DgefmmConfig{}));
}

struct ClassState {
  ServeClass cls;
  const Matrix* a = nullptr;
  const Matrix* b = nullptr;
  const Matrix* c0 = nullptr;
  const blas::PackedOperand* pack = nullptr;
  FreivaldsRef ref;
  std::mutex mu;  // guards free (generator takes, collector returns)
  std::vector<std::unique_ptr<Matrix>> free;

  std::unique_ptr<Matrix> take() {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (!free.empty()) {
        std::unique_ptr<Matrix> c = std::move(free.back());
        free.pop_back();
        return c;
      }
    }
    return fresh();
  }
  std::unique_ptr<Matrix> fresh() const {
    auto c = std::make_unique<Matrix>(cls.m, cls.n);
    if (c0 != nullptr) {
      strassen::copy(c0->view(), c->view());
    } else {
      strassen::fill(c->view(), 0.0);
    }
    return c;
  }
  void give_back(std::unique_ptr<Matrix> c, bool written) {
    if (written && c0 != nullptr) strassen::copy(c0->view(), c->view());
    std::lock_guard<std::mutex> lock(mu);
    free.push_back(std::move(c));
  }

  serve::GemmRequest request(Matrix& c) const {
    serve::GemmRequest r;
    r.m = cls.m;
    r.n = cls.n;
    r.k = cls.k;
    r.a = a->data();
    r.lda = a->ld();
    r.b = b->data();
    r.ldb = b->ld();
    r.beta = cls.beta;
    r.c = c.data();
    r.ldc = c.ld();
    r.packed_b = pack;
    return r;
  }
};

struct ServeState {
  std::vector<ServeClass> classes;
  std::map<std::pair<index_t, index_t>, Matrix> as, bs, c0s;
  std::map<std::pair<index_t, index_t>, blas::PackedOperand> packs;
  std::vector<std::unique_ptr<ClassState>> cs;
  std::unique_ptr<serve::Queue> queue;
};

// One finished request as the collector saw it.
struct Outcome {
  int rung = 0, cls = 0;
  serve::RequestStatus status = serve::RequestStatus::failed;
  double latency_ms = 0, lag_ms = 0, submit_us = 0;
  bool in_block = false;  // reached its terminal state before its block ended
};

struct InFlight {
  serve::Ticket ticket;
  Clock::time_point due, entry, exit, block_end;
  int rung = 0, cls = 0;
  std::uint64_t id = 0;
  std::uint32_t rung_span = Tracer::kNone;
  std::unique_ptr<Matrix> c;
};

// Waits for tickets in submission order, checks each completed C on
// sampled rows, records the outcome and recycles the buffer.
class Collector {
 public:
  Collector(Run& run, ServeState& st) : run_(run), st_(st) {
    thread_ = std::thread([this] { loop(); });
  }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;
  ~Collector() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  void push(InFlight f) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      q_.push_back(std::move(f));
      ++pushed_;
    }
    cv_.notify_all();
  }

  /// Blocks until every pushed request was collected.
  void drain() {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return done_ == pushed_; });
  }

  /// Outcomes so far (call after drain()).
  const std::vector<Outcome>& outcomes() const { return outcomes_; }

 private:
  void loop() {
    for (;;) {
      InFlight f;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stop_ || !q_.empty(); });
        if (q_.empty()) return;
        f = std::move(q_.front());
        q_.pop_front();
      }
      collect(f);
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++done_;
      }
      done_cv_.notify_all();
    }
  }

  void collect(InFlight& f) {
    f.ticket.wait();
    ClassState& cs = *st_.cs[static_cast<std::size_t>(f.cls)];
    Outcome o;
    o.rung = f.rung;
    o.cls = f.cls;
    o.status = f.ticket.status();
    o.lag_ms = ms_since(f.due, f.entry);
    o.submit_us = 1e3 * ms_since(f.entry, f.exit);
    o.latency_ms = o.lag_ms + f.ticket.latency_ms();
    o.in_block = f.due + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::milli>(
                                 o.latency_ms)) <=
                 f.block_end;
    const bool done = o.status == serve::RequestStatus::completed;
    const std::string what = "serve request " + std::to_string(f.id);
    if (done) {
      run_.check(cs.ref.residual(f.c->data(), cs.cls.m, cs.cls.n, f.c->ld(),
                                 kSampledRows, f.id * 7919u),
                 kGemmTolerance, what);
    } else if (o.status == serve::RequestStatus::failed || f.rung != kOverload) {
      // Refusal is the designed overload response (it counts against
      // goodput); anywhere else, and any failed ticket, is a failure.
      run_.fail(what + " " + serve::request_status_name(o.status));
    } else {
      run_.refused();
    }
    if (run_.tracer.on()) {
      const auto terminal =
          std::max(f.exit, f.entry + std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::duration<double, std::milli>(
                                             f.ticket.latency_ms())));
      const std::uint64_t tid = 1 + f.id;
      const std::uint32_t req =
          run_.tracer.add("serve.request", f.due, terminal, f.rung_span, tid);
      run_.tracer.add("bench.gen_lag", f.due, f.entry, req, tid);
      run_.tracer.add("serve.submit", f.entry, f.exit, req, tid);
    }
    if (f.c != nullptr) cs.give_back(std::move(f.c), done);
    outcomes_.push_back(o);
  }

  Run& run_;
  ServeState& st_;
  std::mutex mu_;  // guards q_, pushed_, done_, stop_
  std::condition_variable cv_, done_cv_;
  std::deque<InFlight> q_;
  std::uint64_t pushed_ = 0, done_ = 0;
  bool stop_ = false;
  std::vector<Outcome> outcomes_;  // collector thread only until drain()
  std::thread thread_;  // last: starts after every member it uses
};

std::unique_ptr<ServeState> make_serve(Run& run, bool skinny) {
  auto st = std::make_unique<ServeState>();
  st->classes = serve_classes(skinny);
  Rng rng = stream_rng(run.seed, 5);
  double deck_size = 0;
  std::size_t budget = 0;
  for (const ServeClass& c : st->classes) {
    deck_size += c.per_deck;
    budget = std::max(budget, request_price(c));
    if (!st->as.count({c.m, c.k})) {
      st->as.emplace(std::make_pair(c.m, c.k),
                     strassen::random_matrix(c.m, c.k, rng));
    }
    if (!st->bs.count({c.k, c.n})) {
      st->bs.emplace(std::make_pair(c.k, c.n),
                     strassen::random_matrix(c.k, c.n, rng));
    }
    if (c.beta != 0.0 && !st->c0s.count({c.m, c.n})) {
      st->c0s.emplace(std::make_pair(c.m, c.n),
                      strassen::random_matrix(c.m, c.n, rng));
    }
    if (c.packed && !st->packs.count({c.k, c.n})) {
      const Matrix& b = st->bs.at({c.k, c.n});
      st->packs.emplace(std::make_pair(c.k, c.n),
                        blas::gefmm_pack_b<double>(b.view()));
    }
  }
  for (const ServeClass& c : st->classes) {
    auto cs = std::make_unique<ClassState>();
    cs->cls = c;
    cs->a = &st->as.at({c.m, c.k});
    cs->b = &st->bs.at({c.k, c.n});
    if (c.beta != 0.0) cs->c0 = &st->c0s.at({c.m, c.n});
    if (c.packed) cs->pack = &st->packs.at({c.k, c.n});
    cs->ref = FreivaldsRef(c.m, c.n, c.k, 1.0, cs->a->data(), cs->a->ld(),
                           cs->b->data(), cs->b->ld(), c.beta,
                           cs->c0 ? cs->c0->data() : nullptr,
                           cs->c0 ? cs->c0->ld() : 1, rng);
    // Buffers for twice the class's expected share of a full queue, so the
    // steady state never allocates.
    const double share = c.per_deck / deck_size;
    const std::size_t ring = static_cast<std::size_t>(
        2.0 * share * static_cast<double>(kQueueCap + kServeWorkers + 8) + 3.0);
    for (std::size_t i = 0; i < ring; ++i) cs->free.push_back(cs->fresh());
    st->cs.push_back(std::move(cs));
  }
  serve::ServeOptions opt;
  opt.queue_cap = kQueueCap;
  opt.policy = serve::OverflowPolicy::reject;
  // The two largest requests at once (0, unlimited, when none needs any).
  opt.budget_elements = 2 * budget;
  opt.workers = kServeWorkers;
  st->queue = std::make_unique<serve::Queue>(opt);
  // Warm-up: a queue-full burst of the class mix, so the workspace pool's
  // leases and every thread's pack scratch reach their steady sizes.
  std::vector<std::pair<serve::Ticket, std::unique_ptr<Matrix>>> burst;
  const std::vector<int> d = deck(st->classes);
  for (std::size_t i = 0; i < kQueueCap; ++i) {
    ClassState& cs = *st->cs[static_cast<std::size_t>(d[i % d.size()])];
    std::unique_ptr<Matrix> c = cs.take();
    serve::Ticket t = st->queue->submit(cs.request(*c));
    burst.emplace_back(std::move(t), std::move(c));
  }
  for (std::size_t i = 0; i < burst.size(); ++i) {
    auto& [t, c] = burst[i];
    ClassState& cs = *st->cs[static_cast<std::size_t>(d[i % d.size()])];
    if (t.wait() != 0) {
      run.fail("serve warm-up " + std::to_string(i));
    } else {
      run.check(cs.ref.residual(c->data(), cs.cls.m, cs.cls.n, c->ld()),
                kGemmTolerance, "serve warm-up");
    }
    cs.give_back(std::move(c), true);
  }
  return st;
}

// Median wall time of each class run directly through the driver the queue
// dispatches it to (the service time a request would see with no queue).
std::vector<double> replay_service_ms(ServeState& st) {
  std::vector<double> out;
  strassen::Arena arena;
  for (const auto& csp : st.cs) {
    const ClassState& cs = *csp;
    const ServeClass& c = cs.cls;
    std::unique_ptr<Matrix> cm = cs.fresh();
    const serve::GemmRequest r = cs.request(*cm);
    std::function<void()> call;
    if (runs_dag(c)) {
      parallel::ParallelDgefmmConfig cfg;
      arena.reserve(std::max<std::size_t>(
          arena.capacity(), static_cast<std::size_t>(
                                parallel::plan_dag<double>(c.m, c.n, c.k, cfg)
                                    .workspace)));
      cfg.workspace = &arena;
      call = [&, cfg] {
        (void)parallel::dgefmm_parallel(Trans::no, Trans::no, r.m, r.n, r.k,
                                        1.0, r.a, r.lda, r.b, r.ldb, r.beta,
                                        r.c, r.ldc, cfg);
      };
    } else {
      core::DgefmmConfig cfg;
      cfg.packed_b = cs.pack;
      cfg.workspace = &arena;
      call = [&, cfg] {
        (void)core::dgefmm(Trans::no, Trans::no, r.m, r.n, r.k, 1.0, r.a,
                           r.lda, r.b, r.ldb, r.beta, r.c, r.ldc, cfg);
      };
    }
    out.push_back(1e3 * sample(call, 5).median);
  }
  return out;
}

double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  return quantile(v, p);
}

void run_serve(Run& run, bool skinny) {
  const Ladder ladder = skinny ? kSkinnyLadder : kMixedLadder;
  std::unique_ptr<ServeState> st =
      set_up<ServeState>(run, [&] { return make_serve(run, skinny); });

  // Classes are dealt from shuffled decks, so every run serves the same
  // mix in a seeded order.
  std::vector<int> cards = deck(st->classes);
  std::size_t dealt = cards.size();
  Rng rng = stream_rng(run.seed, 6);
  auto deal = [&] {
    if (dealt == cards.size()) {
      std::shuffle(cards.begin(), cards.end(), rng.engine());
      dealt = 0;
    }
    return cards[dealt++];
  };
  const double rates[3] = {ladder.low_rps, ladder.nominal_rps,
                           ladder.overload_rps};
  // Each rung runs as blocks of about kBlockSeconds, interleaved low,
  // nominal, overload, ... over the whole phase, so a slow stretch of the
  // host lands on every rung alike instead of on one.
  std::vector<int> blocks;
  int nblocks[3];
  for (int r = 0; r < 3; ++r) {
    nblocks[r] = std::max(
        1, static_cast<int>(std::lround(kRungShare[r] * run.seconds / kBlockSeconds)));
  }
  for (int i = 0; i < *std::max_element(nblocks, nblocks + 3); ++i) {
    for (int r = 0; r < 3; ++r) {
      if (i < nblocks[r]) blocks.push_back(r);
    }
  }
  double overload_s = 0;
  std::uint64_t next_id = 0;

  const ScopedSpan workload(run.tracer, "bench.workload");
  {
    Collector collector(run, *st);
    for (const int rung : blocks) {
      const double duration = kRungShare[rung] * run.seconds / nblocks[rung];
      std::exponential_distribution<double> gap(rates[rung]);
      std::vector<std::pair<double, int>> arrivals;
      for (double t = gap(rng.engine()); t < duration; t += gap(rng.engine())) {
        arrivals.emplace_back(t, deal());
      }
      const ScopedSpan rspan(run.tracer, kRungName[rung], workload.id());
      const Clock::time_point t0 = Clock::now();
      const Clock::time_point block_end =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(duration));
      if (rung == kOverload) overload_s += duration;
      for (const auto& [t, cls] : arrivals) {
        ClassState& cs = *st->cs[static_cast<std::size_t>(cls)];
        InFlight f;
        f.block_end = block_end;
        f.due = t0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(t));
        std::this_thread::sleep_until(f.due);
        f.c = cs.take();
        const serve::GemmRequest req = cs.request(*f.c);
        f.entry = Clock::now();
        f.ticket = st->queue->submit(req);
        f.exit = Clock::now();
        // A request refused at admission never touches C: recycle its
        // buffer now instead of holding it until the collector gets there.
        if (f.ticket.done() &&
            f.ticket.status() != serve::RequestStatus::completed) {
          cs.give_back(std::move(f.c), false);
        }
        f.rung = rung;
        f.cls = cls;
        f.id = next_id++;
        f.rung_span = rspan.id();
        collector.push(std::move(f));
      }
      collector.drain();
    }
    const std::vector<Outcome>& out = collector.outcomes();

    std::vector<double> nominal, low, lag, submit, packed, fresh;
    double good = 0, good_flops = 0;
    for (const Outcome& o : out) {
      lag.push_back(o.lag_ms);
      submit.push_back(o.submit_us);
      if (o.status != serve::RequestStatus::completed) continue;
      const ServeClass& c = st->classes[static_cast<std::size_t>(o.cls)];
      if (o.rung == kLow) low.push_back(o.latency_ms);
      if (o.rung == kNominal) {
        nominal.push_back(o.latency_ms);
        (c.packed ? packed : fresh).push_back(o.latency_ms);
      }
      // Goodput counts work finished inside the overload blocks, while the
      // workers are saturated; the backlog drained after a block is left
      // out, so the rate does not depend on how full the queue was then.
      if (o.rung == kOverload && o.in_block &&
          o.latency_ms <= ladder.limit_ms) {
        good += 1;
        good_flops += gemm_flops(c.m, c.n, c.k);
      }
    }
    run.e2e.set("gflops", 1e-9 * good_flops / overload_s, "GFLOP/s");
    run.e2e.set("p50_ms", summarize(low), "ms");
    run.layer.set("serve.p50_ms", summarize(nominal), "ms");
    run.layer.set("serve.p99_ms", percentile(nominal, 0.99), "ms");
    run.layer.set("serve.low_p50_ms", summarize(low), "ms");
    run.layer.set("serve.goodput_rps", good / overload_s, "req/s");
    run.layer.set("serve.submit_us_p50", summarize(submit), "us");
    run.layer.set("serve.gen_lag_ms_p99", percentile(lag, 0.99), "ms");
    run.layer.set("serve.prepacked_p50_ms", summarize(packed), "ms");
    run.layer.set("serve.fresh_p50_ms", summarize(fresh), "ms");

    if (run.traced) {
      const std::vector<double> service = replay_service_ms(*st);
      std::vector<double> svc, wait;
      for (const Outcome& o : out) {
        if (o.rung != kNominal || o.status != serve::RequestStatus::completed) {
          continue;
        }
        const double s = service[static_cast<std::size_t>(o.cls)];
        svc.push_back(s);
        wait.push_back(o.latency_ms - s);
      }
      run.layer.set("serve.service_ms_p50", summarize(svc), "ms");
      run.layer.set("serve.wait_ms_p50", summarize(wait), "ms");
    }
  }
  const serve::ServingStats s = st->queue->stats();
  run.layer.set("serve.peak_queue_depth", static_cast<double>(s.peak_queue_depth),
                "count");
  run.layer.set("serve.pool_peak_mb", 8.0 * static_cast<double>(s.pool_peak) / kMiB,
                "MB");
  run.layer.set("serve.rejected", static_cast<double>(s.rejected), "count");
  run.layer.set("serve.shed", static_cast<double>(s.shed), "count");
  run.layer.set("serve.expired", static_cast<double>(s.expired), "count");
  run.layer.set("serve.pack_hits", static_cast<double>(s.gefmm.pack_hits),
                "count");
  run.layer.set("serve.pack_misses", static_cast<double>(s.gefmm.pack_misses),
                "count");
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Per-span recording cost, measured on a scratch tracer.
double span_cost_seconds() {
  Tracer t(true);
  constexpr int kSpans = 20000;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) t.close(t.open("bench.probe"));
  return elapsed_since(t0) / kSpans;
}

void tracing_metrics(Run& run) {
  const std::map<std::string, double> self = run.tracer.self_seconds();
  for (const char* l : {"bench", "blas", "core", "eigen", "serve"}) {
    const auto it = self.find(l);
    run.layer.set(std::string(l) + ".self_s", it == self.end() ? 0.0 : it->second,
                  "s");
  }
  const double spans = static_cast<double>(run.tracer.size());
  run.layer.set("trace.overhead_pct",
                100.0 * spans * span_cost_seconds() / run.seconds, "%");
}

// The environment a result was measured in; compare.py refuses to compare
// results whose stamps differ.
std::string env_json() {
  const int gt = blas::gemm_threads();
  const std::size_t pool = parallel::global_pool().size();
  std::string s = "{\"kernel\": " + json_str(blas::active_kernel().name) +
                  ", \"pool\": " + std::to_string(pool) +
                  ", \"nproc\": " +
                  std::to_string(std::thread::hardware_concurrency()) +
                  ", \"gemm_threads\": " +
                  std::to_string(gt == 0 ? static_cast<int>(pool) : gt) +
                  ", \"strassen_env\": {";
  bool first = true;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv(*e);
    if (kv.rfind("STRASSEN_", 0) != 0) continue;
    const std::size_t eq = kv.find('=');
    s += (first ? "" : ", ") + json_str(kv.substr(0, eq)) + ": " +
         json_str(eq == std::string::npos ? "" : kv.substr(eq + 1));
    first = false;
  }
  return s + "}}";
}

// Scheme crossovers of every set-up repetition, and the route the tuned
// path takes per large_gemm shape under each (a flip between repetitions
// or runs shows here).
std::string tuning_json(const Run& run, int* flips) {
  std::string s = "[";
  std::map<std::string, std::string> first;
  *flips = 0;
  for (std::size_t i = 0; i < run.tunes.size(); ++i) {
    const tuning::TunedCriteria& c = run.tunes[i];
    const core::TunedPolicy p = tuning::policy_from_criteria(c);
    s += std::string(i ? ", " : "") + "{\"seconds\": " +
         json_num(run.autotune_seconds[i]) + ", \"tau_fused\": " +
         json_num(c.tau_fused) + ", \"tau_fused2\": " + json_num(c.tau_fused2) +
         ", \"tau_hybrid\": " + json_num(c.tau_hybrid) +
         ", \"tau_s2\": " + json_num(c.tau_s2) +
         ", \"tau_dag\": " + json_num(c.tau_dag) + ", \"routes\": {";
    for (std::size_t j = 0; j < std::size(kLargeShapes); ++j) {
      const GemmShape& g = kLargeShapes[j];
      const std::string route =
          core::tuned_path_name(core::tuned_path_for(p, g.m, g.k, g.n, 1));
      s += std::string(j ? ", " : "") + json_str(shape_key(g)) + ": " +
           json_str(route);
      if (i == 0) {
        first[shape_key(g)] = route;
      } else if (first[shape_key(g)] != route) {
        ++*flips;
      }
    }
    s += "}}";
  }
  return s + "]";
}

struct Options {
  std::string workload, out, trace_file;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool self_test = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perf_bench: %s\nusage: perf_bench --workload "
               "<large_gemm|isda|serve_mixed|serve_skinny> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <file>] [--trace-file "
               "<file>]\n       perf_bench --self-test\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") {
      o.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end != v.c_str() && *end == '\0';
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(o.seconds > 0) ||
          o.seconds > 600) {
        usage("--seconds must be in (0, 600]");
      }
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      o.trace = v == "1";
    } else if (a == "--out") {
      o.out = v;
    } else if (a == "--trace-file") {
      o.trace_file = v;
    } else {
      usage("unknown argument " + a);
    }
  }
  if (o.self_test) return o;
  if (o.workload != "large_gemm" && o.workload != "isda" &&
      o.workload != "serve_mixed" && o.workload != "serve_skinny") {
    usage("unknown workload '" + o.workload + "'");
  }
  if (!have_seed) usage("--seed must be an unsigned integer");
  if (o.seconds <= 0) usage("--seconds is required");
  if (o.trace < 0) usage("--trace is required");
  return o;
}

// The checker must flag a corrupted product and a corrupted eigenbasis, and
// pass the uncorrupted ones.
int self_test() {
  int bad = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++bad;
  };
  Rng rng(7);
  const index_t m = 301, k = 203, n = 257;
  const Matrix a = strassen::random_matrix(m, k, rng);
  const Matrix b = strassen::random_matrix(k, n, rng);
  const Matrix c0 = strassen::random_matrix(m, n, rng);
  Matrix c(m, n);
  strassen::copy(c0.view(), c.view());
  expect(strassen_dgefmm('N', 'N', m, n, k, 1.5, a.data(), a.ld(), b.data(),
                         b.ld(), 0.5, c.data(), c.ld()) == 0,
         "strassen_dgefmm succeeds");
  const FreivaldsRef ref(m, n, k, 1.5, a.data(), a.ld(), b.data(), b.ld(), 0.5,
                         c0.data(), c0.ld(), rng);
  expect(ref.residual(c.data(), m, n, c.ld()) <= kGemmTolerance,
         "correct product passes");
  const double saved = c(123, 45);
  c(123, 45) += 1e-5;
  expect(!(ref.residual(c.data(), m, n, c.ld()) <= kGemmTolerance),
         "product with one entry off by 1e-5 is flagged");
  c(123, 45) = std::nan("");
  expect(!(ref.residual(c.data(), m, n, c.ld()) <= kGemmTolerance),
         "product with a NaN entry is flagged");
  c(123, 45) = saved;
  // The sampled check sees row (first + r * (m / rows)) % m.
  c(19 % m, 7) += 1e-3;
  expect(!(ref.residual(c.data(), m, n, c.ld(), kSampledRows, 19) <=
           kGemmTolerance),
         "sampled check flags a corrupted sampled row");

  Matrix s(96, 96);
  strassen::fill_random_symmetric(s.view(), rng);
  eigen::IsdaOptions opts;
  opts.base_size = 32;
  opts.gemm = core::gemm_backend_dgefmm();
  eigen::IsdaResult res = eigen::isda_eigensolver(s.view(), opts);
  EigenResiduals r = eigen_residuals(s, res.eigenvectors, res.eigenvalues, rng);
  expect(std::max(r.residual, r.orthogonality) <= kEigenTolerance,
         "correct eigendecomposition passes");
  res.eigenvectors(40, 17) += 1e-5;
  r = eigen_residuals(s, res.eigenvectors, res.eigenvalues, rng);
  expect(!(std::max(r.residual, r.orthogonality) <= kEigenTolerance),
         "eigenbasis with one entry off by 1e-5 is flagged");
  return bad == 0 ? 0 : 1;
}

}  // namespace

void autotune_and_install(Run& run) {
  tuning::AutotuneOptions opts;
  opts.min_size = 256;
  opts.max_size = 1536;
  opts.reps = 2;
  opts.dag_threads = parallel::global_pool().size();
  const Clock::time_point t0 = Clock::now();
  tuning::TunedCriteria c = tuning::autotune_double(opts);
  if (!tuning::install_criteria(c)) {
    throw std::runtime_error("install_criteria refused fresh criteria");
  }
  run.autotune_seconds.push_back(elapsed_since(t0));
  run.tunes.push_back(std::move(c));
}

}  // namespace perf

int main(int argc, char** argv) {
  using namespace perf;
  const Options opt = parse(argc, argv);
  if (opt.self_test) return self_test();
#ifdef __GLIBC__
  // glibc raises its mmap threshold as large blocks are freed, and how much
  // freed memory the heap then retains depends on thread timing: peak RSS
  // varied by 10% between identical runs. A fixed threshold returns every
  // large block on free, so peak_rss_mb measures memory actually held.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif

  Run run(opt.workload, opt.seed, opt.seconds, opt.trace == 1);
  try {
    if (opt.workload == "large_gemm") {
      run_large_gemm(run);
    } else if (opt.workload == "isda") {
      run_isda(run);
    } else {
      run_serve(run, opt.workload == "serve_skinny");
    }
    run.e2e.set("peak_rss_mb", peak_rss_mb(), "MB");
    if (run.traced) {
      tracing_metrics(run);
      run_layer_probes(run);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_bench: %s\n", e.what());
    return 1;
  }

  int flips = 0;
  const std::string tunes = tuning_json(run, &flips);
  run.layer.set("tuning.autotune_s", summarize(run.autotune_seconds), "s");
  run.layer.set("tuning.route_flips", flips, "count");
  run.layer.set("core.max_rel_err", run.max_rel_err, "ratio");

  // The reported set is exactly BENCHMARK.json's list for the mode; a
  // per-layer metric whose layer did no work in this workload reads 0.
  Report shown;
  const Report& measured = run.traced ? run.layer : run.e2e;
  for (const MetricName& mn : run.traced ? std::span<const MetricName>(kPerLayer)
                                         : std::span<const MetricName>(kEndToEnd)) {
    Metric m = measured.has(mn.name) ? measured.get(mn.name) : Metric{};
    m.unit = mn.unit;
    shown.put(mn.name, m);
  }
  if (run.traced && !opt.trace_file.empty() &&
      !run.tracer.write(opt.trace_file)) {
    std::fprintf(stderr, "perf_bench: cannot write %s\n",
                 opt.trace_file.c_str());
    return 1;
  }
  shown.print_lines(stdout);
  for (const std::string& e : run.errors) {
    std::fprintf(stderr, "perf_bench: check failed: %s\n", e.c_str());
  }

  const bool correct = run.failed == 0;
  if (!opt.out.empty()) {
    std::FILE* f = std::fopen(opt.out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "perf_bench: cannot write %s\n", opt.out.c_str());
      return 1;
    }
    std::string errors = "[";
    for (std::size_t i = 0; i < run.errors.size(); ++i) {
      errors += (i ? ", " : "") + json_str(run.errors[i]);
    }
    errors += "]";
    std::fprintf(
        f,
        "{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
        "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"fail_ratio\": %s, \"max_rel_err\": %s, \"end_to_end\": %s, "
        "\"per_layer\": %s, \"tracing\": {\"spans\": %zu, \"nesting_errors\": "
        "%zu}, \"env\": %s, \"autotune\": %s, \"errors\": %s}\n",
        json_str(run.workload).c_str(),
        static_cast<unsigned long long>(run.seed), json_num(run.seconds).c_str(),
        run.traced ? 1 : 0, correct ? "true" : "false",
        static_cast<unsigned long long>(run.attempted),
        static_cast<unsigned long long>(run.failed),
        json_num(static_cast<double>(run.failed) /
                 static_cast<double>(std::max<std::uint64_t>(run.attempted, 1)))
            .c_str(),
        json_num(run.max_rel_err).c_str(), run.e2e.json(true).c_str(),
        (run.traced ? shown : run.layer).json(true).c_str(), run.tracer.size(),
        run.tracer.nesting_errors(), env_json().c_str(), tunes.c_str(),
        errors.c_str());
    std::fclose(f);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": "
      "%s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(std::max<std::uint64_t>(run.attempted, 1)),
      static_cast<unsigned long long>(run.failed), shown.json(false).c_str());
  return correct ? 0 : 1;
}
