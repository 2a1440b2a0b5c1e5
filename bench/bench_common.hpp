// Shared plumbing for the table/figure reproduction benchmarks.
//
// Every bench runs in a reduced "smoke" mode by default so the whole suite
// finishes in minutes; set STRASSEN_BENCH_FULL=1 for paper-scale problem
// sizes (the paper swept square orders to ~2200 and rectangular dimensions
// to ~2050).
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>

#include "blas/gemm.hpp"
#include "blas/kernels.hpp"
#include "blas/machine.hpp"
#include "blas/packed_loop.hpp"
#include "core/dgefmm.hpp"
#include "support/matrix.hpp"
#include "support/random.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "support/timing.hpp"

namespace strassen::bench {

/// True when STRASSEN_BENCH_FULL=1 (paper-scale sizes).
inline bool full_mode() {
  const char* env = std::getenv("STRASSEN_BENCH_FULL");
  return env != nullptr && std::string(env) == "1";
}

/// Picks the smoke or full value.
template <class T>
T pick(T smoke, T full) {
  return full_mode() ? full : smoke;
}

/// Thread budget the parallel benches sweep up to. STRASSEN_BENCH_THREADS=N
/// overrides; 0/unset resolves to the pool size. The override exists so a
/// bench host whose pool defaults small (CI containers often report one
/// hardware thread) can still exercise multi-lane schedules -- the DAG
/// planner deliberately does not clamp lanes to workers.
inline std::size_t bench_threads() {
  const char* env = std::getenv("STRASSEN_BENCH_THREADS");
  if (env != nullptr && *env != '\0') {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  const std::size_t pool = parallel::global_pool().size();
  return pool != 0 ? pool : 1;
}

/// Prints the standard bench banner, including the micro-kernel variant and
/// intra-GEMM thread setting the timed runs will use (the two knobs that
/// dominate the absolute rates; see DESIGN.md section 9).
inline void banner(const std::string& what, const std::string& paper_ref) {
  std::cout << "=== " << what << " ===\n";
  std::cout << "reproduces: " << paper_ref << "\n";
  const int gt = blas::gemm_threads();
  std::cout << "kernel: " << blas::active_kernel().name
            << "  [STRASSEN_KERNEL=scalar|avx2|avx512|auto]\n";
  std::cout << "gemm threads: ";
  if (gt == 0) {
    std::cout << "auto (pool size)";
  } else {
    std::cout << gt;
  }
  std::cout << "  [STRASSEN_GEMM_THREADS=N, 1 = serial]\n";
  std::cout << "scheduler: pool=" << parallel::global_pool().size()
            << " workers, bench threads=" << bench_threads()
            << "  [STRASSEN_BENCH_THREADS=N]\n";
  std::cout << "mode: " << (full_mode() ? "FULL (paper-scale)" : "smoke")
            << "  [STRASSEN_BENCH_FULL=1 for paper-scale sizes]\n\n";
}

/// Name of the schedule a DGEFMM config actually executes for a given beta.
/// Scheme::automatic (and the classic recursion below a fused top) resolves
/// by beta only at run time, so benches must report it explicitly instead
/// of echoing the configured enum.
inline std::string schedule_run_name(const core::DgefmmConfig& cfg,
                                     double beta) {
  const char* resolved = beta == 0.0 ? "STRASSEN1" : "STRASSEN2";
  switch (cfg.scheme) {
    case core::Scheme::automatic:
      return std::string(resolved) + " (automatic)";
    case core::Scheme::fused:
      return "FUSED x" + std::to_string(cfg.fused_levels) + ", " + resolved +
             " below the fusion";
    default:
      return core::scheme_name(cfg.scheme);
  }
}

/// Prints the schedule line of a bench header: which schedule the timed
/// DGEFMM calls run for this beta case.
inline void report_schedule(const core::DgefmmConfig& cfg, double beta) {
  std::cout << "schedule (beta=" << beta
            << "): " << schedule_run_name(cfg, beta) << "\n";
}

/// A reusable triple of random matrices for C = alpha*A*B + beta*C, in
/// either element type (Problem = double, ProblemF = float).
template <class T>
struct ProblemT {
  MatrixT<T> a, b, c, c0;
  ProblemT(index_t m, index_t k, index_t n, std::uint64_t seed = 12345)
      : a(m, k), b(k, n), c(m, n), c0(m, n) {
    Rng rng(seed);
    fill_random(a.view(), rng);
    fill_random(b.view(), rng);
    fill_random(c0.view(), rng);
    copy(c0.view(), c.view());
  }
  void reset_c() { copy(c0.view(), c.view()); }
  index_t m() const { return a.rows(); }
  index_t k() const { return a.cols(); }
  index_t n() const { return b.cols(); }
};

using Problem = ProblemT<double>;
using ProblemF = ProblemT<float>;

/// Minimum-of-reps timing of fn, resetting C before each run so beta != 0
/// cases are well-defined.
template <class T, class F>
double time_problem(ProblemT<T>& p, F&& fn, int reps = 3) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    p.reset_c();
    Timer t;
    fn();
    best = std::min(best, t.seconds());
  }
  return best;
}

/// Times the baseline DGEMM on problem p.
inline double time_dgemm(Problem& p, double alpha, double beta,
                         int reps = 3) {
  return time_problem(
      p,
      [&] {
        blas::dgemm(Trans::no, Trans::no, p.m(), p.n(), p.k(), alpha,
                    p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), beta,
                    p.c.data(), p.c.ld());
      },
      reps);
}

/// Times DGEFMM with the given configuration (workspace arena reused).
inline double time_dgefmm(Problem& p, double alpha, double beta,
                          core::DgefmmConfig cfg, Arena& arena,
                          int reps = 3) {
  cfg.workspace = &arena;
  return time_problem(
      p,
      [&] {
        if (core::dgefmm(Trans::no, Trans::no, p.m(), p.n(), p.k(), alpha,
                         p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), beta,
                         p.c.data(), p.c.ld(), cfg) != 0) {
          std::abort();
        }
      },
      reps);
}

}  // namespace strassen::bench
