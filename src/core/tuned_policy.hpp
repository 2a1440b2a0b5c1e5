// Consultable auto-tuned dispatch policy (the "measured crossover" layer).
//
// The paper tunes the eq.-15 hybrid cutoff once per machine (Section 4.2)
// and stores it in a parameters file; this module is the in-process home of
// that measurement, extended with the scheme crossovers the modern code
// paths need: at what equivalent order does the fused Strassen schedule
// overtake plain packed GEMM, when does a second fused level pay, when does
// the classic eq.-15 recursion (whose depth keeps growing with the problem)
// retake the lead from the level-capped fused schedules, and when does the
// task-DAG parallel schedule overtake the serial ones.
//
// Layering: core cannot depend on tuning/ (which owns measurement and file
// persistence) or parallel/ (which owns the DAG). So the policy lives here
// as a passive registry: tuning/autotune.cpp measures and installs, the
// drivers consult. A policy is stamped with the micro-kernel name and the
// thread budget it was measured under, and applies only under both:
// crossovers are properties of the GEMM speed, which changes with either.
// A miss routes to one pooled GEMM, never to a guessed recursion.
//
// Concurrency: install publishes a fully-written slot with a release store
// and consult reads with an acquire load, so readers always see a complete
// policy. Installs themselves are configuration actions (autotune runs,
// test setup) and must not race gefmm calls of the same element type --
// the same contract as blas::set_active_kernel.
#pragma once

#include "core/cutoff.hpp"
#include "support/config.hpp"

namespace strassen::core {

/// The schedule the tuned policy selects for one call shape.
enum class TunedPath {
  gemm,       ///< below the fused crossover, or no policy for this kernel
              ///< and budget: one plain packed GEMM
  fused_l1,   ///< one fused Strassen level over packed GEMM
  fused_l2,   ///< two fused levels
  hybrid,     ///< classic eq.-15 hybrid recursion (depth scales with size)
  strassen2,  ///< forced STRASSEN2 recursion: the multiply-accumulate
              ///< schedule's three temporaries stay hot where the automatic
              ///< hybrid's per-level schedule churn does not, so past
              ///< tau_s2 it is the classic recursion that actually wins
  dag,        ///< task-DAG parallel schedule (parallel driver only)
};

/// Static-storage name for stats and bench JSON.
constexpr const char* tuned_path_name(TunedPath p) {
  switch (p) {
    case TunedPath::gemm:
      return "gemm";
    case TunedPath::fused_l1:
      return "fused-l1";
    case TunedPath::fused_l2:
      return "fused-l2";
    case TunedPath::hybrid:
      return "hybrid";
    case TunedPath::strassen2:
      return "strassen2";
    case TunedPath::dag:
      return "dag";
  }
  return "?";
}

/// One element type's measured dispatch policy. The scheme thresholds are
/// equivalent orders s = cbrt(m*k*n); 0 means "that schedule never won in
/// the sweep" for every threshold, so tau_fused = 0 routes GEMM at every
/// size (a sweep GEMM won everywhere says nothing in Strassen's favour
/// beyond its range).
struct TunedPolicy {
  /// Eq.-15 hybrid cutoffs per beta case (Section 4.2's two sets), applied
  /// below the fused levels and inside DAG leaves.
  CutoffCriterion beta_zero = CutoffCriterion::hybrid(199, 75, 125, 95);
  CutoffCriterion general = beta_zero;

  double tau_fused = 0;   ///< at or below: plain GEMM beats fused
                          ///< (0: fused never won, GEMM everywhere)
  double tau_fused2 = 0;  ///< above: two fused levels beat one
  double tau_hybrid = 0;  ///< above: classic hybrid recursion beats fused.
                          ///< The fused schedules cap at two levels; the
                          ///< eq.-15 recursion keeps splitting, so it
                          ///< retakes the lead once two levels leave base
                          ///< products above the kernel's sweet spot.
  double tau_s2 = 0;      ///< above: within the classic-recursion regime
                          ///< (past tau_hybrid), forced STRASSEN2 beats the
                          ///< automatic hybrid. 0 = never measured to win;
                          ///< files from before this threshold existed load
                          ///< as 0 and keep the old hybrid routing.
  double tau_dag = 0;     ///< above: the task-DAG beats the serial schedule
  int threads = 0;        ///< thread budget every schedule was timed with
                          ///< (blas::gemm_thread_budget); a consult under
                          ///< any other budget is a miss

  /// Micro-kernel stamp (blas::KernelInfo::name) the sweep ran under. A
  /// consult under any other active kernel is a hard miss.
  char kernel[48] = {};

  const CutoffCriterion& select(double beta) const {
    return beta == 0.0 ? beta_zero : general;
  }
};

/// Installs (copies) a policy for element type T and publishes it.
template <class T>
void install_tuned_policy(const TunedPolicy& policy);

/// Drops any installed policy for T (tests restore a clean slate).
template <class T>
void clear_tuned_policy();

/// The installed policy for T, or nullptr when none was installed or the
/// installed one is stamped with a kernel other than the active dispatch
/// (the hard miss). The pointer stays valid until the next install of the
/// same element type. The thread-budget check is resolve_tuned's.
template <class T>
const TunedPolicy* tuned_policy();

/// The schedule the policy picks for an (m, k, n) call with `workers`
/// scheduler lanes available (1 from the serial driver: the DAG path needs
/// a pool to win).
TunedPath tuned_path_for(const TunedPolicy& policy, index_t m, index_t k,
                         index_t n, int workers);

}  // namespace strassen::core

#include "blas/packed_loop.hpp"
#include "core/types.hpp"

namespace strassen::core {

/// True when `cfg` asks for the tuned route: use_tuned, or the default
/// CutoffKind::tuned criterion.
template <class T>
bool routes_tuned(const GefmmConfigT<T>& cfg) {
  return cfg.use_tuned || cfg.cutoff.kind == CutoffKind::tuned;
}

/// The one route of every tuned entry: the C ABI, gemm_backend_dgefmm, the
/// default configuration, use_tuned, the parallel driver and the workspace
/// predictors. Consults the policy for T under thread budget `budget` and
/// rewrites cfg in place for the selected path -- cutoff and scheme for a
/// Strassen path, CutoffCriterion::never_recurse() for GEMM -- clearing
/// use_tuned so the result re-enters a driver as an ordinary explicit
/// configuration. A missing, kernel-stale or other-budget policy selects
/// one GEMM. The DAG is a candidate only when `dag` (the parallel driver);
/// the serial driver gets the best serial schedule instead. Drivers and
/// predictors resolve through this single definition, so the predicted
/// arena size is always the size of the schedule that actually runs.
template <class T>
TunedPath resolve_tuned(index_t m, index_t k, index_t n, T beta, int budget,
                        bool dag, GefmmConfigT<T>& cfg) {
  cfg.use_tuned = false;
  const TunedPolicy* policy = tuned_policy<T>();
  if (policy == nullptr || policy->threads != budget) {
    cfg.cutoff = CutoffCriterion::never_recurse();
    return TunedPath::gemm;
  }
  const TunedPath path = tuned_path_for(*policy, m, k, n, dag ? budget : 1);
  cfg.cutoff = path == TunedPath::gemm
                   ? CutoffCriterion::never_recurse()
                   : policy->select(static_cast<double>(beta));
  if (path == TunedPath::fused_l1 || path == TunedPath::dag) {
    cfg.scheme = Scheme::fused;
    cfg.fused_levels = 1;
  } else if (path == TunedPath::fused_l2) {
    cfg.scheme = Scheme::fused;
    cfg.fused_levels = 2;
  } else if (path == TunedPath::hybrid) {
    cfg.scheme = Scheme::automatic;
  } else if (path == TunedPath::strassen2) {
    cfg.scheme = Scheme::strassen2;
  }
  return path;
}

/// resolve_tuned for the serial driver and its predictors: the budget is
/// the calling thread's resolved intra-GEMM budget, and the DAG is not a
/// candidate (it runs only through parallel::dgefmm_parallel). Resolves
/// the budget only when a policy is installed, so policy-less calls never
/// construct the pool.
template <class T>
TunedPath resolve_tuned(index_t m, index_t k, index_t n, T beta,
                        GefmmConfigT<T>& cfg) {
  const int budget =
      tuned_policy<T>() != nullptr ? blas::gemm_thread_budget() : 0;
  return resolve_tuned<T>(m, k, n, beta, budget, /*dag=*/false, cfg);
}

}  // namespace strassen::core
