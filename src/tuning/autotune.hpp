// Per-kernel scheme auto-tuning: measure where each schedule wins, persist
// the result, and install it as the consultable dispatch policy.
//
// The paper tunes one thing -- the eq.-15 hybrid cutoff (Section 4.2) --
// because its code has one schedule. This library has five ways to run a
// product (plain packed GEMM, fused Strassen at one or two levels, the
// classic eq.-15 hybrid recursion, the task-DAG parallel schedule), and
// each pairwise crossover is, like τ
// itself, a property of the host's memory system and the active
// micro-kernel (Huang et al., arXiv:1605.01078). The autotune pass sweeps
// them all in one run:
//
//   1. (optionally) the eq.-15 cutoffs, per beta case, via the existing
//      crossover pipeline (tuning/crossover.hpp), in the element type
//      under tune;
//   2. a geometric size sweep timing GEMM vs fused-L1 vs fused-L2 vs the
//      classic hybrid vs DAG, reduced to four scheme crossovers (tau_fused,
//      tau_fused2, tau_hybrid, tau_dag) by the same sweep-midpoint logic
//      the paper used for τ.
//
// The result is a TunedCriteria stamped with kernel and element type. It
// round-trips through tuning/persist.cpp, and install_criteria() publishes
// it as the core::TunedPolicy that `use_tuned` calls consult -- after
// verifying the stamp against the active dispatch, the hard miss that
// keeps stale files from mis-routing.
#pragma once

#include <string>
#include <vector>

#include "core/tuned_policy.hpp"
#include "tuning/persist.hpp"

namespace strassen::tuning {

/// Controls one autotune pass.
struct AutotuneOptions {
  /// Scheme-crossover sweep range: sizes grow geometrically (x1.5) from
  /// min_size to max_size. Defaults are a laptop-scale budget; benches
  /// raise max_size toward paper scale.
  index_t min_size = 256;
  index_t max_size = 2048;
  int reps = 2;  ///< timing repetitions per (size, schedule); minimum kept

  /// Thread budget every schedule is timed with: the serial schedules'
  /// intra-GEMM fan-out and the DAG's core budget (0 = the calling
  /// thread's blas::gemm_thread_budget()). Recorded in
  /// TunedCriteria::threads; the installed policy applies only to calls
  /// resolved under the same budget.
  std::size_t dag_threads = 0;

  /// Also tune the eq.-15 hybrid cutoffs (both beta cases) with these
  /// sweep options. When false -- the quick-autotune CI budget -- the
  /// cutoffs keep the paper defaults and only the scheme crossovers are
  /// measured.
  bool tune_cutoffs = false;
  CrossoverOptions eq15;
};

/// Measures scheme (and optionally eq.-15) crossovers for the element type
/// in the active kernel family and returns the stamped criteria. Runs real
/// timings; expensive at large max_size.
TunedCriteria autotune_double(const AutotuneOptions& opts);
TunedCriteria autotune_float(const AutotuneOptions& opts);

/// One measured point of the scheme sweep: wall seconds of every candidate
/// schedule at equivalent order s.
struct SchemePoint {
  index_t s = 0;
  double gemm = 0;    ///< plain packed GEMM
  double fused1 = 0;  ///< one fused Strassen level
  double fused2 = 0;  ///< two fused levels
  double hybrid = 0;  ///< classic eq.-15 automatic hybrid recursion
  double s2 = 0;      ///< forced STRASSEN2 recursion
  double dag = 0;     ///< task-DAG parallel schedule
};

/// The five thresholds of the tuned dispatch in equivalent orders (0 =
/// that schedule never won in range, so it is routed nowhere; tau_fused =
/// 0 routes GEMM at every size).
struct SchemeCrossovers {
  double tau_fused = 0;
  double tau_fused2 = 0;
  double tau_hybrid = 0;
  double tau_s2 = 0;
  double tau_dag = 0;
};

/// Pure sweep-to-crossover reduction, separated from measurement so tests
/// can feed synthetic (or recorded) sweeps and assert properties of the
/// resulting dispatch -- in particular that core::tuned_path_for never
/// selects a schedule the sweep measured as the worst at any swept size.
/// The sweep must be sorted by ascending s.
SchemeCrossovers reduce_scheme_sweep(const std::vector<SchemePoint>& sweep);

/// Converts persisted criteria into the in-process policy form.
core::TunedPolicy policy_from_criteria(const TunedCriteria& criteria);

/// Publishes `criteria` as the consultable policy for its element type.
/// Returns false -- installing nothing -- when the stamp does not match
/// the active dispatch (wrong or missing kernel record): the persistence
/// layer's hard miss, enforced again at install time so a caller that
/// skipped matches_active_kernel() cannot force a stale policy in.
[[nodiscard]] bool install_criteria(const TunedCriteria& criteria);

/// Loads a criteria file and verifies it was tuned for `elem_kind` ("f64"
/// or "f32") under the active kernel, throwing strassen::Error with the
/// mismatch spelled out otherwise. The checked front door for configuring
/// a run from a persisted file.
TunedCriteria load_matching_criteria_file(const std::string& path,
                                          const std::string& elem_kind);

}  // namespace strassen::tuning
