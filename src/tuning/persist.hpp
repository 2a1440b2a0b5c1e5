// Tuned-parameter sets and their persistence.
//
// Section 4.2: "the experiments were run using alpha = 1 and beta = 0 ...
// and the values of tau_m, tau_k, and tau_n may change for the general
// case. Our code allows user testing and specification of two sets of
// parameters to handle both cases." This module implements exactly that:
// a pair of hybrid criteria (one tuned with beta = 0, one with beta != 0),
// selection by the call's beta, and a plain-text file format so a one-off
// tuning run configures every later run on the machine.
#pragma once

#include <iosfwd>
#include <string>

#include "core/cutoff.hpp"
#include "tuning/crossover.hpp"

namespace strassen::tuning {

/// The two parameter sets of Section 4.2.
struct TunedCriteria {
  core::CutoffCriterion beta_zero =
      core::CutoffCriterion::paper_default(blas::Machine::rs6000);
  core::CutoffCriterion general = beta_zero;

  /// Micro-kernel variant (blas::KernelInfo::name) the tuning ran under,
  /// empty for files written before kernel dispatch existed. The crossover
  /// point is a property of the DGEMM speed, which changes with the kernel,
  /// so a criteria file tuned under one kernel is stale under another.
  std::string kernel;

  /// Element type the tuning ran in: "f64" or "f32". The crossover point
  /// moves with the element width (a float GEMM runs different kernels at
  /// different flop rates and half the memory traffic), so cutoffs tuned in
  /// one precision must never configure the other. Files written before
  /// sgefmm existed carry no record and load as "f64" -- the only precision
  /// the tuner produced then.
  std::string elem = "f64";

  /// Scheme crossovers measured by the autotune pass (tuning/autotune.hpp),
  /// as equivalent orders s = cbrt(m*k*n); 0 = unmeasured / never won.
  /// These feed core::TunedPolicy: plain GEMM at or below tau_fused (at
  /// every size when it is 0), two
  /// fused levels above tau_fused2, the classic eq.-15 hybrid recursion
  /// above tau_hybrid (forced STRASSEN2 instead of the automatic hybrid
  /// above tau_s2 within that regime), the task-DAG above tau_dag. Files
  /// written before a threshold existed load it as 0 -- the "never won"
  /// sentinel -- so old files keep their old routing.
  double tau_fused = 0;
  double tau_fused2 = 0;
  double tau_hybrid = 0;
  double tau_s2 = 0;
  double tau_dag = 0;
  /// Thread budget every schedule was timed with (0 = not recorded: the
  /// policy then matches no budget and every call routes to GEMM).
  int threads = 0;

  /// The criterion appropriate for a call with this beta.
  const core::CutoffCriterion& select(double beta) const {
    return beta == 0.0 ? beta_zero : general;
  }

  /// False when this file was tuned under a different micro-kernel than
  /// the one the active dispatch would run for its element type. A missing
  /// kernel record is a mismatch too (hard miss): a file that cannot prove
  /// which GEMM its crossovers were measured against must not configure
  /// any -- legacy pre-dispatch files re-tune rather than silently
  /// mis-route.
  bool matches_active_kernel() const;

  /// True when this file was tuned for the given element type ("f64" or
  /// "f32"). Unlike the kernel check there is no legacy pass-through for
  /// "f32": a file without an element record is a double-tuned file.
  bool matches_element(const std::string& elem_kind) const {
    return elem == elem_kind;
  }
};

/// Runs the full tuning pipeline twice: once with (alpha, beta) = (1, 0)
/// and once with the general case (alpha = 1, beta = 1).
TunedCriteria tune_both_cases(const CrossoverOptions& opts);

/// Serializes as a small key = value text file (stable across versions;
/// unknown keys are ignored on load).
void save_criteria(const TunedCriteria& criteria, std::ostream& os);
[[nodiscard]] bool save_criteria_file(const TunedCriteria& criteria,
                                      const std::string& path);

/// Parses the format written by save_criteria. Throws strassen::Error on
/// malformed input; missing keys keep their defaults.
TunedCriteria load_criteria(std::istream& is);
TunedCriteria load_criteria_file(const std::string& path);

}  // namespace strassen::tuning
