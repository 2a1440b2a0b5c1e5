// Runtime cutoff criteria (Sections 2 and 3.4 of the paper).
//
// The cutoff criterion decides, at each recursion level, whether to apply
// another level of Strassen's construction or to call DGEMM. The paper
// studies:
//   (7)  the op-count criterion      mkn <= 4(mk + kn + mn)
//   (10) the square criterion        m <= tau
//   (11) the simple rectangular one  m <= tau or k <= tau or n <= tau
//        (used by Douglas et al.'s DGEMMW)
//   (12) Higham's scaled criterion   mkn <= tau (nk + mn + mk) / 3
//   (13) the parameterized form      mkn <= tau_m*nk + tau_k*mn + tau_n*mk
//   (15) the paper's hybrid: (13) arbitrates, except recursion is always
//        taken when all of m, k, n exceed tau and never when all are <= tau.
// Parameters (tau, tau_m, tau_k, tau_n) come from the empirical tuner
// (src/tuning) or from the paper's measured values (Tables 2-3).
#pragma once

#include <string>

#include "blas/machine.hpp"
#include "support/config.hpp"

namespace strassen::core {

/// Which stopping rule is applied at each recursion level.
enum class CutoffKind {
  op_count,       ///< eq. (7), the pure model criterion
  square_simple,  ///< eq. (11): any dimension <= tau (also eq. 10 for square)
  higham_scaled,  ///< eq. (12)
  parameterized,  ///< eq. (13) alone
  hybrid,         ///< eq. (15), the paper's criterion
  fixed_depth,    ///< recurse exactly `depth` levels (analysis/testing)
  never_recurse,  ///< always call DGEMM (baseline)
  tuned,          ///< the library default: the installed tuned policy
                  ///< picks schedule and cutoffs per call shape
                  ///< (core/tuned_policy.hpp resolve_tuned); without a
                  ///< policy for the active kernel and thread budget the
                  ///< call is one pooled GEMM. Never recurses on its own.
};

/// A fully-specified stopping rule.
struct CutoffCriterion {
  CutoffKind kind = CutoffKind::hybrid;
  double tau = 199.0;    ///< square crossover
  double tau_m = 75.0;   ///< rectangular parameters (eq. 13)
  double tau_k = 125.0;
  double tau_n = 95.0;
  int depth = 1;         ///< for fixed_depth

  /// True when recursion should STOP and DGEMM be used for (m, k, n) at
  /// recursion depth `d` (top level is d == 0).
  bool stop(index_t m, index_t k, index_t n, int d) const;

  /// Factories ----------------------------------------------------------

  static CutoffCriterion op_count();
  static CutoffCriterion square_simple(double tau);
  static CutoffCriterion higham_scaled(double tau);
  static CutoffCriterion parameterized(double tau_m, double tau_k,
                                       double tau_n);
  static CutoffCriterion hybrid(double tau, double tau_m, double tau_k,
                                double tau_n);
  static CutoffCriterion fixed_depth(int depth);
  static CutoffCriterion never_recurse();
  static CutoffCriterion tuned();

  /// The paper's measured parameters for a machine profile (Tables 2-3):
  /// RS/6000: tau=199, (75,125,95); C90: tau=129, (80,45,20);
  /// T3D: tau=325, (125,75,109). The paper-reproduction benches name
  /// these explicitly; the library default is tuned().
  static CutoffCriterion paper_default(blas::Machine machine);

  std::string describe() const;
};

}  // namespace strassen::core
