// ISDA: the Invariant Subspace Decomposition Algorithm symmetric
// eigensolver (PRISM project), the application study of Section 4.4.
//
// The algorithm is matrix-multiplication dominated, which is why the paper
// uses it to demonstrate DGEFMM as a drop-in DGEMM replacement:
//   1. Map the spectrum of A affinely into [0, 1] around a split point mu.
//   2. Iterate the incomplete beta function B <- B^2 (3I - 2B) -- two
//      matrix multiplications per step -- until B converges to the
//      spectral projector P onto the invariant subspace of eigenvalues
//      above mu.
//   3. Compute an orthonormal basis Q = [Q1 | Q2] of range(P) + null(P)
//      via rank-revealing QR, conjugate A' = Q^T A Q (two more matrix
//      multiplications), and recurse on the two diagonal blocks.
//   4. Finish small subproblems with Jacobi.
//
// The matrix-multiplication backend is injectable (GemmFn); the Table 6
// benchmark runs the identical solver with blas::dgemm and with
// core::dgefmm and reports total vs. MM time for each.
#pragma once

#include <vector>

#include "core/gemm_backend.hpp"
#include "support/config.hpp"
#include "support/matrix.hpp"

namespace strassen::eigen {

/// A DGEMM-compatible matrix-multiplication callback (see
/// core/gemm_backend.hpp; re-exported here for convenience).
using core::GemmFn;

/// GemmFn backends: the library's DGEMM (the baseline configuration) and
/// DGEFMM -- the paper's "rename DGEMM to DGEFMM" experiment, which names
/// CutoffCriterion::paper_default(blas::Machine::rs6000) to reproduce it.
using core::gemm_backend_dgefmm;
using core::gemm_backend_dgemm;

struct IsdaOptions {
  index_t base_size = 24;      ///< subproblems at or below go to Jacobi
  int max_beta_iterations = 100;
  double projector_tol = 1e-12;   ///< on ||B^2 - B||_F / s
  int max_bisection_steps = 40;   ///< split-point searches per subproblem
  GemmFn gemm;                    ///< defaults to gemm_backend_dgemm()
};

struct IsdaStats {
  double total_seconds = 0.0;  ///< wall-clock for the whole solve
  double mm_seconds = 0.0;     ///< wall-clock inside the GemmFn
  count_t gemm_calls = 0;
  count_t beta_iterations = 0;  ///< total polynomial-iteration steps
  count_t splits = 0;           ///< successful divide steps
  count_t jacobi_blocks = 0;    ///< base cases solved by Jacobi
};

struct IsdaResult {
  std::vector<double> eigenvalues;  ///< ascending
  Matrix eigenvectors;              ///< orthonormal columns matching order
  IsdaStats stats;
};

/// Full eigendecomposition of the symmetric matrix `a`.
IsdaResult isda_eigensolver(ConstView a, const IsdaOptions& opts = IsdaOptions{});

}  // namespace strassen::eigen
