// Injectable matrix-multiplication backends.
//
// The paper's headline usability claim is that DGEFMM replaces DGEMM with
// no other change; application code in this repository (the ISDA
// eigensolver, the LU solver) takes its multiplication kernel as a GemmFn
// so the same solver runs with either backend -- the Table 6 experiment.
#pragma once

#include <functional>

#include "blas/kernels.hpp"
#include "core/cutoff.hpp"
#include "support/config.hpp"

namespace strassen::core {

/// A DGEMM-compatible matrix-multiplication callback.
using GemmFn = std::function<void(
    Trans transa, Trans transb, index_t m, index_t n, index_t k, double alpha,
    const double* a, index_t lda, const double* b, index_t ldb, double beta,
    double* c, index_t ldc)>;

/// Backend calling the library's DGEMM (the baseline configuration).
GemmFn gemm_backend_dgemm();

/// Backend calling DGEFMM with the default configuration -- the tuned
/// route: the installed policy for the active kernel and thread budget,
/// else one pooled GEMM per call -- and a persistent shared workspace
/// arena (repeated calls are allocation-free).
GemmFn gemm_backend_dgefmm();

/// Backend calling DGEFMM with an explicit cutoff criterion, e.g.
/// CutoffCriterion::paper_default(blas::Machine::rs6000) for the paper's
/// Table 6 configuration.
GemmFn gemm_backend_dgefmm(const CutoffCriterion& cutoff);

/// Backend calling the library's DGEMM with the given micro-kernel variant
/// pinned for the duration of each call (blas::ScopedKernel). Lets a solver
/// or benchmark compare kernel variants through the same GemmFn seam the
/// other backends use. Throws std::invalid_argument from the *call* when
/// the variant is not usable on this machine (see blas::kernel_supported).
GemmFn gemm_backend_dgemm_kernel(blas::KernelArch arch);

}  // namespace strassen::core
