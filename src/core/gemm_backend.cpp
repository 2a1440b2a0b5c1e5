#include "core/gemm_backend.hpp"

#include <cassert>
#include <memory>

#include "blas/gemm.hpp"
#include "core/dgefmm.hpp"

namespace strassen::core {

GemmFn gemm_backend_dgemm() {
  return [](Trans ta, Trans tb, index_t m, index_t n, index_t k, double alpha,
            const double* a, index_t lda, const double* b, index_t ldb,
            double beta, double* c, index_t ldc) {
    blas::dgemm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
  };
}

GemmFn gemm_backend_dgefmm() {
  return gemm_backend_dgefmm(CutoffCriterion::tuned());
}

GemmFn gemm_backend_dgefmm(const CutoffCriterion& cutoff) {
  auto arena = std::make_shared<Arena>();
  return [arena, cutoff](Trans ta, Trans tb, index_t m, index_t n, index_t k,
                         double alpha, const double* a, index_t lda,
                         const double* b, index_t ldb, double beta, double* c,
                         index_t ldc) {
    DgefmmConfig cfg;
    cfg.cutoff = cutoff;
    cfg.workspace = arena.get();
    [[maybe_unused]] const int info =
        dgefmm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, cfg);
    assert(info == 0);
  };
}

GemmFn gemm_backend_dgemm_kernel(blas::KernelArch arch) {
  return [arch](Trans ta, Trans tb, index_t m, index_t n, index_t k,
                double alpha, const double* a, index_t lda, const double* b,
                index_t ldb, double beta, double* c, index_t ldc) {
    blas::ScopedKernel pin(arch);
    blas::dgemm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
  };
}

}  // namespace strassen::core
