// Solving A x = b with the blocked LU factorization, with DGEFMM as the
// trailing-update kernel -- the linear-systems use case of Bailey, Lee &
// Simon (reference [3] of the paper).
//
// Usage: linear_solver [n]            (default: 1024)
#include <cstdlib>
#include <iostream>

#include "solver/lu.hpp"
#include "support/matrix.hpp"
#include "support/random.hpp"

using namespace strassen;

int main(int argc, char** argv) {
  const index_t n = argc > 1 ? std::atoll(argv[1]) : 1024;
  std::cout << "LU solve of a random " << n << "x" << n << " system\n\n";

  Rng rng(4);
  Matrix a = random_matrix(n, n, rng);
  for (index_t i = 0; i < n; ++i) a(i, i) += 4.0;
  Matrix b = random_matrix(n, 2, rng);

  auto run = [&](const char* label, core::GemmFn gemm) {
    solver::LuOptions opts;
    opts.gemm = std::move(gemm);
    solver::LuStats stats;
    solver::LuFactors f = solver::lu_factor(a.view(), opts, &stats);
    if (f.info != 0) {
      std::cout << "  singular at pivot " << f.info << "\n";
      return 1.0;
    }
    Matrix x = solver::lu_solve(f, b.view());
    const double resid = solver::relative_residual(a.view(), x.view(),
                                                   b.view());
    std::cout << "  " << label << ": factor " << stats.total_seconds
              << " s (GEMM " << stats.mm_seconds << " s, "
              << 100.0 * stats.mm_seconds / stats.total_seconds
              << "%), residual " << resid << "\n";
    return resid;
  };

  const double r1 = run("DGEMM  backend", core::gemm_backend_dgemm());
  // The paper's DGEFMM configuration (RS/6000 cutoffs); the default
  // backend would take the host's tuned route instead.
  const double r2 =
      run("DGEFMM backend",
          core::gemm_backend_dgefmm(
              core::CutoffCriterion::paper_default(blas::Machine::rs6000)));
  return (r1 < 1e-12 && r2 < 1e-11) ? 0 : 1;
}
