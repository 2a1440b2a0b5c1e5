// Cross-module integration tests: the full pipelines a user would run.
//   * tune a criterion on the host, then multiply with it;
//   * cost-model fit -> criterion -> multiply;
//   * ISDA eigensolver solving a system built from its own output;
//   * LU-solve a system whose matrix came from DGEFMM products;
//   * parallel and serial paths on the same problem.
#include <gtest/gtest.h>

#include <cmath>

#include "blas/gemm.hpp"
#include "core/dgefmm.hpp"
#include "eigen/isda.hpp"
#include "parallel/parallel_strassen.hpp"
#include "solver/lu.hpp"
#include "support/matrix.hpp"
#include "support/random.hpp"
#include "tuning/cost_model.hpp"
#include "tuning/crossover.hpp"

namespace strassen {
namespace {

TEST(Integration, TunedCriterionDrivesCorrectMultiply) {
  // Tiny-range tuning, then a multiply under the tuned criterion.
  tuning::CrossoverOptions opts;
  opts.min_size = 16;
  opts.max_size = 48;
  opts.step = 16;
  opts.fixed_large = 64;
  opts.reps = 1;
  const core::CutoffCriterion crit = tuning::tune_hybrid_criterion(opts);

  Rng rng(1);
  const index_t n = 90;
  Matrix a = random_matrix(n, n, rng);
  Matrix b = random_matrix(n, n, rng);
  Matrix c(n, n), c_ref(n, n);
  fill(c.view(), 0.0);
  fill(c_ref.view(), 0.0);
  core::DgefmmConfig cfg;
  cfg.cutoff = crit;
  ASSERT_EQ(core::dgefmm(Trans::no, Trans::no, n, n, n, 1.0, a.data(), n,
                         b.data(), n, 0.0, c.data(), n, cfg),
            0);
  blas::gemm_reference(Trans::no, Trans::no, n, n, n, 1.0, a.data(), n,
                       b.data(), n, 0.0, c_ref.data(), n);
  EXPECT_LT(max_abs_diff(c.view(), c_ref.view()), 1e-10);
}

TEST(Integration, CostModelCriterionDrivesCorrectMultiply) {
  const tuning::GemmCostModel gemm = tuning::measure_gemm_cost_model(64, 1);
  const tuning::AddCostModel add = tuning::measure_add_cost_model(64, 1);
  const core::CutoffCriterion crit =
      tuning::criterion_from_models(gemm, add);

  Rng rng(2);
  const index_t n = 70;
  Matrix a = random_matrix(n, n, rng);
  Matrix b = random_matrix(n, n, rng);
  Matrix c(n, n), c_ref(n, n);
  fill(c.view(), 0.0);
  fill(c_ref.view(), 0.0);
  core::DgefmmConfig cfg;
  cfg.cutoff = crit;
  ASSERT_EQ(core::dgefmm(Trans::no, Trans::no, n, n, n, 1.0, a.data(), n,
                         b.data(), n, 0.0, c.data(), n, cfg),
            0);
  blas::gemm_reference(Trans::no, Trans::no, n, n, n, 1.0, a.data(), n,
                       b.data(), n, 0.0, c_ref.data(), n);
  EXPECT_LT(max_abs_diff(c.view(), c_ref.view()), 1e-10);
}

TEST(Integration, EigensolverReconstructsMatrix) {
  // A = V diag(w) V^T reconstructed with DGEFMM multiplies.
  Rng rng(3);
  const index_t n = 64;
  Matrix a(n, n);
  fill_random_symmetric(a.view(), rng);

  eigen::IsdaOptions opts;
  opts.base_size = 16;
  opts.gemm = eigen::gemm_backend_dgefmm(
      core::CutoffCriterion::paper_default(blas::Machine::rs6000));
  const eigen::IsdaResult res = eigen::isda_eigensolver(a.view(), opts);

  // VW = V * diag(w); A_rec = VW * V^T via dgefmm.
  Matrix vw(n, n);
  copy(res.eigenvectors.view(), vw.view());
  for (index_t j = 0; j < n; ++j) {
    const double w = res.eigenvalues[static_cast<std::size_t>(j)];
    for (index_t i = 0; i < n; ++i) vw(i, j) *= w;
  }
  Matrix a_rec(n, n);
  fill(a_rec.view(), 0.0);
  core::DgefmmConfig cfg;
  cfg.cutoff = core::CutoffCriterion::square_simple(16);
  ASSERT_EQ(core::dgefmm(Trans::no, Trans::transpose, n, n, n, 1.0, vw.data(),
                         n, res.eigenvectors.data(), n, 0.0, a_rec.data(), n,
                         cfg),
            0);
  EXPECT_LT(max_abs_diff(a.view(), a_rec.view()), 1e-7);
}

TEST(Integration, LuSolvesSystemBuiltByDgefmm) {
  // Build A = G * G^T + 4I with DGEFMM (symmetric positive definite), then
  // LU-solve with the DGEFMM backend and verify against a known solution.
  Rng rng(4);
  const index_t n = 96;
  Matrix g = random_matrix(n, n, rng);
  Matrix a(n, n);
  fill(a.view(), 0.0);
  core::DgefmmConfig cfg;
  cfg.cutoff = core::CutoffCriterion::square_simple(16);
  ASSERT_EQ(core::dgefmm(Trans::no, Trans::transpose, n, n, n, 1.0 / n,
                         g.data(), n, g.data(), n, 0.0, a.data(), n, cfg),
            0);
  for (index_t i = 0; i < n; ++i) a(i, i) += 4.0;

  Matrix x_true = random_matrix(n, 2, rng);
  Matrix b(n, 2);
  fill(b.view(), 0.0);
  ASSERT_EQ(core::dgefmm(Trans::no, Trans::no, n, 2, n, 1.0, a.data(), n,
                         x_true.data(), n, 0.0, b.data(), n, cfg),
            0);

  solver::LuOptions lopts;
  lopts.gemm = core::gemm_backend_dgefmm(
      core::CutoffCriterion::paper_default(blas::Machine::rs6000));
  const solver::LuFactors f = solver::lu_factor(a.view(), lopts);
  ASSERT_EQ(f.info, 0);
  Matrix x = solver::lu_solve(f, b.view());
  solver::lu_refine(f, a.view(), b.view(), x.view(), 1);
  EXPECT_LT(max_abs_diff(x.view(), x_true.view()), 1e-9);
}

TEST(Integration, ParallelAndSerialAgree) {
  Rng rng(5);
  const index_t n = 120;
  Matrix a = random_matrix(n, n, rng);
  Matrix b = random_matrix(n, n, rng);
  Matrix c1(n, n), c2(n, n);
  fill(c1.view(), 0.0);
  fill(c2.view(), 0.0);

  core::DgefmmConfig serial;
  serial.cutoff = core::CutoffCriterion::square_simple(24);
  ASSERT_EQ(core::dgefmm(Trans::no, Trans::no, n, n, n, 1.0, a.data(), n,
                         b.data(), n, 0.0, c1.data(), n, serial),
            0);
  parallel::ParallelDgefmmConfig par;
  par.cutoff = core::CutoffCriterion::square_simple(24);
  ASSERT_EQ(parallel::dgefmm_parallel(Trans::no, Trans::no, n, n, n, 1.0,
                                      a.data(), n, b.data(), n, 0.0,
                                      c2.data(), n, par),
            0);
  EXPECT_LT(max_abs_diff(c1.view(), c2.view()), 1e-11);
}

}  // namespace
}  // namespace strassen
