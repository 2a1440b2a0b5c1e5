#include "tuning/cost_model.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>

#include "blas/gemm.hpp"
#include "core/add_kernels.hpp"
#include "solver/lu.hpp"
#include "support/errors.hpp"
#include "support/matrix.hpp"
#include "support/random.hpp"
#include "support/timing.hpp"

namespace strassen::tuning {

namespace {

// Solves the normal equations X^T X w = X^T y with the library's LU solver
// (dogfooding: the fit runs through the same factorization the LU
// application bench exercises).
std::vector<double> least_squares(const Matrix& x,
                                  const std::vector<double>& y) {
  const index_t rows = x.rows(), cols = x.cols();
  assert(static_cast<index_t>(y.size()) == rows);
  Matrix xtx(cols, cols);
  blas::dgemm(Trans::transpose, Trans::no, cols, cols, rows, 1.0, x.data(),
              x.ld(), x.data(), x.ld(), 0.0, xtx.data(), xtx.ld());
  Matrix xty(cols, 1);
  blas::dgemm(Trans::transpose, Trans::no, cols, 1, rows, 1.0, x.data(),
              x.ld(), y.data(), rows, 0.0, xty.data(), xty.ld());
  const solver::LuFactors f = solver::lu_factor(xtx.view());
  if (f.info != 0) {
    throw Error("cost-model fit: normal equations are singular; provide "
                "more varied samples");
  }
  Matrix w = solver::lu_solve(f, xty.view());
  std::vector<double> out(static_cast<std::size_t>(cols));
  for (index_t i = 0; i < cols; ++i) out[static_cast<std::size_t>(i)] = w(i, 0);
  return out;
}

}  // namespace

double GemmCostModel::predict(index_t m, index_t k, index_t n) const {
  const double mkn = double(m) * double(k) * double(n);
  const double s = double(m) * double(k) + double(k) * double(n) +
                   double(m) * double(n);
  return c0 + mu * mkn + nu * s;
}

double AddCostModel::predict(index_t m, index_t n) const {
  return c1 + gamma * double(m) * double(n);
}

GemmCostModel fit_gemm_cost_model(const std::vector<GemmSample>& samples) {
  assert(samples.size() >= 3);
  const index_t rows = static_cast<index_t>(samples.size());
  Matrix x(rows, 3);
  std::vector<double> y(samples.size());
  for (index_t i = 0; i < rows; ++i) {
    const GemmSample& s = samples[static_cast<std::size_t>(i)];
    x(i, 0) = 1.0;
    x(i, 1) = double(s.m) * double(s.k) * double(s.n);
    x(i, 2) = double(s.m) * double(s.k) + double(s.k) * double(s.n) +
              double(s.m) * double(s.n);
    y[static_cast<std::size_t>(i)] = s.seconds;
  }
  const auto w = least_squares(x, y);
  return GemmCostModel{w[0], w[1], w[2]};
}

AddCostModel fit_add_cost_model(const std::vector<AddSample>& samples) {
  assert(samples.size() >= 2);
  const index_t rows = static_cast<index_t>(samples.size());
  Matrix x(rows, 2);
  std::vector<double> y(samples.size());
  for (index_t i = 0; i < rows; ++i) {
    const AddSample& s = samples[static_cast<std::size_t>(i)];
    x(i, 0) = 1.0;
    x(i, 1) = double(s.m) * double(s.n);
    y[static_cast<std::size_t>(i)] = s.seconds;
  }
  const auto w = least_squares(x, y);
  return AddCostModel{w[0], w[1]};
}

GemmCostModel measure_gemm_cost_model(index_t max_size, int reps) {
  std::vector<GemmSample> samples;
  Rng rng(202);
  const index_t sizes[] = {max_size / 4, max_size / 2, (3 * max_size) / 4,
                           max_size};
  // Square and skewed shapes so the mkn and surface terms decouple.
  for (const index_t s : sizes) {
    const std::vector<std::array<index_t, 3>> shapes = {
        {s, s, s}, {s / 2, s, s}, {s, s / 2, s}, {s, s, s / 2}};
    for (const auto& sh : shapes) {
      Matrix a = random_matrix(sh[0], sh[1], rng);
      Matrix b = random_matrix(sh[1], sh[2], rng);
      Matrix c(sh[0], sh[2]);
      c.fill(0.0);
      const auto gemm = [&] {
        blas::dgemm(Trans::no, Trans::no, sh[0], sh[2], sh[1], 1.0, a.data(),
                    a.ld(), b.data(), b.ld(), 0.0, c.data(), c.ld());
      };
      // Untimed first call: a fanned-out GEMM's first contact with a cold
      // pool worker allocates that worker's pack scratch, which is no part
      // of the GEMM's cost and would dominate a one-rep sample.
      gemm();
      const double t = time_min(gemm, reps);
      samples.push_back({sh[0], sh[1], sh[2], t});
    }
  }
  return fit_gemm_cost_model(samples);
}

AddCostModel measure_add_cost_model(index_t max_size, int reps) {
  std::vector<AddSample> samples;
  Rng rng(203);
  for (index_t s = max_size / 4; s <= max_size; s += max_size / 4) {
    Matrix x = random_matrix(s, s, rng);
    Matrix y = random_matrix(s, s, rng);
    Matrix d(s, s);
    const double t = time_min(
        [&] { core::add(x.view(), y.view(), d.view()); }, reps);
    samples.push_back({s, s, t});
  }
  return fit_add_cost_model(samples);
}

bool model_standard_preferred(const GemmCostModel& gemm,
                              const AddCostModel& add, index_t m, index_t k,
                              index_t n) {
  // The models are continuous, so half-sizes are real-valued (the paper's
  // Section 2 analysis treats dimensions the same way).
  const double m2 = double(m) / 2.0, k2 = double(k) / 2.0,
               n2 = double(n) / 2.0;
  const double standard = gemm.predict(m, k, n);
  const double one_level =
      7.0 * (gemm.c0 + gemm.mu * m2 * k2 * n2 +
             gemm.nu * (m2 * k2 + k2 * n2 + m2 * n2)) +
      4.0 * (add.c1 + add.gamma * m2 * k2) +
      4.0 * (add.c1 + add.gamma * k2 * n2) +
      7.0 * (add.c1 + add.gamma * m2 * n2);
  return standard <= one_level;
}

core::CutoffCriterion criterion_from_models(const GemmCostModel& gemm,
                                            const AddCostModel& add) {
  // Parameterized taus from the closed form (see header).
  const double mu = gemm.mu > 0.0 ? gemm.mu : 1e-30;
  const double tau_mn = (6.0 * gemm.nu + 8.0 * add.gamma) / mu;
  const double tau_k = (6.0 * gemm.nu + 14.0 * add.gamma) / mu;
  // Square crossover including the constant terms, found numerically.
  index_t tau_sq = 2;
  for (index_t m = 2; m <= (index_t{1} << 16); m *= 2) {
    if (!model_standard_preferred(gemm, add, m, m, m)) break;
    tau_sq = m;
  }
  // Refine within the bracketing octave.
  index_t lo = tau_sq, hi = tau_sq * 2;
  while (lo + 1 < hi) {
    const index_t mid = (lo + hi) / 2;
    if (model_standard_preferred(gemm, add, mid, mid, mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double floor_tau = 2.0;
  return core::CutoffCriterion::hybrid(
      std::max(floor_tau, double(lo)), std::max(floor_tau, tau_mn),
      std::max(floor_tau, tau_k), std::max(floor_tau, tau_mn));
}

}  // namespace strassen::tuning
