// Tests for the eigensolver substrate: Jacobi, pivoted QR, and the ISDA
// divide-and-conquer solver with both GEMM backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "blas/gemm.hpp"
#include "eigen/householder_qr.hpp"
#include "eigen/isda.hpp"
#include "eigen/jacobi.hpp"
#include "support/matrix.hpp"
#include "support/random.hpp"

namespace strassen {
namespace {

using eigen::IsdaOptions;
using eigen::IsdaResult;

// ||A V - V diag(w)||_F
double residual(ConstView a, ConstView v, const std::vector<double>& w) {
  const index_t n = a.rows;
  Matrix av(n, n);
  blas::gemm_reference(Trans::no, Trans::no, n, n, n, 1.0, a.p, a.cs, v.p,
                       v.cs, 0.0, av.data(), n);
  double sum = 0.0;
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      const double d = av(i, j) - v(i, j) * w[static_cast<std::size_t>(j)];
      sum += d * d;
    }
  }
  return std::sqrt(sum);
}

// ||V^T V - I||_F
double orthogonality_defect(ConstView v) {
  const index_t n = v.rows;
  Matrix vtv(n, n);
  blas::gemm_reference(Trans::transpose, Trans::no, n, n, n, 1.0, v.p, v.cs,
                       v.p, v.cs, 0.0, vtv.data(), n);
  double sum = 0.0;
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      const double d = vtv(i, j) - (i == j ? 1.0 : 0.0);
      sum += d * d;
    }
  }
  return std::sqrt(sum);
}

// --------------------------------------------------------------- Jacobi

TEST(Jacobi, TwoByTwoKnown) {
  // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
  Matrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 2;
  Matrix v(2, 2);
  std::vector<double> w;
  eigen::jacobi_eigensolver(a.view(), v.view(), w);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_NEAR(w[0], 1.0, 1e-14);
  EXPECT_NEAR(w[1], 3.0, 1e-14);
}

TEST(Jacobi, DiagonalMatrixIsImmediate) {
  Matrix a(4, 4);
  fill(a.view(), 0.0);
  a(0, 0) = 4;
  a(1, 1) = -1;
  a(2, 2) = 2;
  a(3, 3) = 0.5;
  Matrix v(4, 4);
  std::vector<double> w;
  const int sweeps = eigen::jacobi_eigensolver(a.view(), v.view(), w);
  EXPECT_EQ(sweeps, 0);
  EXPECT_NEAR(w[0], -1.0, 1e-15);
  EXPECT_NEAR(w[3], 4.0, 1e-15);
}

TEST(Jacobi, RandomSymmetricResidualAndOrthogonality) {
  Rng rng(42);
  const index_t n = 30;
  Matrix a(n, n);
  fill_random_symmetric(a.view(), rng);
  Matrix a_copy(n, n);
  copy(a.view(), a_copy.view());
  Matrix v(n, n);
  std::vector<double> w;
  eigen::jacobi_eigensolver(a.view(), v.view(), w);
  EXPECT_LT(residual(a_copy.view(), v.view(), w), 1e-11);
  EXPECT_LT(orthogonality_defect(v.view()), 1e-12);
  EXPECT_TRUE(std::is_sorted(w.begin(), w.end()));
}

TEST(Jacobi, TraceAndEigenvalueSumAgree) {
  Rng rng(11);
  const index_t n = 20;
  Matrix a(n, n);
  fill_random_symmetric(a.view(), rng);
  double trace = 0.0;
  for (index_t i = 0; i < n; ++i) trace += a(i, i);
  Matrix v(n, n);
  std::vector<double> w;
  eigen::jacobi_eigensolver(a.view(), v.view(), w);
  double sum = 0.0;
  for (double x : w) sum += x;
  EXPECT_NEAR(sum, trace, 1e-11);
}

// ------------------------------------------------------------------- QR

TEST(PivotedQr, ReconstructsMatrix) {
  Rng rng(7);
  Matrix a = random_matrix(12, 9, rng);
  const eigen::PivotedQr f = eigen::qr_factor_pivoted(a.view());
  Matrix q = eigen::form_q(f);
  EXPECT_LT(orthogonality_defect(q.view()), 1e-13);
  // Rebuild A(:, jpvt) = Q * R.
  Matrix r(12, 9);
  fill(r.view(), 0.0);
  for (index_t j = 0; j < 9; ++j) {
    for (index_t i = 0; i <= std::min<index_t>(j, 11); ++i) {
      r(i, j) = f.qr(i, j);
    }
  }
  Matrix qr(12, 9);
  blas::gemm_reference(Trans::no, Trans::no, 12, 9, 12, 1.0, q.data(), 12,
                       r.data(), 12, 0.0, qr.data(), 12);
  for (index_t j = 0; j < 9; ++j) {
    const index_t src = f.jpvt[static_cast<std::size_t>(j)];
    for (index_t i = 0; i < 12; ++i) {
      EXPECT_NEAR(qr(i, j), a(i, src), 1e-12);
    }
  }
}

TEST(PivotedQr, RevealsRankOfLowRankMatrix) {
  // A = X Y^T with X, Y of width 3 => rank 3.
  Rng rng(9);
  const index_t n = 20, r = 3;
  Matrix x = random_matrix(n, r, rng);
  Matrix y = random_matrix(n, r, rng);
  Matrix a(n, n);
  blas::gemm_reference(Trans::no, Trans::transpose, n, n, r, 1.0, x.data(), n,
                       y.data(), n, 0.0, a.data(), n);
  const eigen::PivotedQr f = eigen::qr_factor_pivoted(a.view());
  EXPECT_EQ(f.rank(1e-10), r);
}

TEST(PivotedQr, DiagonalOfRIsNonIncreasing) {
  Rng rng(3);
  Matrix a = random_matrix(15, 15, rng);
  const eigen::PivotedQr f = eigen::qr_factor_pivoted(a.view());
  for (index_t i = 1; i < 15; ++i) {
    EXPECT_LE(std::abs(f.qr(i, i)), std::abs(f.qr(i - 1, i - 1)) + 1e-12);
  }
}

TEST(PivotedQr, ZeroMatrixHasRankZero) {
  Matrix a(6, 6);
  fill(a.view(), 0.0);
  const eigen::PivotedQr f = eigen::qr_factor_pivoted(a.view());
  EXPECT_EQ(f.rank(), 0);
  Matrix q = eigen::form_q(f);
  EXPECT_LT(orthogonality_defect(q.view()), 1e-14);  // Q == I
}

// ----------------------------------------------------------------- ISDA

TEST(Isda, MatchesJacobiOnRandomSymmetric) {
  Rng rng(21);
  const index_t n = 60;
  Matrix a(n, n);
  fill_random_symmetric(a.view(), rng);

  Matrix aj(n, n);
  copy(a.view(), aj.view());
  Matrix vj(n, n);
  std::vector<double> wj;
  eigen::jacobi_eigensolver(aj.view(), vj.view(), wj);

  IsdaOptions opts;
  opts.base_size = 12;
  const IsdaResult res = eigen::isda_eigensolver(a.view(), opts);
  ASSERT_EQ(res.eigenvalues.size(), static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(res.eigenvalues[static_cast<std::size_t>(i)],
                wj[static_cast<std::size_t>(i)], 1e-8)
        << "eigenvalue " << i;
  }
  EXPECT_LT(residual(a.view(), res.eigenvectors.view(), res.eigenvalues),
            1e-7);
  EXPECT_LT(orthogonality_defect(res.eigenvectors.view()), 1e-9);
  EXPECT_GT(res.stats.splits, 0);
  EXPECT_GT(res.stats.gemm_calls, 0);
  EXPECT_GT(res.stats.mm_seconds, 0.0);
}

TEST(Isda, BaseCaseOnlyForSmallMatrix) {
  Rng rng(5);
  const index_t n = 10;
  Matrix a(n, n);
  fill_random_symmetric(a.view(), rng);
  IsdaOptions opts;
  opts.base_size = 32;  // n < base => single Jacobi block
  const IsdaResult res = eigen::isda_eigensolver(a.view(), opts);
  EXPECT_EQ(res.stats.jacobi_blocks, 1);
  EXPECT_EQ(res.stats.splits, 0);
  EXPECT_LT(residual(a.view(), res.eigenvectors.view(), res.eigenvalues),
            1e-10);
}

TEST(Isda, IdentityMatrix) {
  const index_t n = 40;
  Matrix a(n, n);
  set_identity(a.view());
  IsdaOptions opts;
  opts.base_size = 8;
  const IsdaResult res = eigen::isda_eigensolver(a.view(), opts);
  for (double w : res.eigenvalues) EXPECT_NEAR(w, 1.0, 1e-12);
  EXPECT_LT(orthogonality_defect(res.eigenvectors.view()), 1e-10);
}

TEST(Isda, ClusteredSpectrum) {
  // Two tight clusters: eigenvalues near 1 and near 5.
  Rng rng(33);
  const index_t n = 32;
  Matrix d(n, n);
  fill(d.view(), 0.0);
  for (index_t i = 0; i < n; ++i) {
    d(i, i) = (i < n / 2 ? 1.0 : 5.0) + 1e-6 * rng.uniform();
  }
  // Conjugate by a random orthogonal Q (from QR of a random matrix).
  Matrix g = random_matrix(n, n, rng);
  const eigen::PivotedQr f = eigen::qr_factor_pivoted(g.view());
  Matrix q = eigen::form_q(f);
  Matrix t(n, n), a(n, n);
  blas::gemm_reference(Trans::no, Trans::no, n, n, n, 1.0, q.data(), n,
                       d.data(), n, 0.0, t.data(), n);
  blas::gemm_reference(Trans::no, Trans::transpose, n, n, n, 1.0, t.data(), n,
                       q.data(), n, 0.0, a.data(), n);

  IsdaOptions opts;
  opts.base_size = 8;
  const IsdaResult res = eigen::isda_eigensolver(a.view(), opts);
  EXPECT_LT(residual(a.view(), res.eigenvectors.view(), res.eigenvalues),
            1e-7);
  // Half the spectrum near 1, half near 5.
  for (index_t i = 0; i < n / 2; ++i) {
    EXPECT_NEAR(res.eigenvalues[static_cast<std::size_t>(i)], 1.0, 1e-4);
  }
  for (index_t i = n / 2; i < n; ++i) {
    EXPECT_NEAR(res.eigenvalues[static_cast<std::size_t>(i)], 5.0, 1e-4);
  }
}

TEST(Isda, DgefmmBackendAgreesWithDgemmBackend) {
  Rng rng(77);
  const index_t n = 48;
  Matrix a(n, n);
  fill_random_symmetric(a.view(), rng);
  IsdaOptions base;
  base.base_size = 12;
  base.gemm = eigen::gemm_backend_dgemm();
  IsdaOptions fast = base;
  fast.gemm = eigen::gemm_backend_dgefmm(
      core::CutoffCriterion::paper_default(blas::Machine::rs6000));
  const IsdaResult r1 = eigen::isda_eigensolver(a.view(), base);
  const IsdaResult r2 = eigen::isda_eigensolver(a.view(), fast);
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(r1.eigenvalues[static_cast<std::size_t>(i)],
                r2.eigenvalues[static_cast<std::size_t>(i)], 1e-8);
  }
  EXPECT_LT(residual(a.view(), r2.eigenvectors.view(), r2.eigenvalues), 1e-7);
}

TEST(PivotedQr, WideMatrix) {
  Rng rng(13);
  Matrix a = random_matrix(7, 12, rng);  // wide: kmax = 7 reflectors
  const eigen::PivotedQr f = eigen::qr_factor_pivoted(a.view());
  Matrix q = eigen::form_q(f);
  EXPECT_EQ(q.rows(), 7);
  EXPECT_LT(orthogonality_defect(q.view()), 1e-13);
  // Reconstruct all 12 permuted columns through Q R.
  Matrix r(7, 12);
  fill(r.view(), 0.0);
  for (index_t j = 0; j < 12; ++j) {
    for (index_t i = 0; i <= std::min<index_t>(j, 6); ++i) r(i, j) = f.qr(i, j);
  }
  Matrix qr(7, 12);
  blas::gemm_reference(Trans::no, Trans::no, 7, 12, 7, 1.0, q.data(), 7,
                       r.data(), 7, 0.0, qr.data(), 7);
  for (index_t j = 0; j < 12; ++j) {
    const index_t src = f.jpvt[static_cast<std::size_t>(j)];
    for (index_t i = 0; i < 7; ++i) EXPECT_NEAR(qr(i, j), a(i, src), 1e-12);
  }
}

TEST(Isda, OddSizeProblem) {
  // Odd n exercises odd-size splits (r and s - r both arbitrary).
  Rng rng(55);
  const index_t n = 57;
  Matrix a(n, n);
  fill_random_symmetric(a.view(), rng);
  eigen::IsdaOptions opts;
  opts.base_size = 9;
  const eigen::IsdaResult res = eigen::isda_eigensolver(a.view(), opts);
  EXPECT_LT(residual(a.view(), res.eigenvectors.view(), res.eigenvalues),
            1e-7);
  EXPECT_LT(orthogonality_defect(res.eigenvectors.view()), 1e-9);
}

TEST(Isda, NegativeAndPositiveSpectrum) {
  // Indefinite matrix: eigenvalues straddle zero; the bisection must still
  // find balanced split points.
  Rng rng(56);
  const index_t n = 40;
  Matrix d(n, n);
  fill(d.view(), 0.0);
  for (index_t i = 0; i < n; ++i) {
    d(i, i) = -10.0 + 20.0 * double(i) / double(n - 1);
  }
  Matrix g = random_matrix(n, n, rng);
  const eigen::PivotedQr f = eigen::qr_factor_pivoted(g.view());
  Matrix q = eigen::form_q(f);
  Matrix t(n, n), a(n, n);
  blas::gemm_reference(Trans::no, Trans::no, n, n, n, 1.0, q.data(), n,
                       d.data(), n, 0.0, t.data(), n);
  blas::gemm_reference(Trans::no, Trans::transpose, n, n, n, 1.0, t.data(),
                       n, q.data(), n, 0.0, a.data(), n);
  eigen::IsdaOptions opts;
  opts.base_size = 8;
  const eigen::IsdaResult res = eigen::isda_eigensolver(a.view(), opts);
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(res.eigenvalues[static_cast<std::size_t>(i)],
                -10.0 + 20.0 * double(i) / double(n - 1), 1e-7);
  }
}

TEST(Isda, OneByOneAndTwoByTwo) {
  Matrix a1(1, 1);
  a1(0, 0) = 3.5;
  const eigen::IsdaResult r1 = eigen::isda_eigensolver(a1.view());
  ASSERT_EQ(r1.eigenvalues.size(), 1u);
  EXPECT_DOUBLE_EQ(r1.eigenvalues[0], 3.5);

  Matrix a2(2, 2);
  a2(0, 0) = 2;
  a2(0, 1) = 1;
  a2(1, 0) = 1;
  a2(1, 1) = 2;
  const eigen::IsdaResult r2 = eigen::isda_eigensolver(a2.view());
  EXPECT_NEAR(r2.eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(r2.eigenvalues[1], 3.0, 1e-12);
}

TEST(Isda, EigenvaluesSortedAscending) {
  Rng rng(2);
  const index_t n = 50;
  Matrix a(n, n);
  fill_random_symmetric(a.view(), rng);
  IsdaOptions opts;
  opts.base_size = 10;
  const IsdaResult res = eigen::isda_eigensolver(a.view(), opts);
  EXPECT_TRUE(
      std::is_sorted(res.eigenvalues.begin(), res.eigenvalues.end()));
}

}  // namespace
}  // namespace strassen
