// SGEFMM: the float instantiation of the GEFMM vertical.
//
// Three pillars, mirroring the double suites:
//  * a correctness matrix (shapes x transposes x beta x schemes, serial and
//    parallel DAG) checked against a double-precision reference product --
//    the float result must sit within a forward-error bound scaled for
//    Strassen's error growth, not merely "close to a float reference";
//  * the fault-injection sweeps of test_faults.cpp re-run through the float
//    entry points, asserting the same strict/fallback contract
//    (DESIGN.md section 7) holds for the float arenas and pack buffers;
//  * bitwise determinism: sgefmm_parallel must produce memcmp-identical C
//    for every thread budget, exactly like dgefmm_parallel.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "blas/gemm.hpp"
#include "core/sgefmm.hpp"
#include "parallel/parallel_strassen.hpp"
#include "support/faultinject.hpp"
#include "support/matrix.hpp"
#include "support/random.hpp"

namespace strassen {
namespace {

namespace fi = faultinject;

using core::CutoffCriterion;
using core::DgefmmStats;
using core::FailurePolicy;
using core::Scheme;
using core::SgefmmConfig;

// Forward-error budget against the double-precision reference. Classic
// float GEMM is bounded by ~k*eps_f; the Winograd recursion amplifies by a
// constant factor per level (Higham ch. 23), and the suite runs up to three
// levels above a 16-cutoff. A generous constant keeps the bound tight
// enough to catch any real defect (wrong results are O(1)).
float tolerance(index_t k) {
  return 64.0f * static_cast<float>(k) * std::numeric_limits<float>::epsilon();
}

// Double-precision reference for a float problem: promote the float inputs
// bit-exactly and run the proven double reference kernel.
Matrix promoted_reference(Trans ta, Trans tb, index_t m, index_t n, index_t k,
                          float alpha, const MatrixF& a, const MatrixF& b,
                          float beta, const MatrixF& c0) {
  auto promote = [](const MatrixF& src) {
    Matrix dst(src.rows(), src.cols());
    for (index_t j = 0; j < src.cols(); ++j) {
      for (index_t i = 0; i < src.rows(); ++i) {
        dst.view()(i, j) = static_cast<double>(src.view()(i, j));
      }
    }
    return dst;
  };
  Matrix ad = promote(a), bd = promote(b), cd = promote(c0);
  blas::gemm_reference(ta, tb, m, n, k, static_cast<double>(alpha), ad.data(),
                       ad.rows(), bd.data(), bd.rows(),
                       static_cast<double>(beta), cd.data(), cd.rows());
  return cd;
}

double error_vs(const Matrix& want, const MatrixF& got) {
  double worst = 0.0;
  for (index_t j = 0; j < want.cols(); ++j) {
    for (index_t i = 0; i < want.rows(); ++i) {
      const double d =
          want.view()(i, j) - static_cast<double>(got.view()(i, j));
      worst = std::max(worst, d < 0 ? -d : d);
    }
  }
  return worst;
}

// ---------------------------------------------------------------------------
// Correctness matrix: shapes x transposes x beta x schemes.

struct ShapeCase {
  index_t m, n, k;
};
constexpr ShapeCase kShapes[] = {
    {64, 64, 64},    // even square: pure recursion
    {96, 48, 72},    // even rectangular
    {65, 63, 61},    // odd everywhere: dynamic peeling
    {128, 117, 90},  // mixed parity, deeper recursion
};
constexpr float kBetas[] = {0.0f, 1.0f, -0.5f};
constexpr Scheme kSchemes[] = {Scheme::automatic, Scheme::strassen1,
                               Scheme::strassen2, Scheme::fused};

class SgefmmMatrix
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(SgefmmMatrix, MatchesPromotedReference) {
  const ShapeCase sh = kShapes[std::get<0>(GetParam())];
  const int trans_idx = std::get<1>(GetParam());
  const float beta = kBetas[std::get<2>(GetParam())];
  const Scheme scheme = kSchemes[std::get<3>(GetParam())];
  const Trans ta = (trans_idx & 1) != 0 ? Trans::transpose : Trans::no;
  const Trans tb = (trans_idx & 2) != 0 ? Trans::transpose : Trans::no;
  const float alpha = 1.25f;

  Rng rng(1000 + static_cast<std::uint64_t>(
                     std::get<0>(GetParam()) * 100 + trans_idx * 25 +
                     std::get<2>(GetParam()) * 5 + std::get<3>(GetParam())));
  const MatrixF a = random_matrix_f(is_trans(ta) ? sh.k : sh.m,
                                    is_trans(ta) ? sh.m : sh.k, rng);
  const MatrixF b = random_matrix_f(is_trans(tb) ? sh.n : sh.k,
                                    is_trans(tb) ? sh.k : sh.n, rng);
  const MatrixF c0 = random_matrix_f(sh.m, sh.n, rng);
  const Matrix want =
      promoted_reference(ta, tb, sh.m, sh.n, sh.k, alpha, a, b, beta, c0);

  MatrixF c(sh.m, sh.n);
  copy(c0.view(), c.view());
  SgefmmConfig cfg;
  cfg.cutoff = CutoffCriterion::square_simple(16);
  cfg.scheme = scheme;
  DgefmmStats stats;
  cfg.stats = &stats;
  ASSERT_EQ(core::sgefmm(ta, tb, sh.m, sh.n, sh.k, alpha, a.data(), a.rows(),
                         b.data(), b.rows(), beta, c.data(), c.rows(), cfg),
            0);
  EXPECT_LT(error_vs(want, c), tolerance(sh.k));
  EXPECT_GE(stats.strassen_levels, 1u) << "cutoff 16 must recurse here";
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SgefmmMatrix,
    ::testing::Combine(::testing::Range(0, 4),    // shape
                       ::testing::Range(0, 4),    // NN, TN, NT, TT
                       ::testing::Range(0, 3),    // beta
                       ::testing::Range(0, 4)));  // scheme

// Strided output: ldc > m must behave identically (the packed epilogue and
// the combine kernels all honour the leading dimension).
TEST(Sgefmm, PaddedLeadingDimensions) {
  const index_t m = 64, n = 64, k = 64, lda = 71, ldb = 67, ldc = 77;
  Rng rng(77);
  std::vector<float> a(static_cast<std::size_t>(lda) * k);
  std::vector<float> b(static_cast<std::size_t>(ldb) * n);
  std::vector<float> c(static_cast<std::size_t>(ldc) * n, 0.5f);
  fill_random(make_view(a.data(), lda, k, lda), rng);
  fill_random(make_view(b.data(), ldb, n, ldb), rng);

  std::vector<float> want(c);
  blas::gemm_reference(Trans::no, Trans::no, m, n, k, 1.0f, a.data(), lda,
                       b.data(), ldb, 2.0f, want.data(), ldc);

  SgefmmConfig cfg;
  cfg.cutoff = CutoffCriterion::square_simple(16);
  ASSERT_EQ(core::sgefmm(Trans::no, Trans::no, m, n, k, 1.0f, a.data(), lda,
                         b.data(), ldb, 2.0f, c.data(), ldc, cfg),
            0);
  EXPECT_LT(max_abs_diff(make_view(want.data(), m, n, ldc),
                         make_view(c.data(), m, n, ldc)),
            tolerance(k));
  // The pad rows between columns must be untouched.
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = m; i < ldc; ++i) {
      EXPECT_EQ(c[static_cast<std::size_t>(j) * ldc + i], 0.5f);
    }
  }
}

// XERBLA-style argument checking mirrors dgefmm exactly.
TEST(Sgefmm, BadArgumentsReturnPositionalInfo) {
  std::vector<float> buf(16 * 16, 0.0f);
  float* p = buf.data();
  SgefmmConfig cfg;
  EXPECT_EQ(core::sgefmm(Trans::no, Trans::no, -1, 4, 4, 1.0f, p, 4, p, 4,
                         0.0f, p, 4, cfg),
            3);
  EXPECT_EQ(core::sgefmm(Trans::no, Trans::no, 4, -1, 4, 1.0f, p, 4, p, 4,
                         0.0f, p, 4, cfg),
            4);
  EXPECT_EQ(core::sgefmm(Trans::no, Trans::no, 4, 4, -1, 1.0f, p, 4, p, 4,
                         0.0f, p, 4, cfg),
            5);
  EXPECT_EQ(core::sgefmm(Trans::no, Trans::no, 4, 4, 4, 1.0f, p, 2, p, 4,
                         0.0f, p, 4, cfg),
            8);
  EXPECT_EQ(core::sgefmm(Trans::no, Trans::no, 4, 4, 4, 1.0f, p, 4, p, 2,
                         0.0f, p, 4, cfg),
            10);
  EXPECT_EQ(core::sgefmm(Trans::no, Trans::no, 4, 4, 4, 1.0f, p, 4, p, 4,
                         0.0f, p, 2, cfg),
            13);
}

// The caller-workspace path: reserving the predicted float count up front
// must be exactly enough (no internal growth, strict policy happy).
TEST(Sgefmm, PredictedWorkspaceIsSufficientUnderStrict) {
  const index_t n = 96;
  Rng rng(88);
  const MatrixF a = random_matrix_f(n, n, rng);
  const MatrixF b = random_matrix_f(n, n, rng);
  MatrixF c(n, n);
  c.fill(0.0f);

  SgefmmConfig cfg;
  cfg.cutoff = CutoffCriterion::square_simple(16);
  cfg.on_failure = FailurePolicy::strict;
  const count_t need =
      core::sgefmm_workspace_floats(n, n, n, 0.0f, cfg);
  ArenaF arena(static_cast<std::size_t>(need));
  cfg.workspace = &arena;
  ASSERT_EQ(core::sgefmm(Trans::no, Trans::no, n, n, n, 1.0f, a.data(), n,
                         b.data(), n, 0.0f, c.data(), n, cfg),
            0);
  EXPECT_LE(arena.peak(), static_cast<std::size_t>(need));
  EXPECT_EQ(arena.in_use(), 0u);
}

// ---------------------------------------------------------------------------
// Fault-injection sweeps through the float entry points (the outcome-based
// harness of test_faults.cpp: walk the Nth-acquisition countdown until a
// run completes clean, asserting the policy contract whenever it fires).

// Sweep caps are a counted total (sweep_limit_f) plus this margin, as in
// test_faults.cpp.
constexpr long kSweepMargin = 8;

struct ProblemF {
  index_t m, n, k;
  float alpha, beta;
  MatrixF a, b, c0;
  Matrix want;

  ProblemF(index_t m_, index_t n_, index_t k_, float alpha_, float beta_,
           std::uint64_t seed)
      : m(m_), n(n_), k(k_), alpha(alpha_), beta(beta_) {
    Rng rng(seed);
    a = random_matrix_f(m, k, rng);
    b = random_matrix_f(k, n, rng);
    c0 = random_matrix_f(m, n, rng);
    want = promoted_reference(Trans::no, Trans::no, m, n, k, alpha, a, b,
                              beta, c0);
  }
};

class SgefmmFaults : public ::testing::Test {
 protected:
  void TearDown() override { fi::disarm(); }
};

template <class Call>
bool check_armed_call_f(const ProblemF& p, FailurePolicy policy,
                        const DgefmmStats& stats, long nth, Call&& call) {
  MatrixF c(p.m, p.n);
  copy(p.c0.view(), c.view());
  std::vector<float> snapshot(
      c.data(), c.data() + static_cast<std::size_t>(p.m) * p.n);

  const long before = fi::injected_total();
  fi::arm(nth);
  bool threw = false;
  int info = -999;
  try {
    info = call(c);
  } catch (const Error&) {
    threw = true;
  } catch (const std::bad_alloc&) {
    threw = true;
  }
  fi::disarm();
  const bool fired = fi::injected_total() > before;

  if (!fired) {
    EXPECT_FALSE(threw);
    EXPECT_EQ(info, 0);
    EXPECT_LT(error_vs(p.want, c), tolerance(p.k));
    return false;
  }
  if (policy == FailurePolicy::strict) {
    EXPECT_TRUE(threw) << "strict policy must surface the injected fault";
    EXPECT_EQ(std::memcmp(c.data(), snapshot.data(),
                          snapshot.size() * sizeof(float)),
              0)
        << "strict policy must leave C bit-identical";
  } else {
    EXPECT_FALSE(threw) << "fallback policy must absorb the injected fault";
    EXPECT_EQ(info, 0);
    EXPECT_LT(error_vs(p.want, c), tolerance(p.k));
    EXPECT_GE(stats.fallbacks, 1u)
        << "fallback degradation must be recorded in the stats";
  }
  return true;
}

// The acquisitions of one clean call, counted under a countdown no call
// reaches, plus the margin: the sweep's cap.
template <class Call>
long sweep_limit_f(const ProblemF& p, Call&& call) {
  MatrixF c(p.m, p.n);
  copy(p.c0.view(), c.view());
  fi::arm(1L << 40);
  const int info = call(c);
  const long acquisitions = fi::consumed();
  fi::disarm();
  EXPECT_EQ(info, 0);
  EXPECT_LT(error_vs(p.want, c), tolerance(p.k));
  EXPECT_GT(acquisitions, 0) << "the swept call acquires nothing";
  return acquisitions + kSweepMargin;
}

void sweep_serial_f(index_t m, index_t n, index_t k, Scheme scheme,
                    float beta, FailurePolicy policy, std::uint64_t seed) {
  const ProblemF p(m, n, k, 1.0f, beta, seed);
  const auto call = [&](MatrixF& c, DgefmmStats* stats) {
    SgefmmConfig cfg;
    cfg.cutoff = CutoffCriterion::square_simple(16);
    cfg.scheme = scheme;
    cfg.on_failure = policy;
    cfg.stats = stats;
    return core::sgefmm(Trans::no, Trans::no, p.m, p.n, p.k, p.alpha,
                        p.a.data(), p.m, p.b.data(), p.k, p.beta, c.data(),
                        p.m, cfg);
  };
  const long limit =
      sweep_limit_f(p, [&](MatrixF& c) { return call(c, nullptr); });
  for (long nth = 1; nth <= limit; ++nth) {
    SCOPED_TRACE(::testing::Message()
                 << "serial-f " << m << "x" << n << "x" << k << " scheme "
                 << static_cast<int>(scheme) << " beta " << beta << " nth "
                 << nth);
    DgefmmStats stats;
    const bool fired = check_armed_call_f(
        p, policy, stats, nth, [&](MatrixF& c) { return call(c, &stats); });
    if (!fired) return;
  }
  FAIL() << "sweep did not reach a fault-free run within " << limit
         << " acquisitions";
}

void sweep_parallel_f(index_t m, index_t n, index_t k, Scheme scheme,
                      float beta, FailurePolicy policy, std::uint64_t seed,
                      std::size_t threads = 0) {
  const ProblemF p(m, n, k, 1.0f, beta, seed);
  const auto call = [&](MatrixF& c, DgefmmStats* stats) {
    parallel::ParallelSgefmmConfig cfg;
    cfg.cutoff = CutoffCriterion::square_simple(16);
    cfg.scheme = scheme;
    cfg.on_failure = policy;
    cfg.stats = stats;
    cfg.threads = threads;
    return parallel::sgefmm_parallel(Trans::no, Trans::no, p.m, p.n, p.k,
                                     p.alpha, p.a.data(), p.m, p.b.data(),
                                     p.k, p.beta, c.data(), p.m, cfg);
  };
  const long limit =
      sweep_limit_f(p, [&](MatrixF& c) { return call(c, nullptr); });
  for (long nth = 1; nth <= limit; ++nth) {
    SCOPED_TRACE(::testing::Message()
                 << "parallel-f " << m << "x" << n << "x" << k << " scheme "
                 << static_cast<int>(scheme) << " beta " << beta
                 << " threads " << threads << " nth " << nth);
    DgefmmStats stats;
    const bool fired = check_armed_call_f(
        p, policy, stats, nth, [&](MatrixF& c) { return call(c, &stats); });
    if (!fired) return;
  }
  FAIL() << "sweep did not reach a fault-free run within " << limit
         << " acquisitions";
}

TEST_F(SgefmmFaults, SerialSweepStrassen1Strict) {
  sweep_serial_f(64, 64, 64, Scheme::strassen1, 0.0f, FailurePolicy::strict,
                 41);
}

TEST_F(SgefmmFaults, SerialSweepStrassen1Fallback) {
  sweep_serial_f(64, 64, 64, Scheme::strassen1, 0.0f, FailurePolicy::fallback,
                 41);
}

TEST_F(SgefmmFaults, SerialSweepFusedStrict) {
  sweep_serial_f(64, 64, 64, Scheme::fused, 0.7f, FailurePolicy::strict, 42);
}

TEST_F(SgefmmFaults, SerialSweepFusedFallback) {
  sweep_serial_f(64, 64, 64, Scheme::fused, 0.7f, FailurePolicy::fallback,
                 42);
}

TEST_F(SgefmmFaults, SerialSweepOddRectangularStrict) {
  sweep_serial_f(65, 63, 61, Scheme::automatic, 1.3f, FailurePolicy::strict,
                 43);
}

TEST_F(SgefmmFaults, SerialSweepOddRectangularFallback) {
  sweep_serial_f(65, 63, 61, Scheme::automatic, 1.3f, FailurePolicy::fallback,
                 43);
}

TEST_F(SgefmmFaults, ParallelSweepStrict) {
  sweep_parallel_f(64, 64, 64, Scheme::automatic, 1.3f, FailurePolicy::strict,
                   44);
}

TEST_F(SgefmmFaults, ParallelSweepFallback) {
  sweep_parallel_f(64, 64, 64, Scheme::automatic, 1.3f,
                   FailurePolicy::fallback, 44);
}

// Seven lanes, one per product node, on a smaller pool.
TEST_F(SgefmmFaults, ParallelSweepSevenLanesStrict) {
  sweep_parallel_f(72, 72, 72, Scheme::fused, 0.0f, FailurePolicy::strict, 45,
                   /*threads=*/7);
}

TEST_F(SgefmmFaults, ParallelSweepSevenLanesFallback) {
  sweep_parallel_f(72, 72, 72, Scheme::fused, 0.0f, FailurePolicy::fallback,
                   45, /*threads=*/7);
}

// ---------------------------------------------------------------------------
// Bitwise determinism across thread budgets: the float DAG combines apply
// their terms in the verified schedule's fixed order, so C is
// memcmp-identical whatever the pool does, for plain and transposed
// operands.

class SgefmmDeterminism
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SgefmmDeterminism, BitwiseIdenticalAcrossThreadCounts) {
  const Scheme scheme =
      std::get<0>(GetParam()) == 0 ? Scheme::automatic : Scheme::fused;
  const Trans op =
      std::get<1>(GetParam()) == 0 ? Trans::no : Trans::transpose;
  const index_t n = std::get<2>(GetParam()) == 0 ? 128 : 117;
  Rng rng(4001 + static_cast<std::uint64_t>(std::get<0>(GetParam()) * 10 +
                                            std::get<1>(GetParam())));
  const MatrixF a = random_matrix_f(n, n, rng);
  const MatrixF b = random_matrix_f(n, n, rng);
  const MatrixF c0 = random_matrix_f(n, n, rng);

  auto run_with_threads = [&](std::size_t threads, MatrixF& c) {
    copy(c0.view(), c.view());
    parallel::ParallelSgefmmConfig cfg;
    cfg.cutoff = CutoffCriterion::square_simple(16);
    cfg.scheme = scheme;
    cfg.threads = threads;
    ASSERT_EQ(parallel::sgefmm_parallel(op, op, n, n, n, 1.5f, a.data(), n,
                                        b.data(), n, 0.25f, c.data(), n, cfg),
              0);
  };

  MatrixF base(n, n), wide(n, n), pool_sized(n, n);
  run_with_threads(1, base);
  run_with_threads(8, wide);
  run_with_threads(0, pool_sized);
  const std::size_t bytes =
      static_cast<std::size_t>(n) * static_cast<std::size_t>(n) *
      sizeof(float);
  EXPECT_EQ(std::memcmp(base.data(), wide.data(), bytes), 0);
  EXPECT_EQ(std::memcmp(base.data(), pool_sized.data(), bytes), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SgefmmDeterminism,
    ::testing::Combine(::testing::Values(0, 1),    // automatic, fused
                       ::testing::Values(0, 1),    // op(A), op(B): N, T
                       ::testing::Values(0, 1)));  // even, odd shape

}  // namespace
}  // namespace strassen
