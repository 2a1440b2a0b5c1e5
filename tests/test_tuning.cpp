// Tests for the empirical cutoff tuner. The search logic is driven by
// synthetic cost models (so the tests are deterministic); one smoke test
// exercises the real timing path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/kernels.hpp"
#include "blas/packed_loop.hpp"
#include "core/cabi.hpp"
#include "core/gemm_backend.hpp"
#include "core/sgefmm.hpp"
#include "core/dgefmm.hpp"
#include "core/tuned_policy.hpp"
#include "core/workspace.hpp"
#include "model/opmodel.hpp"
#include "parallel/parallel_strassen.hpp"
#include "support/matrix.hpp"
#include "support/random.hpp"
#include "tuning/autotune.hpp"
#include "tuning/crossover.hpp"

namespace strassen {
namespace {

using model::Variant;
using tuning::CrossoverOptions;
using tuning::RatioFn;
using tuning::SweepPoint;

// Ratio function induced by the operation-count model: time proportional to
// operation count. Under this model the tuner must rediscover the
// theoretical cutoff of 12 (Section 2).
RatioFn opcount_ratio() {
  return [](index_t m, index_t k, index_t n) {
    const double standard =
        static_cast<double>(model::standard_cost(m, k, n));
    const index_t m2 = m / 2, k2 = k / 2, n2 = n / 2;
    const double one_level =
        7.0 * static_cast<double>(model::standard_cost(m2, k2, n2)) +
        static_cast<double>(
            model::level_add_cost(Variant::winograd, m2, k2, n2));
    return standard / one_level;
  };
}

TEST(CrossoverSearch, CleanMonotoneSweepPicksLastDgemmWin) {
  std::vector<SweepPoint> sweep{{100, 0.9}, {110, 0.95}, {120, 0.99},
                                {130, 1.02}, {140, 1.05}, {150, 1.1}};
  EXPECT_EQ(tuning::crossover_from_sweep(sweep), 120);
}

TEST(CrossoverSearch, InterleavedSweepSplitsTheDifference) {
  // First Strassen win at 120, last DGEMM win at 130: the paper's rule
  // (tau = 199 between 176 and 214) picks the midpoint.
  std::vector<SweepPoint> sweep{{100, 0.9}, {110, 0.95}, {120, 1.02},
                                {130, 0.99}, {140, 1.05}, {150, 1.1}};
  EXPECT_EQ(tuning::crossover_from_sweep(sweep), 125);
}

TEST(CrossoverSearch, TieCountsAsDgemmWin) {
  std::vector<SweepPoint> sweep{{10, 0.9}, {12, 1.0}, {14, 1.1}};
  EXPECT_EQ(tuning::crossover_from_sweep(sweep), 12);
}

TEST(CrossoverSearch, AllStrassenWins) {
  std::vector<SweepPoint> sweep{{64, 1.2}, {72, 1.3}};
  EXPECT_EQ(tuning::crossover_from_sweep(sweep), 63);
}

TEST(CrossoverSearch, AllDgemmWins) {
  std::vector<SweepPoint> sweep{{64, 0.8}, {72, 0.9}};
  EXPECT_EQ(tuning::crossover_from_sweep(sweep), 72);
}

TEST(CrossoverSearch, EmptySweep) {
  EXPECT_EQ(tuning::crossover_from_sweep({}), 0);
}

TEST(CrossoverSearch, OpCountModelGivesTheoreticalSquareCutoff) {
  CrossoverOptions opts;
  opts.min_size = 2;
  opts.max_size = 40;
  opts.step = 2;
  const auto result = tuning::find_square_crossover(opts, opcount_ratio());
  EXPECT_EQ(result.tau, 12);
  EXPECT_EQ(result.sweep.size(), 20u);
}

TEST(CrossoverSearch, OpCountModelRectangularParams) {
  // With two dimensions huge, eq. (8) reduces to 1 >= 4/s + O(1/big), so
  // every parameter comes out at (just above) 4.
  CrossoverOptions opts;
  opts.min_size = 2;
  opts.max_size = 40;
  opts.step = 2;
  opts.fixed_large = 4096;
  const auto rect = tuning::find_rectangular_params(opts, opcount_ratio());
  EXPECT_EQ(rect.tau_m, 4);
  EXPECT_EQ(rect.tau_k, 4);
  EXPECT_EQ(rect.tau_n, 4);
}

TEST(CrossoverSearch, AsymmetricSyntheticModel) {
  // A model where the m-dimension is twice as "expensive" to recurse over:
  // the tuner must report an asymmetric parameter set (tau_m > tau_k),
  // the phenomenon Table 3 documents on real machines.
  RatioFn asym = [](index_t m, index_t k, index_t n) {
    const double penalty = 40.0 / static_cast<double>(m) +
                           20.0 / static_cast<double>(k) +
                           20.0 / static_cast<double>(n);
    return penalty < 1.0 ? 1.2 : 0.8;  // Strassen wins iff penalty < 1
  };
  CrossoverOptions opts;
  opts.min_size = 2;
  opts.max_size = 100;
  opts.step = 2;
  opts.fixed_large = 100000;
  const auto rect = tuning::find_rectangular_params(opts, asym);
  EXPECT_GT(rect.tau_m, rect.tau_k);
  EXPECT_EQ(rect.tau_k, rect.tau_n);
}

TEST(CrossoverSearch, MeasuredRatioSmokeTest) {
  // Real timing on tiny sizes: just verify the plumbing produces positive
  // finite ratios and a sweep of the right length.
  CrossoverOptions opts;
  opts.min_size = 24;
  opts.max_size = 48;
  opts.step = 24;
  opts.reps = 1;
  const auto result = tuning::find_square_crossover(opts);
  ASSERT_EQ(result.sweep.size(), 2u);
  for (const SweepPoint& p : result.sweep) {
    // Structural checks only: on a loaded CI host the magnitude can swing
    // wildly, but the ratio must always be a positive finite number.
    EXPECT_GT(p.ratio, 0.0);
    EXPECT_TRUE(std::isfinite(p.ratio));
  }
}

TEST(CrossoverSearch, TuneHybridProducesValidCriterion) {
  // Synthetic end-to-end via the measured path on small sizes; we only
  // check the criterion is structurally sound (positive parameters).
  CrossoverOptions opts;
  opts.min_size = 16;
  opts.max_size = 32;
  opts.step = 16;
  opts.fixed_large = 64;
  opts.reps = 1;
  const core::CutoffCriterion crit = tuning::tune_hybrid_criterion(opts);
  EXPECT_EQ(crit.kind, core::CutoffKind::hybrid);
  EXPECT_GE(crit.tau, 2.0);
  EXPECT_GE(crit.tau_m, 2.0);
  EXPECT_GE(crit.tau_k, 2.0);
  EXPECT_GE(crit.tau_n, 2.0);
}

// --- scheme auto-tuning: policy routing, install gate, consult proof -------

// tuned_path_for is the single routing function both the drivers and the
// workspace predictors share; its thresholds are pure logic, tested
// exhaustively here so the timing-dependent pieces can stay smoke tests.
TEST(TunedPolicy, PathRoutingThresholds) {
  core::TunedPolicy p;
  p.tau_fused = 100;
  p.tau_fused2 = 300;
  p.tau_dag = 500;

  using core::TunedPath;
  // At or below tau_fused: plain GEMM, regardless of workers.
  EXPECT_EQ(core::tuned_path_for(p, 100, 100, 100, 1), TunedPath::gemm);
  EXPECT_EQ(core::tuned_path_for(p, 100, 100, 100, 8), TunedPath::gemm);
  // Between tau_fused and tau_fused2: one fused level.
  EXPECT_EQ(core::tuned_path_for(p, 200, 200, 200, 1), TunedPath::fused_l1);
  // Above tau_fused2: two fused levels.
  EXPECT_EQ(core::tuned_path_for(p, 400, 400, 400, 1), TunedPath::fused_l2);
  // Above tau_dag: the DAG, but only when there are workers to use it.
  EXPECT_EQ(core::tuned_path_for(p, 600, 600, 600, 1), TunedPath::fused_l2);
  EXPECT_EQ(core::tuned_path_for(p, 600, 600, 600, 4), TunedPath::dag);
  // Equivalent order: a rectangular shape routes by cbrt(m*k*n).
  EXPECT_EQ(core::tuned_path_for(p, 1000, 10, 10, 1), TunedPath::gemm);

  // Above tau_hybrid the classic recursion outranks the fused levels (but
  // not the DAG); tau_hybrid == 0 means "hybrid never won".
  p.tau_hybrid = 400;
  EXPECT_EQ(core::tuned_path_for(p, 350, 350, 350, 1), TunedPath::fused_l2);
  EXPECT_EQ(core::tuned_path_for(p, 450, 450, 450, 1), TunedPath::hybrid);
  EXPECT_EQ(core::tuned_path_for(p, 600, 600, 600, 1), TunedPath::hybrid);
  EXPECT_EQ(core::tuned_path_for(p, 600, 600, 600, 4), TunedPath::dag);
  p.tau_hybrid = 0;
  EXPECT_EQ(core::tuned_path_for(p, 450, 450, 450, 1), TunedPath::fused_l2);

  // tau_fused2 == 0 means "two levels never won": stay at one level.
  p.tau_fused2 = 0;
  p.tau_dag = 0;
  EXPECT_EQ(core::tuned_path_for(p, 400, 400, 400, 8), TunedPath::fused_l1);

  // tau_fused == 0 is the "never won" sentinel: GEMM at every size, even
  // where the other thresholds would pick a Strassen schedule.
  p.tau_fused = 0;
  p.tau_hybrid = 400;
  EXPECT_EQ(core::tuned_path_for(p, 8, 8, 8, 1), TunedPath::gemm);
  EXPECT_EQ(core::tuned_path_for(p, 4000, 4000, 4000, 4), TunedPath::gemm);
  // "Fused from the first size" is a threshold below every shape.
  p.tau_fused = 1;
  p.tau_hybrid = 0;
  EXPECT_EQ(core::tuned_path_for(p, 8, 8, 8, 1), TunedPath::fused_l1);
  EXPECT_EQ(core::tuned_path_for(p, 16, 16, 16, 1), TunedPath::fused_l1);
}

TEST(TunedPolicy, Strassen2OutranksHybridPastTauS2) {
  // tau_s2 partitions the classic regime: automatic hybrid up to tau_s2,
  // forced STRASSEN2 beyond. It is consulted only after the tau_hybrid
  // gate, so it can never route strassen2 while fused still wins.
  core::TunedPolicy p;
  p.tau_fused = 100;
  p.tau_fused2 = 300;
  p.tau_hybrid = 400;
  p.tau_s2 = 800;

  using core::TunedPath;
  EXPECT_EQ(core::tuned_path_for(p, 500, 500, 500, 1), TunedPath::hybrid);
  EXPECT_EQ(core::tuned_path_for(p, 800, 800, 800, 1), TunedPath::hybrid);
  EXPECT_EQ(core::tuned_path_for(p, 900, 900, 900, 1), TunedPath::strassen2);
  // The DAG still outranks both recursion variants when workers exist.
  p.tau_dag = 600;
  EXPECT_EQ(core::tuned_path_for(p, 900, 900, 900, 4), TunedPath::dag);
  EXPECT_EQ(core::tuned_path_for(p, 900, 900, 900, 1), TunedPath::strassen2);
  // tau_s2 == 0: old criteria files without the key keep their routing.
  p.tau_s2 = 0;
  EXPECT_EQ(core::tuned_path_for(p, 900, 900, 900, 1), TunedPath::hybrid);
  // tau_s2 at the regime boundary: strassen2 from the first classic size.
  p.tau_s2 = p.tau_hybrid;
  EXPECT_EQ(core::tuned_path_for(p, 450, 450, 450, 1), TunedPath::strassen2);
}

// --- sweep reduction: the tuned path must never be the measured worst ------

// The measured time the policy's chosen path would run at one swept point.
double time_of_path(core::TunedPath path, const tuning::SchemePoint& t) {
  switch (path) {
    case core::TunedPath::gemm:
      return t.gemm;
    case core::TunedPath::fused_l1:
      return t.fused1;
    case core::TunedPath::fused_l2:
      return t.fused2;
    case core::TunedPath::hybrid:
      return t.hybrid;
    case core::TunedPath::strassen2:
      return t.s2;
    case core::TunedPath::dag:
      return t.dag;
  }
  return 0;
}

core::TunedPolicy policy_from_crossovers(const tuning::SchemeCrossovers& x) {
  tuning::TunedCriteria criteria;
  criteria.kernel = blas::active_kernel().name;
  criteria.tau_fused = x.tau_fused;
  criteria.tau_fused2 = x.tau_fused2;
  criteria.tau_hybrid = x.tau_hybrid;
  criteria.tau_s2 = x.tau_s2;
  criteria.tau_dag = x.tau_dag;
  return tuning::policy_from_criteria(criteria);
}

// Regression for the m = 4096 mis-route: the committed crossover bench
// measured the tuned path ("hybrid", 0.888x vs DGEMM) as slower than the
// schedule the sweep itself had timed winning (strassen2, 0.952x) -- the
// automatic hybrid was the measured-WORST serial schedule at that shape,
// yet the reduction dated the classic-regime flip by it and the router had
// no way to pick the variant that actually won. This sweep reproduces that
// shape class synthetically (times in arbitrary units, lower = better,
// hybrid worst at every large size while forced STRASSEN2 wins) and
// asserts the property that was violated: at every swept size, the path
// the reduced policy routes to is never the worst-measured schedule there.
TEST(SchemeSweep, TunedPathIsNeverTheMeasuredWorstSchedule) {
  using tuning::SchemePoint;
  const std::vector<SchemePoint> sweep{
      //   s   gemm fused1 fused2 hybrid   s2   dag
      {128, 1.00, 1.10, 1.20, 1.40, 1.45, 1.50},
      {256, 1.00, 0.95, 1.00, 1.25, 1.30, 1.20},
      {512, 1.00, 0.92, 0.90, 1.10, 1.12, 1.00},
      {1024, 1.00, 0.93, 0.91, 1.05, 0.96, 0.95},
      {2048, 1.00, 0.95, 0.94, 1.08, 0.88, 0.90},
      {4096, 1.00, 0.99, 0.98, 1.13, 0.85, 0.87},
  };
  const tuning::SchemeCrossovers x = tuning::reduce_scheme_sweep(sweep);
  // Structural expectations for this sweep: fused wins early, the classic
  // regime opens between 1024 and 2048, and within it STRASSEN2 (not the
  // automatic hybrid, which never beats best-fused here) is the variant.
  EXPECT_GE(x.tau_fused, 128);  // clean flip dates at the last gemm win
  EXPECT_LT(x.tau_fused, 256);
  EXPECT_GE(x.tau_hybrid, 1024);
  EXPECT_LT(x.tau_hybrid, 2048);
  EXPECT_DOUBLE_EQ(x.tau_s2, x.tau_hybrid);  // s2 wins the whole regime
  EXPECT_DOUBLE_EQ(x.tau_dag, 0);            // DAG never won (1-core host)

  const core::TunedPolicy p = policy_from_crossovers(x);
  for (const SchemePoint& t : sweep) {
    // Serial routing (workers == 1): the DAG is not a candidate.
    const core::TunedPath path =
        core::tuned_path_for(p, t.s, t.s, t.s, 1);
    const double worst =
        std::max({t.gemm, t.fused1, t.fused2, t.hybrid, t.s2});
    EXPECT_LT(time_of_path(path, t), worst)
        << "tuned path '" << core::tuned_path_name(path)
        << "' is the measured-worst schedule at s = " << t.s;
  }
  // The specific 4096-class shapes must route to the forced-STRASSEN2
  // recursion, not the automatic hybrid the old reduction picked.
  EXPECT_EQ(core::tuned_path_for(p, 2048, 2048, 2048, 1),
            core::TunedPath::strassen2);
  EXPECT_EQ(core::tuned_path_for(p, 4096, 4096, 4096, 1),
            core::TunedPath::strassen2);
}

TEST(SchemeSweep, HybridNeverWinningDropsTauS2) {
  using tuning::SchemePoint;
  // Fused wins everywhere in range: no classic regime, so tau_s2 must be
  // dropped even though s2 beats the (also-losing) hybrid pointwise.
  const std::vector<SchemePoint> sweep{
      {256, 1.00, 0.95, 0.97, 1.20, 1.10, 1.30},
      {512, 1.00, 0.90, 0.88, 1.15, 1.05, 1.20},
  };
  const tuning::SchemeCrossovers x = tuning::reduce_scheme_sweep(sweep);
  EXPECT_DOUBLE_EQ(x.tau_hybrid, 0);
  EXPECT_DOUBLE_EQ(x.tau_s2, 0);
}

// A sweep in which pooled GEMM is the fastest schedule at every size (the
// four-thread host with the row fan-out) must not extrapolate a Strassen
// win past its range: tau_fused takes the "never won" sentinel and the
// policy routes GEMM beyond the sweep too.
TEST(SchemeSweep, GemmFastestEverywhereRoutesGemmBeyondTheSweep) {
  using tuning::SchemePoint;
  const std::vector<SchemePoint> sweep{
      //   s   gemm fused1 fused2 hybrid   s2   dag
      {256, 1.00, 1.30, 1.45, 1.60, 1.65, 1.70},
      {384, 1.00, 1.20, 1.30, 1.40, 1.42, 1.35},
      {576, 1.00, 1.10, 1.15, 1.20, 1.18, 1.12},
      {864, 1.00, 1.04, 1.06, 1.08, 1.07, 1.05},
  };
  const tuning::SchemeCrossovers x = tuning::reduce_scheme_sweep(sweep);
  EXPECT_DOUBLE_EQ(x.tau_fused, 0);
  const core::TunedPolicy p = policy_from_crossovers(x);
  for (const int workers : {1, 4}) {
    for (const SchemePoint& t : sweep) {
      EXPECT_EQ(core::tuned_path_for(p, t.s, t.s, t.s, workers),
                core::TunedPath::gemm);
    }
    const index_t beyond = 2 * sweep.back().s;
    EXPECT_EQ(core::tuned_path_for(p, beyond, beyond, beyond, workers),
              core::TunedPath::gemm);
  }
}

TEST(SchemeSweep, EmptySweepIsAllNever) {
  const tuning::SchemeCrossovers x = tuning::reduce_scheme_sweep({});
  EXPECT_DOUBLE_EQ(x.tau_fused, 0);
  EXPECT_DOUBLE_EQ(x.tau_fused2, 0);
  EXPECT_DOUBLE_EQ(x.tau_hybrid, 0);
  EXPECT_DOUBLE_EQ(x.tau_s2, 0);
  EXPECT_DOUBLE_EQ(x.tau_dag, 0);
}

TEST(TunedPolicy, InstallRejectsStaleKernelStamp) {
  tuning::TunedCriteria criteria;
  criteria.kernel = "some-retired-kernel";
  criteria.tau_fused = 100;
  EXPECT_FALSE(tuning::install_criteria(criteria));

  criteria.kernel.clear();  // pre-dispatch legacy file: hard miss too
  EXPECT_FALSE(tuning::install_criteria(criteria));
}

TEST(TunedPolicy, InstallThenConsultRoutesByThresholds) {
  core::clear_tuned_policy<double>();
  tuning::TunedCriteria criteria;
  criteria.kernel = blas::active_kernel().name;
  criteria.threads = blas::gemm_thread_budget();
  criteria.tau_fused = 100;  // order 64 probe lands in the GEMM regime
  ASSERT_TRUE(tuning::install_criteria(criteria));
  ASSERT_NE(core::tuned_policy<double>(), nullptr);

  const index_t s = 64;
  Rng rng(99);
  Matrix a = random_matrix(s, s, rng);
  Matrix b = random_matrix(s, s, rng);
  Matrix c(s, s), c_ref(s, s);
  fill(c.view(), 0.0);
  fill(c_ref.view(), 0.0);
  core::DgefmmStats stats;
  core::DgefmmConfig cfg;
  cfg.use_tuned = true;
  cfg.stats = &stats;
  ASSERT_EQ(core::dgefmm(Trans::no, Trans::no, s, s, s, 1.0, a.data(),
                         a.ld(), b.data(), b.ld(), 0.0, c.data(), c.ld(),
                         cfg),
            0);
  EXPECT_STREQ(stats.tuned_path, "gemm");
  EXPECT_EQ(stats.base_gemms, 1);  // one flat GEMM, no recursion
  blas::gemm_reference(Trans::no, Trans::no, s, s, s, 1.0, a.data(), a.ld(),
                       b.data(), b.ld(), 0.0, c_ref.data(), c_ref.ld());
  EXPECT_LT(max_abs_diff(c.view(), c_ref.view()),
            1e-12 * (static_cast<double>(s) + 1.0));
  core::clear_tuned_policy<double>();
}

TEST(TunedPolicy, HybridPathRunsClassicRecursionAndMatchesReference) {
  // Above tau_hybrid the tuned route switches to the classic eq.-15
  // schedule (Scheme::automatic): the driver must recurse (not flat-GEMM)
  // and still match the reference product bit-for-bit in routing terms.
  core::clear_tuned_policy<double>();
  tuning::TunedCriteria criteria;
  criteria.kernel = blas::active_kernel().name;
  criteria.threads = blas::gemm_thread_budget();
  criteria.tau_fused = 32;
  criteria.tau_hybrid = 48;  // order 96 probe routes to the hybrid path
  // Tuned eq.-15 cutoff small enough that the 96-probe actually splits
  // (the paper default of tau = 199 would stop the recursion immediately).
  criteria.beta_zero = core::CutoffCriterion::hybrid(48, 24, 24, 24);
  criteria.general = criteria.beta_zero;
  ASSERT_TRUE(tuning::install_criteria(criteria));

  const index_t s = 96;
  core::DgefmmConfig cfg;
  cfg.use_tuned = true;
  const count_t predicted = core::workspace_doubles(s, s, s, 0.0, cfg);
  EXPECT_GT(predicted, 0);  // classic recursion draws arena workspace
  Rng rng(103);
  Matrix a = random_matrix(s, s, rng);
  Matrix b = random_matrix(s, s, rng);
  Matrix c(s, s), c_ref(s, s);
  fill(c.view(), 0.0);
  fill(c_ref.view(), 0.0);
  Arena arena(static_cast<std::size_t>(predicted));
  core::DgefmmStats stats;
  cfg.workspace = &arena;
  cfg.stats = &stats;
  ASSERT_EQ(core::dgefmm(Trans::no, Trans::no, s, s, s, 1.0, a.data(),
                         a.ld(), b.data(), b.ld(), 0.0, c.data(), c.ld(),
                         cfg),
            0);
  EXPECT_STREQ(stats.tuned_path, "hybrid");
  EXPECT_GT(stats.strassen_levels, 0);  // it recursed
  EXPECT_LE(stats.peak_workspace, static_cast<std::size_t>(predicted));
  blas::gemm_reference(Trans::no, Trans::no, s, s, s, 1.0, a.data(), a.ld(),
                       b.data(), b.ld(), 0.0, c_ref.data(), c_ref.ld());
  EXPECT_LT(max_abs_diff(c.view(), c_ref.view()),
            1e-12 * (static_cast<double>(s) + 1.0));
  core::clear_tuned_policy<double>();
}

TEST(TunedPolicy, ParallelEntryForwardsCallerArenaToSerialDelegation) {
  // The parallel driver owns only the DAG branch of a tuned call;
  // every other path delegates to the serial driver. The delegation must
  // forward the caller's arena -- dropping it silently re-allocates the
  // whole recursion workspace on every call (the bug this test pins).
  core::clear_tuned_policy<double>();
  tuning::TunedCriteria criteria;
  criteria.kernel = blas::active_kernel().name;
  criteria.threads = blas::gemm_thread_budget();
  criteria.tau_fused = 32;
  criteria.tau_hybrid = 48;
  criteria.beta_zero = core::CutoffCriterion::hybrid(48, 24, 24, 24);
  criteria.general = criteria.beta_zero;
  ASSERT_TRUE(tuning::install_criteria(criteria));

  const index_t s = 96;
  Rng rng(107);
  Matrix a = random_matrix(s, s, rng);
  Matrix b = random_matrix(s, s, rng);
  Matrix c(s, s), c_ref(s, s);
  fill(c.view(), 0.0);
  fill(c_ref.view(), 0.0);
  Arena arena;
  core::DgefmmStats stats;
  parallel::ParallelDgefmmConfig cfg;
  cfg.cutoff = core::CutoffCriterion::tuned();
  cfg.workspace = &arena;
  cfg.stats = &stats;
  ASSERT_EQ(parallel::dgefmm_parallel(Trans::no, Trans::no, s, s, s, 1.0,
                                      a.data(), a.ld(), b.data(), b.ld(),
                                      0.0, c.data(), c.ld(), cfg),
            0);
  EXPECT_STREQ(stats.tuned_path, "hybrid");
  // The serial recursion drew its workspace from the arena we passed.
  EXPECT_GT(arena.capacity(), 0u);
  EXPECT_EQ(stats.peak_workspace, arena.peak());
  blas::gemm_reference(Trans::no, Trans::no, s, s, s, 1.0, a.data(), a.ld(),
                       b.data(), b.ld(), 0.0, c_ref.data(), c_ref.ld());
  EXPECT_LT(max_abs_diff(c.view(), c_ref.view()),
            1e-12 * (static_cast<double>(s) + 1.0));
  core::clear_tuned_policy<double>();
}

TEST(TunedPolicy, ConsultIsHardMissAfterKernelSwitch) {
  // A policy installed under one kernel must stop being consulted the
  // moment dispatch switches to another: the consult-time stamp check is
  // the second line of defense behind matches_active_kernel().
  core::clear_tuned_policy<double>();
  tuning::TunedCriteria criteria;
  criteria.kernel = blas::active_kernel().name;
  criteria.threads = blas::gemm_thread_budget();
  criteria.tau_fused = 100;
  ASSERT_TRUE(tuning::install_criteria(criteria));
  ASSERT_NE(core::tuned_policy<double>(), nullptr);

  const blas::KernelArch active = blas::active_kernel().arch;
  for (const blas::KernelArch arch : blas::kAllKernelArches) {
    if (arch == active || !blas::kernel_supported(arch)) continue;
    blas::ScopedKernel pin(arch);
    EXPECT_EQ(core::tuned_policy<double>(), nullptr)
        << "policy stamped " << criteria.kernel << " consulted under "
        << blas::active_kernel().name;
  }
  core::clear_tuned_policy<double>();
}

TEST(TunedPolicy, WorkspacePredictionMatchesTunedDispatch) {
  // The predictor resolves the same policy as the driver, so a use_tuned
  // call against an exactly pre-reserved arena must not grow it.
  core::clear_tuned_policy<double>();
  tuning::TunedCriteria criteria;
  criteria.kernel = blas::active_kernel().name;
  criteria.threads = blas::gemm_thread_budget();
  criteria.tau_fused = 48;  // order 96 probe routes to fused-L1
  ASSERT_TRUE(tuning::install_criteria(criteria));

  const index_t s = 96;
  core::DgefmmConfig cfg;
  cfg.use_tuned = true;
  const count_t predicted = core::workspace_doubles(s, s, s, 0.0, cfg);
  Rng rng(101);
  Matrix a = random_matrix(s, s, rng);
  Matrix b = random_matrix(s, s, rng);
  Matrix c(s, s);
  fill(c.view(), 0.0);
  Arena arena(static_cast<std::size_t>(predicted));
  core::DgefmmStats stats;
  cfg.workspace = &arena;
  cfg.stats = &stats;
  ASSERT_EQ(core::dgefmm(Trans::no, Trans::no, s, s, s, 1.0, a.data(),
                         a.ld(), b.data(), b.ld(), 0.0, c.data(), c.ld(),
                         cfg),
            0);
  EXPECT_STREQ(stats.tuned_path, "fused-l1");
  EXPECT_LE(stats.peak_workspace, static_cast<std::size_t>(predicted));
  core::clear_tuned_policy<double>();
}

// --- one route for every tuned entry ---------------------------------------

// A policy with one band per route, eq.-15 cutoffs small enough that every
// Strassen route really recurses at the probe orders, stamped with the
// active kernel and measured under `threads`.
tuning::TunedCriteria banded_criteria(int threads) {
  tuning::TunedCriteria criteria;
  criteria.kernel = blas::active_kernel().name;
  criteria.threads = threads;
  criteria.tau_fused = 32;
  criteria.tau_fused2 = 56;
  criteria.tau_hybrid = 80;
  criteria.tau_s2 = 112;
  criteria.beta_zero = core::CutoffCriterion::hybrid(16, 8, 8, 8);
  criteria.general = criteria.beta_zero;
  return criteria;
}

struct RouteProbe {
  index_t s;
  const char* path;
};
constexpr RouteProbe kRouteProbes[] = {{24, "gemm"},
                                       {48, "fused-l1"},
                                       {64, "fused-l2"},
                                       {96, "hybrid"},
                                       {128, "strassen2"}};

// The C ABI, gemm_backend_dgefmm, the default configuration and use_tuned
// resolve through one route: for the same shape, beta, kernel, budget and
// policy they run the same schedule, so their C is bitwise identical, and
// the default configuration's stats name the band's path.
TEST(TunedRoute, EveryEntryTakesTheSameRoute) {
  core::clear_tuned_policy<double>();
  ASSERT_TRUE(
      tuning::install_criteria(banded_criteria(blas::gemm_thread_budget())));
  const core::GemmFn backend = core::gemm_backend_dgefmm();
  Rng rng(211);
  for (const RouteProbe& probe : kRouteProbes) {
    for (const double beta : {0.0, 0.5}) {
      const index_t s = probe.s;
      SCOPED_TRACE(::testing::Message() << "s " << s << " beta " << beta);
      const Matrix a = random_matrix(s, s, rng);
      const Matrix b = random_matrix(s, s, rng);
      const Matrix c0 = random_matrix(s, s, rng);
      const auto fresh = [&] {
        Matrix c(s, s);
        copy(c0.view(), c.view());
        return c;
      };
      const std::size_t bytes = sizeof(double) * static_cast<std::size_t>(s * s);

      Matrix by_default = fresh();
      core::DgefmmStats stats;
      core::DgefmmConfig cfg;
      cfg.stats = &stats;
      ASSERT_EQ(core::dgefmm(Trans::no, Trans::no, s, s, s, 1.0, a.data(), s,
                             b.data(), s, beta, by_default.data(), s, cfg),
                0);
      EXPECT_STREQ(stats.tuned_path, probe.path);
      EXPECT_EQ(stats.strassen_levels == 0,
                std::string(probe.path) == "gemm");

      Matrix by_tuned = fresh();
      core::DgefmmConfig tuned;
      tuned.use_tuned = true;
      tuned.cutoff = core::CutoffCriterion::square_simple(4);  // overridden
      ASSERT_EQ(core::dgefmm(Trans::no, Trans::no, s, s, s, 1.0, a.data(), s,
                             b.data(), s, beta, by_tuned.data(), s, tuned),
                0);
      Matrix by_cabi = fresh();
      ASSERT_EQ(strassen_dgefmm('N', 'N', s, s, s, 1.0, a.data(), s, b.data(),
                                s, beta, by_cabi.data(), s),
                0);
      Matrix by_backend = fresh();
      backend(Trans::no, Trans::no, s, s, s, 1.0, a.data(), s, b.data(), s,
              beta, by_backend.data(), s);
      EXPECT_EQ(std::memcmp(by_tuned.data(), by_default.data(), bytes), 0);
      EXPECT_EQ(std::memcmp(by_cabi.data(), by_default.data(), bytes), 0);
      EXPECT_EQ(std::memcmp(by_backend.data(), by_default.data(), bytes), 0);
    }
  }
  core::clear_tuned_policy<double>();
}

// Without a policy every routed entry is one pooled GEMM: no recursion,
// no arena, and the predictor agrees.
TEST(TunedRoute, NoPolicyIsOneGemmWithNoWorkspace) {
  core::clear_tuned_policy<double>();
  const index_t s = 300;
  Rng rng(212);
  const Matrix a = random_matrix(s, s, rng);
  const Matrix b = random_matrix(s, s, rng);
  Matrix c(s, s), c_ref(s, s);
  fill(c.view(), 0.0);
  fill(c_ref.view(), 0.0);
  core::DgefmmConfig cfg;
  EXPECT_EQ(core::workspace_doubles(s, s, s, 0.0, cfg), 0);
  Arena arena;
  core::DgefmmStats stats;
  cfg.workspace = &arena;
  cfg.stats = &stats;
  ASSERT_EQ(core::dgefmm(Trans::no, Trans::no, s, s, s, 1.0, a.data(), s,
                         b.data(), s, 0.0, c.data(), s, cfg),
            0);
  EXPECT_STREQ(stats.tuned_path, "gemm");
  EXPECT_EQ(stats.strassen_levels, 0);
  EXPECT_EQ(stats.base_gemms, 1);
  EXPECT_EQ(stats.peak_workspace, 0u);
  EXPECT_EQ(arena.peak(), 0u);
  blas::gemm_view(1.0, a.view(), b.view(), 0.0, c_ref.view());
  EXPECT_EQ(std::memcmp(c.data(), c_ref.data(),
                        sizeof(double) * static_cast<std::size_t>(s * s)),
            0);
  core::clear_tuned_policy<double>();
}

// A policy applies only under the thread budget it was measured with: one
// timed on four threads is a miss for a caller pinned to one.
TEST(TunedRoute, OtherBudgetPolicyIsAMiss) {
  core::clear_tuned_policy<double>();
  ASSERT_TRUE(tuning::install_criteria(banded_criteria(4)));
  const index_t s = 96;
  Rng rng(213);
  const Matrix a = random_matrix(s, s, rng);
  const Matrix b = random_matrix(s, s, rng);
  Matrix c(s, s);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    blas::ScopedGemmThreads budget(threads);
    fill(c.view(), 0.0);
    core::DgefmmStats stats;
    core::DgefmmConfig cfg;
    cfg.stats = &stats;
    ASSERT_EQ(core::dgefmm(Trans::no, Trans::no, s, s, s, 1.0, a.data(), s,
                           b.data(), s, 0.0, c.data(), s, cfg),
              0);
    EXPECT_STREQ(stats.tuned_path, threads == 4 ? "hybrid" : "gemm");
    EXPECT_EQ(stats.strassen_levels > 0, threads == 4);
    EXPECT_EQ(core::workspace_doubles(s, s, s, 0.0, cfg) > 0, threads == 4);
  }
  core::clear_tuned_policy<double>();
}

// The parallel driver keys the policy by the same budget autotune records
// (blas::gemm_thread_budget): with threads = 0 that is the caller's GEMM
// setting, not the pool size, and an explicit core count is clamped to
// kMaxGemmTasks.
TEST(TunedRoute, ParallelDriverKeysByTheGemmBudget) {
  const index_t s = 96;
  Rng rng(215);
  const Matrix a = random_matrix(s, s, rng);
  const Matrix b = random_matrix(s, s, rng);
  Matrix c(s, s);
  const auto run = [&](std::size_t threads) {
    fill(c.view(), 0.0);
    core::DgefmmStats stats;
    parallel::ParallelDgefmmConfig cfg;
    cfg.cutoff = core::CutoffCriterion::tuned();
    cfg.threads = threads;
    cfg.stats = &stats;
    EXPECT_EQ(parallel::dgefmm_parallel(Trans::no, Trans::no, s, s, s, 1.0,
                                        a.data(), s, b.data(), s, 0.0,
                                        c.data(), s, cfg),
              0);
    return std::string(stats.tuned_path);
  };
  core::clear_tuned_policy<double>();
  {
    blas::ScopedGemmThreads one(1);
    ASSERT_TRUE(tuning::install_criteria(banded_criteria(1)));
    EXPECT_EQ(run(0), "hybrid");
    EXPECT_EQ(run(1), "hybrid");
    EXPECT_EQ(run(4), "gemm");
  }
  ASSERT_TRUE(tuning::install_criteria(banded_criteria(blas::kMaxGemmTasks)));
  EXPECT_EQ(run(blas::kMaxGemmTasks), "hybrid");
  EXPECT_EQ(run(4 * blas::kMaxGemmTasks), "hybrid");
  core::clear_tuned_policy<double>();
}

// cutoff = tuned() on the parallel driver takes the tuned route, the DAG
// a candidate: with a DAG band installed under the call's budget it runs
// the task DAG with the policy's cutoff and fused leaves, bitwise equal to
// naming that configuration explicitly.
TEST(TunedRoute, ParallelDriverRoutesTheTunedCutoffToTheDag) {
  core::clear_tuned_policy<double>();
  tuning::TunedCriteria criteria = banded_criteria(4);
  criteria.tau_dag = 40;
  ASSERT_TRUE(tuning::install_criteria(criteria));
  const index_t s = 96;
  const double beta = 0.5;
  Rng rng(216);
  const Matrix a = random_matrix(s, s, rng);
  const Matrix b = random_matrix(s, s, rng);
  const Matrix c0 = random_matrix(s, s, rng);
  Matrix tuned(s, s), explicit_dag(s, s);
  copy(c0.view(), tuned.view());
  copy(c0.view(), explicit_dag.view());

  core::DgefmmStats stats;
  parallel::ParallelDgefmmConfig cfg;
  cfg.cutoff = core::CutoffCriterion::tuned();
  cfg.threads = 4;
  cfg.stats = &stats;
  ASSERT_EQ(parallel::dgefmm_parallel(Trans::no, Trans::no, s, s, s, 1.0,
                                      a.data(), s, b.data(), s, beta,
                                      tuned.data(), s, cfg),
            0);
  EXPECT_STREQ(stats.tuned_path, "dag");
  EXPECT_GT(stats.dag_nodes, 0);

  parallel::ParallelDgefmmConfig dag;
  dag.cutoff = criteria.general;
  dag.scheme = core::Scheme::fused;
  dag.threads = 4;
  ASSERT_EQ(parallel::dgefmm_parallel(Trans::no, Trans::no, s, s, s, 1.0,
                                      a.data(), s, b.data(), s, beta,
                                      explicit_dag.data(), s, dag),
            0);
  EXPECT_EQ(std::memcmp(tuned.data(), explicit_dag.data(),
                        sizeof(double) * static_cast<std::size_t>(s * s)),
            0);
  core::clear_tuned_policy<double>();
}

// Predicted workspace equals the measured arena peak on every route, for
// both element types.
template <class T>
void prediction_equals_peak_on_every_route() {
  core::clear_tuned_policy<T>();
  tuning::TunedCriteria criteria =
      banded_criteria(blas::gemm_thread_budget());
  criteria.kernel = blas::active_kernel_t<T>().name;
  criteria.elem = std::is_same_v<T, float> ? "f32" : "f64";
  ASSERT_TRUE(tuning::install_criteria(criteria));
  Rng rng(214);
  for (const RouteProbe& probe : kRouteProbes) {
    for (const T beta : {T(0), T(0.5)}) {
      const index_t s = probe.s;
      SCOPED_TRACE(::testing::Message() << "s " << s << " beta " << beta);
      MatrixT<T> a(s, s), b(s, s), c(s, s);
      fill_random(a.view(), rng);
      fill_random(b.view(), rng);
      fill_random(c.view(), rng);
      core::GefmmConfigT<T> cfg;
      count_t predicted;
      if constexpr (std::is_same_v<T, float>) {
        predicted = core::workspace_floats(s, s, s, beta, cfg);
      } else {
        predicted = core::workspace_doubles(s, s, s, beta, cfg);
      }
      ArenaT<T> arena;
      core::DgefmmStats stats;
      cfg.workspace = &arena;
      cfg.stats = &stats;
      int info;
      if constexpr (std::is_same_v<T, float>) {
        info = core::sgefmm(Trans::no, Trans::no, s, s, s, T(1), a.data(), s,
                            b.data(), s, beta, c.data(), s, cfg);
      } else {
        info = core::dgefmm(Trans::no, Trans::no, s, s, s, T(1), a.data(), s,
                            b.data(), s, beta, c.data(), s, cfg);
      }
      ASSERT_EQ(info, 0);
      EXPECT_STREQ(stats.tuned_path, probe.path);
      EXPECT_EQ(static_cast<count_t>(arena.peak()), predicted);
    }
  }
  core::clear_tuned_policy<T>();
}

TEST(TunedRoute, PredictionEqualsPeakOnEveryRouteDouble) {
  prediction_equals_peak_on_every_route<double>();
}

TEST(TunedRoute, PredictionEqualsPeakOnEveryRouteFloat) {
  prediction_equals_peak_on_every_route<float>();
}

// The quick end-to-end (measure -> persist -> reload -> install ->
// consult) is covered by examples/autotune_cli --quick in
// scripts/check.sh; here a minimal-budget autotune just proves the
// measurement layer produces a structurally sound, installable result.
TEST(Autotune, TinyBudgetProducesInstallableCriteria) {
  tuning::AutotuneOptions opts;
  opts.min_size = 32;
  opts.max_size = 64;
  opts.reps = 1;
  const tuning::TunedCriteria criteria = tuning::autotune_double(opts);
  EXPECT_EQ(criteria.elem, "f64");
  EXPECT_EQ(criteria.kernel, blas::active_kernel().name);
  EXPECT_GE(criteria.tau_fused, 0.0);  // 0: fused never beat GEMM
  EXPECT_GE(criteria.tau_fused2, 0.0);
  EXPECT_GE(criteria.tau_dag, 0.0);
  // Every schedule was timed under the calling thread's budget.
  EXPECT_EQ(criteria.threads, blas::gemm_thread_budget());
  EXPECT_TRUE(criteria.matches_active_kernel());
  ASSERT_TRUE(tuning::install_criteria(criteria));
  core::clear_tuned_policy<double>();
}

}  // namespace
}  // namespace strassen
