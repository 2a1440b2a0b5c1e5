// Failure-contract tests (DESIGN.md section 7).
//
// The fault sweeps are the heart of this file: for every shape x schedule x
// policy combination they fail the Nth resource acquisition for every N
// until a run completes without the countdown firing, asserting the
// contract each time -- strict means a clean typed error with C
// bit-identical to the pre-call snapshot, fallback means a correct product
// with the degradation recorded in the stats. The sweeps are outcome-based
// (they check whether a fault actually fired instead of assuming a fixed
// number of acquisition points), so they stay valid when the number of
// fallible steps changes, e.g. between cold and warm pack buffers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <new>
#include <vector>

#include "blas/gemm.hpp"
#include "core/cabi.hpp"
#include "core/dgefmm.hpp"
#include "parallel/parallel_strassen.hpp"
#include "support/faultinject.hpp"
#include "support/matrix.hpp"
#include "support/memadvise.hpp"
#include "support/random.hpp"

namespace strassen {
namespace {

namespace fi = faultinject;

using core::CutoffCriterion;
using core::DgefmmConfig;
using core::DgefmmStats;
using core::FailurePolicy;
using core::Scheme;

// Every test leaves the process-global injection state disarmed.
class FaultInject : public ::testing::Test {
 protected:
  void TearDown() override { fi::disarm(); }
};

TEST_F(FaultInject, CountdownFiresExactlyOnce) {
  fi::arm(3, fi::Site::arena_alloc);
  EXPECT_TRUE(fi::armed());
  EXPECT_FALSE(fi::should_fail(fi::Site::arena_alloc));
  EXPECT_FALSE(fi::should_fail(fi::Site::arena_alloc));
  const long before = fi::injected_total();
  EXPECT_TRUE(fi::should_fail(fi::Site::arena_alloc));
  EXPECT_EQ(fi::injected_total(), before + 1);
  EXPECT_FALSE(fi::armed());
  // One-shot: once fired, the harness has disarmed itself.
  EXPECT_FALSE(fi::should_fail(fi::Site::arena_alloc));
  EXPECT_EQ(fi::injected_total(), before + 1);
}

TEST_F(FaultInject, SiteFilterIgnoresOtherSites) {
  fi::arm(1, fi::Site::pool_task);
  EXPECT_FALSE(fi::should_fail(fi::Site::arena_alloc));
  EXPECT_FALSE(fi::should_fail(fi::Site::arena_reserve));
  EXPECT_FALSE(fi::should_fail(fi::Site::buffer_alloc));
  EXPECT_TRUE(fi::should_fail(fi::Site::pool_task));
}

TEST_F(FaultInject, WildcardMatchesEverySite) {
  fi::arm(2);
  EXPECT_FALSE(fi::should_fail(fi::Site::arena_reserve));
  EXPECT_TRUE(fi::should_fail(fi::Site::buffer_alloc));
}

TEST_F(FaultInject, ScopedSuspendMasksTheCallingThread) {
  fi::arm(1);
  {
    fi::ScopedSuspend guard;
    EXPECT_FALSE(fi::should_fail(fi::Site::arena_alloc));
    EXPECT_TRUE(fi::armed());  // masked checks do not consume the countdown
  }
  EXPECT_TRUE(fi::should_fail(fi::Site::arena_alloc));
}

TEST_F(FaultInject, ArmedReserveThrowsWorkspaceError) {
  Arena arena;
  fi::arm(1, fi::Site::arena_reserve);
  EXPECT_THROW(arena.reserve(64), WorkspaceError);
  // The failed reserve must not have corrupted the arena.
  EXPECT_NO_THROW(arena.reserve(64));
  double* p = arena.alloc(64);
  EXPECT_NE(p, nullptr);
}

TEST_F(FaultInject, ArmedBufferAllocThrowsBadAlloc) {
  fi::arm(1, fi::Site::buffer_alloc);
  EXPECT_THROW(
      {
        Matrix m(8, 8);
        (void)m;
      },
      std::bad_alloc);
}

TEST_F(FaultInject, SiteNamesAreDistinct) {
  EXPECT_STRNE(fi::site_name(fi::Site::arena_alloc),
               fi::site_name(fi::Site::arena_reserve));
  EXPECT_STRNE(fi::site_name(fi::Site::buffer_alloc),
               fi::site_name(fi::Site::pool_task));
}

// ---------------------------------------------------------------------------
// Arena debug guards: canary past the newest allocation, poison on release.

class ArenaGuards : public ::testing::Test {
 protected:
  void SetUp() override {
    prev_ = fi::arena_guards();
    fi::set_arena_guards(true);
  }
  void TearDown() override {
    fi::set_arena_guards(prev_);
    fi::disarm();
  }
  bool prev_ = false;
};

TEST_F(ArenaGuards, OverrunDetectedAtNextAlloc) {
  Arena arena(64);
  double* p = arena.alloc(8);
  p[8] = 1.0;  // one past the end: lands on the canary
  (void)arena.alloc(1);
  EXPECT_TRUE(arena.corruption_detected());
}

TEST_F(ArenaGuards, OverrunDetectedAtRelease) {
  Arena arena(64);
  const std::size_t mark = arena.mark();
  double* p = arena.alloc(4);
  p[4] = 2.0;
  arena.release(mark);
  EXPECT_TRUE(arena.corruption_detected());
}

TEST_F(ArenaGuards, InBoundsUseIsClean) {
  Arena arena(64);
  const std::size_t mark = arena.mark();
  double* p = arena.alloc(8);
  for (int i = 0; i < 8; ++i) p[i] = static_cast<double>(i);
  arena.release(mark);
  double* q = arena.alloc(16);
  for (int i = 0; i < 16; ++i) q[i] = 1.0;
  arena.release(mark);
  EXPECT_FALSE(arena.corruption_detected());
}

TEST_F(ArenaGuards, ReleasedRangeIsPoisonedWithNaNs) {
  Arena arena(64);
  double* p = arena.alloc(8);
  for (int i = 0; i < 8; ++i) p[i] = 1.0;
  arena.release(0);
  // p[0] now holds the canary for the new (empty) stack top; everything
  // past it must carry the poison pattern.
  EXPECT_NE(p[0], 1.0);
  for (int i = 1; i < 8; ++i) {
    EXPECT_TRUE(std::isnan(p[i])) << "released double " << i
                                  << " not poisoned";
  }
}

TEST_F(ArenaGuards, GuardDoesNotChangeAccountingOrAddresses) {
  Arena with(64), without(64);
  double* pw = with.alloc(10);
  fi::set_arena_guards(false);
  double* po = without.alloc(10);
  fi::set_arena_guards(true);
  EXPECT_EQ(pw - with.alloc(5), po - without.alloc(5));
  EXPECT_EQ(with.peak(), without.peak());
  EXPECT_EQ(with.in_use(), without.in_use());
}

TEST_F(ArenaGuards, ExactlyFullArenaSkipsTheCanary) {
  Arena arena(8);
  double* p = arena.alloc(8);  // no room left for a guard word
  for (int i = 0; i < 8; ++i) p[i] = 1.0;
  arena.release(0);
  (void)arena.alloc(8);
  EXPECT_FALSE(arena.corruption_detected());
}

TEST_F(ArenaGuards, DisabledGuardsDetectNothing) {
  fi::set_arena_guards(false);
  Arena arena(64);
  double* p = arena.alloc(4);
  p[4] = 2.0;
  arena.release(0);
  (void)arena.alloc(1);
  EXPECT_FALSE(arena.corruption_detected());
}

// ---------------------------------------------------------------------------
// The fault sweeps.

// A sweep's cap is a counted total, not a constant: the acquisitions of
// one clean call (see sweep_limit) plus this margin. A cold pool warms
// every worker's pack scratch inside the counted call, so the sweep's own
// calls make at most as many and end clean within the cap.
constexpr long kSweepMargin = 8;

struct Problem {
  index_t m, n, k;
  double alpha, beta;
  Matrix a, b, c0, want;

  Problem(index_t m_, index_t n_, index_t k_, double alpha_, double beta_,
          std::uint64_t seed)
      : m(m_), n(n_), k(k_), alpha(alpha_), beta(beta_) {
    Rng rng(seed);
    a = random_matrix(m, k, rng);
    b = random_matrix(k, n, rng);
    c0 = random_matrix(m, n, rng);
    want = Matrix(m, n);
    copy(c0.view(), want.view());
    blas::gemm_reference(Trans::no, Trans::no, m, n, k, alpha, a.data(), m,
                         b.data(), k, beta, want.data(), m);
  }
};

// One armed call through `call`; checks the policy contract against the
// problem's reference result. Returns true when the fault actually fired
// (so the sweep must continue with the next countdown).
template <class Call>
bool check_armed_call(const Problem& p, FailurePolicy policy,
                      const DgefmmStats& stats, long nth, Call&& call) {
  Matrix c(p.m, p.n);
  copy(p.c0.view(), c.view());
  std::vector<double> snapshot(c.data(),
                               c.data() + static_cast<std::size_t>(p.m) * p.n);

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
    // Countdown outlived the call's acquisitions: a clean, correct run.
    EXPECT_FALSE(threw);
    EXPECT_EQ(info, 0);
    EXPECT_LT(max_abs_diff(c.view(), p.want.view()), 1e-10);
    return false;
  }
  if (policy == FailurePolicy::strict) {
    EXPECT_TRUE(threw) << "strict policy must surface the injected fault";
    EXPECT_EQ(std::memcmp(c.data(), snapshot.data(),
                          snapshot.size() * sizeof(double)),
              0)
        << "strict policy must leave C bit-identical";
  } else {
    EXPECT_FALSE(threw) << "fallback policy must absorb the injected fault";
    EXPECT_EQ(info, 0);
    EXPECT_LT(max_abs_diff(c.view(), p.want.view()), 1e-10);
    EXPECT_GE(stats.fallbacks, 1)
        << "fallback degradation must be recorded in the stats";
  }
  return true;
}

// Counts the fallible acquisitions of one clean call: armed with a
// countdown no call reaches, the injector counts every eligible hook check.
// The call must succeed with the right product and acquire something
// (otherwise the sweep would test nothing). Returns the sweep's cap.
template <class Call>
long sweep_limit(const Problem& p, Call&& call) {
  Matrix c(p.m, p.n);
  copy(p.c0.view(), c.view());
  fi::arm(1L << 40);
  const int info = call(c);
  const long acquisitions = fi::consumed();
  fi::disarm();
  EXPECT_EQ(info, 0);
  EXPECT_LT(max_abs_diff(c.view(), p.want.view()), 1e-10);
  EXPECT_GT(acquisitions, 0) << "the swept call acquires nothing";
  return acquisitions + kSweepMargin;
}

void sweep_serial(index_t m, index_t n, index_t k, Scheme scheme, double beta,
                  FailurePolicy policy, std::uint64_t seed) {
  const Problem p(m, n, k, 1.0, beta, seed);
  const auto call = [&](Matrix& c, DgefmmStats* stats) {
    DgefmmConfig cfg;
    cfg.cutoff = CutoffCriterion::square_simple(16);
    cfg.scheme = scheme;
    cfg.on_failure = policy;
    cfg.stats = stats;
    return core::dgefmm(Trans::no, Trans::no, p.m, p.n, p.k, p.alpha,
                        p.a.data(), p.m, p.b.data(), p.k, p.beta, c.data(),
                        p.m, cfg);
  };
  const long limit =
      sweep_limit(p, [&](Matrix& c) { return call(c, nullptr); });
  for (long nth = 1; nth <= limit; ++nth) {
    SCOPED_TRACE(::testing::Message()
                 << "serial " << m << "x" << n << "x" << k << " scheme "
                 << static_cast<int>(scheme) << " beta " << beta << " nth "
                 << nth);
    DgefmmStats stats;
    const bool fired = check_armed_call(
        p, policy, stats, nth, [&](Matrix& c) { return call(c, &stats); });
    if (!fired) return;
    if (policy == FailurePolicy::fallback) {
      EXPECT_GT(stats.faults_injected, 0);
    }
  }
  FAIL() << "sweep did not reach a fault-free run within " << limit
         << " acquisitions";
}

void sweep_parallel(index_t m, index_t n, index_t k, Scheme scheme,
                    double beta, FailurePolicy policy, std::uint64_t seed,
                    std::size_t threads = 0) {
  const Problem p(m, n, k, 1.0, beta, seed);
  const auto call = [&](Matrix& c, DgefmmStats* stats) {
    parallel::ParallelDgefmmConfig cfg;
    cfg.cutoff = CutoffCriterion::square_simple(16);
    cfg.scheme = scheme;
    cfg.on_failure = policy;
    cfg.stats = stats;
    cfg.threads = threads;
    return parallel::dgefmm_parallel(Trans::no, Trans::no, p.m, p.n, p.k,
                                     p.alpha, p.a.data(), p.m, p.b.data(),
                                     p.k, p.beta, c.data(), p.m, cfg);
  };
  const long limit =
      sweep_limit(p, [&](Matrix& c) { return call(c, nullptr); });
  for (long nth = 1; nth <= limit; ++nth) {
    SCOPED_TRACE(::testing::Message()
                 << "parallel " << m << "x" << n << "x" << k << " scheme "
                 << static_cast<int>(scheme) << " beta " << beta
                 << " threads " << threads << " nth " << nth);
    DgefmmStats stats;
    const bool fired = check_armed_call(
        p, policy, stats, nth, [&](Matrix& c) { return call(c, &stats); });
    if (!fired) return;
  }
  FAIL() << "sweep did not reach a fault-free run within " << limit
         << " acquisitions";
}

TEST_F(FaultInject, SerialSweepStrassen1Strict) {
  sweep_serial(64, 64, 64, Scheme::strassen1, 0.0, FailurePolicy::strict, 11);
}

TEST_F(FaultInject, SerialSweepStrassen1Fallback) {
  sweep_serial(64, 64, 64, Scheme::strassen1, 0.0, FailurePolicy::fallback,
               11);
}

TEST_F(FaultInject, SerialSweepStrassen2Strict) {
  sweep_serial(64, 64, 64, Scheme::strassen2, 1.3, FailurePolicy::strict, 12);
}

TEST_F(FaultInject, SerialSweepStrassen2Fallback) {
  sweep_serial(64, 64, 64, Scheme::strassen2, 1.3, FailurePolicy::fallback,
               12);
}

TEST_F(FaultInject, SerialSweepFusedStrict) {
  sweep_serial(64, 64, 64, Scheme::fused, 0.7, FailurePolicy::strict, 13);
}

TEST_F(FaultInject, SerialSweepFusedFallback) {
  sweep_serial(64, 64, 64, Scheme::fused, 0.7, FailurePolicy::fallback, 13);
}

TEST_F(FaultInject, SerialSweepOddRectangularStrict) {
  sweep_serial(65, 63, 61, Scheme::automatic, 1.3, FailurePolicy::strict, 14);
  sweep_serial(96, 48, 72, Scheme::automatic, 0.0, FailurePolicy::strict, 15);
}

TEST_F(FaultInject, SerialSweepOddRectangularFallback) {
  sweep_serial(65, 63, 61, Scheme::automatic, 1.3, FailurePolicy::fallback,
               14);
  sweep_serial(96, 48, 72, Scheme::automatic, 0.0, FailurePolicy::fallback,
               15);
}

TEST_F(FaultInject, ParallelSweepClassicStrict) {
  sweep_parallel(64, 64, 64, Scheme::automatic, 1.3, FailurePolicy::strict,
                 21);
}

TEST_F(FaultInject, ParallelSweepClassicFallback) {
  sweep_parallel(64, 64, 64, Scheme::automatic, 1.3, FailurePolicy::fallback,
                 21);
}

TEST_F(FaultInject, ParallelSweepFusedStrict) {
  sweep_parallel(66, 66, 66, Scheme::fused, 0.0, FailurePolicy::strict, 22);
}

TEST_F(FaultInject, ParallelSweepFusedFallback) {
  sweep_parallel(66, 66, 66, Scheme::fused, 0.0, FailurePolicy::fallback, 22);
}

// Seven lanes (one per product node) on a smaller pool: lanes outnumber
// the workers, so the DAG bookkeeping, the per-lane sub-arenas and the
// first-touch pass are sized for more lanes than run at once. The
// contract is unchanged -- every site fires before the first write to C.
TEST_F(FaultInject, ParallelSweepSevenLanesStrict) {
  sweep_parallel(72, 72, 72, Scheme::automatic, 1.3, FailurePolicy::strict,
                 24, /*threads=*/7);
}

TEST_F(FaultInject, ParallelSweepSevenLanesFallback) {
  sweep_parallel(72, 72, 72, Scheme::automatic, 1.3, FailurePolicy::fallback,
                 24, /*threads=*/7);
}

TEST_F(FaultInject, ParallelSweepSevenLanesFusedStrict) {
  sweep_parallel(72, 72, 72, Scheme::fused, 0.0, FailurePolicy::strict, 25,
                 /*threads=*/7);
}

TEST_F(FaultInject, ParallelSweepSevenLanesFusedFallback) {
  sweep_parallel(72, 72, 72, Scheme::fused, 0.0, FailurePolicy::fallback, 25,
                 /*threads=*/7);
}

// Multi-lane first-touch: with lanes > 1 the driver fans a first-touch
// pass over the pool workers (run_on_each_worker) before the no-fail
// region -- one more acquisition whose pool-task entry the injector can
// fail. The sweep proves it fires before the first write to C: strict
// leaves C bit-identical, fallback completes with the degradation
// recorded.
TEST_F(FaultInject, ParallelSweepMultiLaneFirstTouchStrict) {
  sweep_parallel(72, 72, 72, Scheme::fused, 0.0, FailurePolicy::strict, 26,
                 /*threads=*/4);
}

TEST_F(FaultInject, ParallelSweepMultiLaneFirstTouchFallback) {
  sweep_parallel(72, 72, 72, Scheme::fused, 0.0, FailurePolicy::fallback, 26,
                 /*threads=*/4);
}

// Huge-page advice rides on the same buffer allocations the injector
// already fails (Site::buffer_alloc); with the switch on, the acquisition
// set and the contract are unchanged.
TEST_F(FaultInject, SweepsUnchangedWithHugePagesOn) {
  ScopedHugePages hp(true);
  sweep_serial(64, 64, 64, Scheme::strassen1, 0.0, FailurePolicy::strict, 27);
  sweep_parallel(72, 72, 72, Scheme::fused, 0.0, FailurePolicy::strict, 27,
                 /*threads=*/4);
}

TEST_F(FaultInject, ParallelSweepOddStrict) {
  sweep_parallel(65, 63, 61, Scheme::automatic, 0.5, FailurePolicy::strict,
                 23);
}

TEST_F(FaultInject, ParallelSweepOddFallback) {
  sweep_parallel(65, 63, 61, Scheme::automatic, 0.5, FailurePolicy::fallback,
                 23);
}

// ---------------------------------------------------------------------------
// The C ABI under injected faults: nothing may unwind through extern "C".

// The explicit eq.-15 entry with a small cutoff, so the call recurses.
auto cabi_call(const Problem& p) {
  return [&p](Matrix& c) {
    return strassen_dgefmm_tuned('N', 'N', p.m, p.n, p.k, p.alpha, p.a.data(),
                                 p.m, p.b.data(), p.k, p.beta, c.data(), p.m,
                                 8, 8, 8, 8);
  };
}

TEST_F(FaultInject, CAbiSweepFallbackAlwaysSucceeds) {
  const Problem p(64, 64, 64, 1.0, 0.5, 31);
  strassen_dgefmm_set_failure_policy('F');
  const long limit = sweep_limit(p, cabi_call(p));
  for (long nth = 1; nth <= limit; ++nth) {
    SCOPED_TRACE(::testing::Message() << "cabi fallback nth " << nth);
    Matrix c(p.m, p.n);
    copy(p.c0.view(), c.view());
    const long before = fi::injected_total();
    fi::arm(nth);
    const int info = cabi_call(p)(c);
    fi::disarm();
    // Drop-in DGEMM semantics: fault or not, the call succeeds and the
    // product is right.
    EXPECT_EQ(info, 0);
    EXPECT_LT(max_abs_diff(c.view(), p.want.view()), 1e-10);
    if (fi::injected_total() == before) return;
  }
  FAIL() << "sweep did not reach a fault-free run";
}

TEST_F(FaultInject, CAbiSweepStrictReportsNegativeInfo) {
  const Problem p(64, 64, 64, 1.0, 0.5, 32);
  strassen_dgefmm_set_failure_policy('S');
  const long limit = sweep_limit(p, cabi_call(p));
  for (long nth = 1; nth <= limit; ++nth) {
    SCOPED_TRACE(::testing::Message() << "cabi strict nth " << nth);
    Matrix c(p.m, p.n);
    copy(p.c0.view(), c.view());
    std::vector<double> snapshot(
        c.data(), c.data() + static_cast<std::size_t>(p.m) * p.n);
    const long before = fi::injected_total();
    fi::arm(nth);
    const int info = cabi_call(p)(c);
    fi::disarm();
    const bool fired = fi::injected_total() > before;
    if (!fired) {
      EXPECT_EQ(info, 0);
      EXPECT_LT(max_abs_diff(c.view(), p.want.view()), 1e-10);
      strassen_dgefmm_set_failure_policy('F');
      return;
    }
    EXPECT_LT(info, 0) << "strict C ABI must report the fault as info";
    EXPECT_GE(info, STRASSEN_INFO_UNKNOWN);
    EXPECT_EQ(std::memcmp(c.data(), snapshot.data(),
                          snapshot.size() * sizeof(double)),
              0)
        << "strict C ABI must leave C bit-identical";
  }
  strassen_dgefmm_set_failure_policy('F');
  FAIL() << "sweep did not reach a fault-free run";
}

}  // namespace
}  // namespace strassen
