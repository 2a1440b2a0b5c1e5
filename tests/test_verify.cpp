// Static-verification layer tests (src/verify/).
//
// The compile-time proofs in verify/proofs.hpp already reject a broken
// schedule table at build time; these tests exercise the *checkers*
// themselves at run time:
//
//  1. Positive: every shipped table passes the symbolic and pebble-game
//     checks (the same constexpr functions, evaluated at run time).
//  2. Negative: seeded corruptions -- a flipped coefficient, a dropped
//     accumulation term, a stretched temp lifetime, a wrong Table 1 claim --
//     are each caught with the specific error code. This is the test that
//     the checkers actually check something.
//  3. Coupling: the executed operation counts of the IR interpreter
//     (core/winograd.cpp run_ir_schedule) match counts derived purely from
//     the IR tables plus the add-kernel recording rules. Since the runtime
//     consumes the same tables the prover verified, this closes the loop
//     proof == table == execution.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "core/dgefmm.hpp"
#include "support/opcount.hpp"
#include "support/random.hpp"
#include "verify/pebble.hpp"
#include "verify/proofs.hpp"
#include "verify/schedule_dag.hpp"
#include "verify/schedule_ir.hpp"
#include "verify/symbolic.hpp"

namespace strassen {
namespace {

namespace v = verify;

using core::CutoffCriterion;
using core::DgefmmConfig;
using core::Scheme;

// Mutable copy of a schedule: the shipped tables are constexpr and point at
// static arrays, so negative tests copy steps/temps into locals first.
struct ScheduleCopy {
  std::array<v::Step, 32> steps{};
  std::array<v::TempDecl, v::kMaxTemps> temps{};
  v::Schedule s;

  explicit ScheduleCopy(const v::Schedule& src) : s(src) {
    std::copy(src.steps, src.steps + src.nsteps, steps.begin());
    std::copy(src.temps, src.temps + src.ntemps, temps.begin());
    s.steps = steps.data();
    s.temps = temps.data();
  }
};

// ------------------------------------------------------------- positive

TEST(ScheduleProofs, ShippedSchedulesSatisfySymbolicChecker) {
  for (const v::Schedule* s : v::kAllSchedules) {
    EXPECT_EQ(v::check_schedule(*s), v::kOk) << s->name;
  }
}

TEST(ScheduleProofs, ShippedSchedulesSatisfyPebbleGame) {
  for (const v::Schedule* s : v::kAllSchedules) {
    EXPECT_EQ(v::check_lifetimes(*s), v::kOk) << s->name;
  }
}

TEST(ScheduleProofs, Table1TempCounts) {
  EXPECT_EQ(v::kStrassen1Beta0.peak_temps, 2);
  EXPECT_EQ(v::kStrassen2.peak_temps, 3);
  EXPECT_EQ(v::kOriginalBeta0.peak_temps, 3);
}

TEST(ScheduleProofs, FusedTablesSatisfyChecker) {
  EXPECT_EQ(v::check_fused<2>(v::kFusedL1, v::kFusedL1Products), v::kOk);
  EXPECT_EQ(v::check_fused<4>(v::kFusedL2.p, v::kFusedL2Products), v::kOk);
  EXPECT_EQ(v::fused_peak_temps(v::kFusedL1, v::kFusedL1Products, 2), 0);
  EXPECT_EQ(v::fused_peak_temps(v::kFusedL2.p, v::kFusedL2Products, 4), 0);
}

// ------------------------------------------------------------- negative

TEST(ScheduleProofsNegative, FlippedCoefficientRejected) {
  for (const v::Schedule* orig : v::kAllSchedules) {
    ScheduleCopy c(*orig);
    // Flip the sign of the first linear-combination coefficient.
    for (int i = 0; i < c.s.nsteps; ++i) {
      if (c.steps[static_cast<std::size_t>(i)].op == v::Op::lin) {
        c.steps[static_cast<std::size_t>(i)].t[0].c.v *= -1.0;
        break;
      }
    }
    EXPECT_EQ(v::check_schedule(c.s), v::kErrResultMismatch) << orig->name;
  }
}

TEST(ScheduleProofsNegative, FlippedProductSignRejected) {
  ScheduleCopy c(v::kStrassen2);
  for (int i = 0; i < c.s.nsteps; ++i) {
    v::Step& st = c.steps[static_cast<std::size_t>(i)];
    if (st.op == v::Op::mul) {
      st.am *= -1.0;
      break;
    }
  }
  EXPECT_EQ(v::check_schedule(c.s), v::kErrResultMismatch);
}

TEST(ScheduleProofsNegative, DroppedAccumulationTermRejected) {
  for (const v::Schedule* orig : v::kAllSchedules) {
    ScheduleCopy c(*orig);
    // Drop the second term of the first multi-term linear combination whose
    // destination is a C quadrant (an accumulation the result depends on).
    bool mutated = false;
    for (int i = 0; i < c.s.nsteps && !mutated; ++i) {
      v::Step& st = c.steps[static_cast<std::size_t>(i)];
      if (st.op == v::Op::lin && st.nt >= 2 && st.dst >= v::kC11 &&
          st.dst < v::kT0) {
        st.nt -= 1;
        mutated = true;
      }
    }
    if (!mutated) continue;  // schedule accumulates through mul steps only
    EXPECT_EQ(v::check_schedule(c.s), v::kErrResultMismatch) << orig->name;
  }
}

TEST(ScheduleProofsNegative, ExtendedTempLifetimeRejected) {
  // A lifetime window wider than the actual first/last accesses claims more
  // concurrency than the schedule has; the pebble game demands tightness.
  ScheduleCopy c(v::kStrassen1Beta0);
  c.temps[1].last += 1;
  ASSERT_LT(c.temps[1].last, c.s.nsteps);
  EXPECT_EQ(v::check_lifetimes(c.s), v::kErrLifetimeLast);

  ScheduleCopy c2(v::kStrassen1Beta0);
  c2.temps[1].first -= 1;
  ASSERT_GE(c2.temps[1].first, 0);
  EXPECT_EQ(v::check_lifetimes(c2.s), v::kErrLifetimeFirst);
}

TEST(ScheduleProofsNegative, InflatedTempCountRejected) {
  ScheduleCopy c(v::kStrassen2);
  c.s.peak_temps += 1;
  EXPECT_EQ(v::check_lifetimes(c.s), v::kErrPeakTempsMismatch);
}

TEST(ScheduleProofsNegative, WrongFootprintRejected) {
  ScheduleCopy c(v::kStrassen1Beta0);
  c.s.footprint.mn += 1;
  EXPECT_EQ(v::check_lifetimes(c.s), v::kErrFootprintMismatch);
}

TEST(ScheduleProofsNegative, CorruptedFusedTableRejected) {
  v::FProduct prods[v::kFusedL1Products];
  std::copy(v::kFusedL1, v::kFusedL1 + v::kFusedL1Products, prods);
  prods[0].c[0].g = static_cast<signed char>(-prods[0].c[0].g);
  EXPECT_EQ(v::check_fused<2>(prods, v::kFusedL1Products),
            v::kErrResultMismatch);
}

TEST(ScheduleProofsNegative, ReadBeforeWriteRejected) {
  ScheduleCopy c(v::kStrassen2);
  // Make the first step read a temp that nothing has written yet.
  for (int i = 0; i < c.s.nsteps; ++i) {
    v::Step& st = c.steps[static_cast<std::size_t>(i)];
    if (st.op == v::Op::lin) {
      st.t[0].reg = v::kT2;
      break;
    }
  }
  EXPECT_EQ(v::check_schedule(c.s), v::kErrReadUnwritten);
}

// ----------------------------------------------- IR-derived opcounts

count_t c2(index_t a, index_t b) { return static_cast<count_t>(a) * b; }

// blas::dgemm's record_ops (same as the mirror in test_opcount.cpp).
count_t gemm_cost(index_t m, index_t k, index_t n, double alpha,
                  double beta) {
  if (m == 0 || n == 0) return 0;
  count_t ops = 0;
  if (k > 0 && alpha != 0.0) {
    ops += c2(m, k) * n;
    ops += c2(m, k - 1) * n;
    if (beta != 0.0) ops += c2(m, n);
    if (alpha != 1.0) ops += c2(m, n);
  }
  if (beta != 0.0 && beta != 1.0) ops += c2(m, n);
  return ops;
}

// core/add_kernels.cpp recording rules.
count_t axpy_cost(double a, count_t mn) {
  if (a == 0.0) return 0;
  if (a == 1.0 || a == -1.0) return mn;
  return 2 * mn;
}

count_t axpby_cost(double a, double b, count_t mn) {
  if (b == 0.0) return a == 1.0 ? 0 : mn;
  if (a == 1.0 && b == 1.0) return mn;
  count_t ops = mn;
  if (a != 1.0) ops += mn;
  if (b != 1.0) ops += mn;
  return ops;
}

count_t scale_cost(double b, count_t mn) {
  return (b == 1.0 || b == 0.0) ? 0 : mn;
}

// Operations one level of run_ir_schedule performs on an (even) m x k x n
// problem whose seven sub-products run as base GEMMs, derived purely from
// the IR table by replaying the interpreter's kernel dispatch.
count_t ir_level_ops(const v::Schedule& s, index_t m, index_t k, index_t n,
                     double alpha, double beta) {
  const index_t m2 = m / 2, k2 = k / 2, n2 = n / 2;
  struct RC {
    index_t r = 0, c = 0;
  };
  RC shp[v::kNumRegs];
  for (int q = 0; q < 4; ++q) {
    shp[v::kA11 + q] = {m2, k2};
    shp[v::kB11 + q] = {k2, n2};
    shp[v::kC11 + q] = {m2, n2};
  }
  const auto coef = [beta](const v::Coef& cf) {
    return cf.s == v::Sym::beta ? cf.v * beta : cf.v;
  };
  const auto unit = [](const v::Coef& cf) {
    return cf.s == v::Sym::one && (cf.v == 1.0 || cf.v == -1.0);
  };
  count_t ops = 0;
  for (int i = 0; i < s.nsteps; ++i) {
    const v::Step& st = s.steps[i];
    if (st.op == v::Op::mul) {
      const RC x = shp[st.x], y = shp[st.y];
      shp[st.dst] = {x.r, y.c};
      ops += gemm_cost(x.r, x.c, y.c, st.am * alpha, coef(st.bc));
      continue;
    }
    int self = -1;
    for (int t = 0; t < st.nt; ++t) {
      if (st.t[t].reg == st.dst) self = t;
    }
    const RC s0 = shp[st.t[0].reg];
    shp[st.dst] = s0;
    const count_t mn = c2(s0.r, s0.c);
    if (self < 0) {
      if (st.nt == 1 && st.t[0].c.s == v::Sym::one && st.t[0].c.v == 1.0) {
        // copy_into records nothing
      } else if (st.nt == 2 && unit(st.t[0].c) && unit(st.t[1].c)) {
        if (st.t[0].c.v == -1.0 && st.t[1].c.v == -1.0) {
          ops += axpby_cost(-1.0, 0.0, mn) + axpy_cost(-1.0, mn);
        } else {
          ops += mn;  // add / sub / sub-reversed
        }
      } else {
        ops += axpby_cost(coef(st.t[0].c), 0.0, mn);
        for (int t = 1; t < st.nt; ++t) {
          ops += axpy_cost(coef(st.t[t].c), mn);
        }
      }
    } else if (st.nt == 2) {
      const v::Coef& cs = st.t[self].c;
      const v::Coef& co = st.t[1 - self].c;
      if (unit(cs) && unit(co)) {
        ops += (cs.v == -1.0 && co.v == -1.0) ? axpby_cost(-1.0, -1.0, mn)
                                              : mn;
      } else {
        ops += axpby_cost(coef(co), coef(cs), mn);
      }
    } else {
      double sc = 0.0;
      for (int t = 0; t < st.nt; ++t) {
        if (t == self) sc = coef(st.t[t].c);
      }
      bool first = true;
      for (int t = 0; t < st.nt; ++t) {
        if (t == self) continue;
        if (first) {
          ops += axpby_cost(coef(st.t[t].c), sc, mn);
          first = false;
        } else {
          ops += axpy_cost(coef(st.t[t].c), mn);
        }
      }
      if (first) ops += scale_cost(sc, mn);
    }
  }
  return ops;
}

count_t measured_ops(index_t m, index_t n, index_t k, double alpha,
                     double beta, const DgefmmConfig& cfg) {
  Rng rng(77);
  Matrix a = random_matrix(m, k, rng);
  Matrix b = random_matrix(k, n, rng);
  Matrix c = random_matrix(m, n, rng);
  opcount::ScopedCounting guard;
  EXPECT_EQ(core::dgefmm(Trans::no, Trans::no, m, n, k, alpha, a.data(), m,
                         b.data(), k, beta, c.data(), m, cfg),
            0);
  return opcount::counters().total();
}

struct IrOpsCase {
  Scheme scheme;
  const v::Schedule* table;
  double alpha, beta;
};

TEST(IrOpcount, ExecutionMatchesTableDerivedCounts) {
  const IrOpsCase cases[] = {
      {Scheme::strassen1, &v::kStrassen1Beta0, 1.0, 0.0},
      {Scheme::strassen1, &v::kStrassen1General, 1.0, 0.5},
      {Scheme::strassen2, &v::kStrassen2, 1.0, 0.5},
      {Scheme::strassen2, &v::kStrassen2, 2.0, 0.0},
      {Scheme::original, &v::kOriginalBeta0, 1.0, 0.0},
  };
  const struct {
    index_t m, k, n;
  } shapes[] = {{64, 64, 64}, {48, 64, 32}};
  for (const IrOpsCase& cs : cases) {
    for (const auto& sh : shapes) {
      DgefmmConfig cfg;
      cfg.cutoff = CutoffCriterion::fixed_depth(1);
      cfg.scheme = cs.scheme;
      EXPECT_EQ(
          measured_ops(sh.m, sh.n, sh.k, cs.alpha, cs.beta, cfg),
          ir_level_ops(*cs.table, sh.m, sh.k, sh.n, cs.alpha, cs.beta))
          << cs.table->name << " m=" << sh.m << " k=" << sh.k
          << " n=" << sh.n;
    }
  }
}

TEST(IrOpcount, FootprintDrivesWorkspacePredictor) {
  // The per-level workspace predictor must equal footprint_doubles of the
  // schedule actually selected -- one even-shape probe per schedule.
  const index_t m = 64, k = 64, n = 64;
  const index_t m2 = m / 2, k2 = k / 2, n2 = n / 2;
  struct Case {
    Scheme scheme;
    double beta;
    const v::Schedule* table;
  };
  const Case cases[] = {
      {Scheme::strassen1, 0.0, &v::kStrassen1Beta0},
      {Scheme::strassen1, 1.0, &v::kStrassen1General},
      {Scheme::strassen2, 1.0, &v::kStrassen2},
  };
  for (const Case& cs : cases) {
    DgefmmConfig cfg;
    cfg.cutoff = CutoffCriterion::fixed_depth(1);
    cfg.scheme = cs.scheme;
    EXPECT_EQ(core::dgefmm_workspace_doubles(m, n, k, cs.beta, cfg),
              v::footprint_doubles(cs.table->footprint, m2, k2, n2))
        << cs.table->name;
  }
}

// --- task-DAG linear-extension lemma ---------------------------------------
//
// schedule_dag.hpp static_asserts that the executor's fixed ascending
// combine order is a linear extension of the shipped DAG; these tests
// exercise the checker itself at run time, including orders and tables it
// must reject (the compile-time proof only ever sees passing inputs).

TEST(ScheduleDagOrder, AscendingOrderIsLinearExtension) {
  EXPECT_TRUE(v::order_is_linear_extension(
      v::kDagL1, v::ascending_order<v::kFusedL1Products, 4>()));
}

TEST(ScheduleDagOrder, CombineBeforeProducerIsRejected) {
  // Move block 0's combine node in front of one of its producers: the
  // order stays a permutation but breaks exactly one dependency edge.
  auto order = v::ascending_order<v::kFusedL1Products, 4>();
  const int combine0 = v::kFusedL1Products;
  const int producer = v::kDagL1.terms[v::kDagL1.term_begin[0]].product;
  std::swap(order.at[producer], order.at[combine0]);
  EXPECT_FALSE(v::order_is_linear_extension(v::kDagL1, order));
}

TEST(ScheduleDagOrder, NonPermutationIsRejected) {
  auto dup = v::ascending_order<v::kFusedL1Products, 4>();
  dup.at[0] = dup.at[1];
  EXPECT_FALSE(v::order_is_linear_extension(v::kDagL1, dup));

  auto oob = v::ascending_order<v::kFusedL1Products, 4>();
  oob.at[0] = v::kFusedL1Products + 4;
  EXPECT_FALSE(v::order_is_linear_extension(v::kDagL1, oob));
}

TEST(ScheduleDagOrder, ReorderedCombineListIsRejected) {
  // A combine list that is not ascending in product index no longer
  // matches the deterministic application order the lemma certifies.
  auto dag = v::kDagL1;
  std::swap(dag.terms[dag.term_begin[0]], dag.terms[dag.term_begin[0] + 1]);
  EXPECT_FALSE(v::dag_covers_table(dag, v::kFusedL1));
  EXPECT_TRUE(v::order_is_linear_extension(
      dag, v::ascending_order<v::kFusedL1Products, 4>()));
}

}  // namespace
}  // namespace strassen
