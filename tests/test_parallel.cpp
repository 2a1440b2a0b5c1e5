// Tests for the parallel extension: thread pool semantics, the
// work-stealing DAG executor, the moldable pre-flight planner, and
// numerical agreement (plus bitwise determinism) of the parallel Strassen
// with the reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/packed_loop.hpp"
#include "blas/prefetch.hpp"
#include "core/workspace.hpp"
#include "parallel/parallel_strassen.hpp"
#include "parallel/task_dag.hpp"
#include "support/thread_pool.hpp"
#include "support/matrix.hpp"
#include "support/memadvise.hpp"
#include "support/random.hpp"

namespace strassen {
namespace {

void count_task(void* arg) {
  static_cast<std::atomic<int>*>(arg)->fetch_add(1);
}

// Runs `count` raw counting tasks as one allocation-free batch.
void run_counting_batch(parallel::ThreadPool& pool, std::atomic<int>& counter,
                        std::size_t count) {
  const std::vector<parallel::ThreadPool::RawTask> tasks(
      count, parallel::ThreadPool::RawTask{&count_task, &counter});
  pool.run_batch_nofail(tasks.data(), tasks.size());
}

TEST(ThreadPool, RunsAllTasks) {
  parallel::ThreadPool pool(4);
  std::atomic<int> counter{0};
  run_counting_batch(pool, counter, 100);
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SequentialBatches) {
  parallel::ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 5; ++batch) {
    run_counting_batch(pool, counter, 10);
    EXPECT_EQ(counter.load(), (batch + 1) * 10);
  }
}

// Function tasks (here the per-worker pass) rethrow the first exception
// once every worker has finished, and the pool stays usable.
TEST(ThreadPool, PropagatesTaskException) {
  parallel::ThreadPool pool(2);
  std::atomic<int> ran{0};
  const auto throw_on_first = [&ran](std::size_t worker) {
    ran.fetch_add(1);
    if (worker == 0) throw std::runtime_error("boom");
  };
  EXPECT_THROW(pool.run_on_each_worker(throw_on_first), std::runtime_error);
  EXPECT_EQ(ran.load(), 2);
  std::atomic<int> counter{0};
  run_counting_batch(pool, counter, 1);
  EXPECT_EQ(counter.load(), 1);
  pool.run_on_each_worker([&counter](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPool, EmptyBatchIsNoop) {
  parallel::ThreadPool pool(1);
  EXPECT_NO_THROW(pool.run_batch_nofail(nullptr, 0));
}

// --- DagRun / run_dag unit tests -------------------------------------------

// Shared state for hand-built DAG nodes: each body records the global order
// index it executed at.
struct DagProbe {
  std::atomic<int> seq{0};
  std::vector<int> order;  // one slot per node, written once
  explicit DagProbe(std::size_t n) : order(n, -1) {}
};

struct DagProbeNode {
  DagProbe* probe = nullptr;
  int id = 0;
};

void probe_body(void* arg, std::size_t /*lane*/) {
  auto* n = static_cast<DagProbeNode*>(arg);
  n->probe->order[static_cast<std::size_t>(n->id)] =
      n->probe->seq.fetch_add(1);
}

TEST(ThreadPoolDag, ExecutesAllNodesInDependencyOrder) {
  parallel::ThreadPool pool(3);
  // Diamond over 8 nodes: 0 -> {1,2,3} -> {4,5} -> 6 -> 7.
  const std::int32_t succ0[] = {1, 2, 3};
  const std::int32_t succ_mid[] = {4, 5};
  const std::int32_t succ_late[] = {6};
  const std::int32_t succ6[] = {7};
  DagProbe probe(8);
  DagProbeNode bodies[8];
  for (int i = 0; i < 8; ++i) bodies[i] = {&probe, i};
  parallel::ThreadPool::DagNode nodes[8] = {
      {&probe_body, &bodies[0], succ0, 3, 0},
      {&probe_body, &bodies[1], succ_mid, 2, 1},
      {&probe_body, &bodies[2], succ_mid, 2, 1},
      {&probe_body, &bodies[3], succ_mid, 2, 1},
      {&probe_body, &bodies[4], succ_late, 1, 3},
      {&probe_body, &bodies[5], succ_late, 1, 3},
      {&probe_body, &bodies[6], succ6, 1, 2},
      {&probe_body, &bodies[7], nullptr, 0, 1},
  };
  parallel::DagRun run(nodes, 8, 3);
  pool.run_dag(run);
  for (int i = 0; i < 8; ++i) EXPECT_GE(probe.order[i], 0) << "node " << i;
  for (int mid = 1; mid <= 3; ++mid) {
    EXPECT_LT(probe.order[0], probe.order[mid]);
    EXPECT_LT(probe.order[mid], probe.order[4]);
    EXPECT_LT(probe.order[mid], probe.order[5]);
  }
  EXPECT_LT(probe.order[4], probe.order[6]);
  EXPECT_LT(probe.order[5], probe.order[6]);
  EXPECT_LT(probe.order[6], probe.order[7]);
}

TEST(ThreadPoolDag, SingleLaneRunsEverythingOnCaller) {
  parallel::ThreadPool pool(2);
  const std::int32_t succ[] = {1};
  DagProbe probe(2);
  DagProbeNode bodies[2] = {{&probe, 0}, {&probe, 1}};
  parallel::ThreadPool::DagNode nodes[2] = {
      {&probe_body, &bodies[0], succ, 1, 0},
      {&probe_body, &bodies[1], nullptr, 0, 1},
  };
  parallel::DagRun run(nodes, 2, 1);
  pool.run_dag(run);
  EXPECT_EQ(probe.order[0], 0);
  EXPECT_EQ(probe.order[1], 1);
  EXPECT_EQ(run.steals(), 0);
  EXPECT_LE(run.peak_active(), 1);
}

// Forces a steal: the root readies both children into lane 0's own deque;
// child A then blocks until child B has started, which can only happen if
// the second lane stole B.
struct StealState {
  std::atomic<bool> b_started{false};
};

void steal_root(void*, std::size_t) {}

void steal_child_a(void* arg, std::size_t) {
  auto* st = static_cast<StealState*>(arg);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!st->b_started.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

void steal_child_b(void* arg, std::size_t) {
  static_cast<StealState*>(arg)->b_started.store(
      true, std::memory_order_release);
}

TEST(ThreadPoolDag, IdleLaneStealsFromBusyLane) {
  parallel::ThreadPool pool(2);
  StealState st;
  const std::int32_t succ[] = {1, 2};
  // Successors are pushed to the finishing lane's deque in array order and
  // popped LIFO, so the caller's lane runs node 2 (the waiter) first while
  // node 1 (the flag-setter) sits at the steal end of the deque.
  parallel::ThreadPool::DagNode nodes[3] = {
      {&steal_root, nullptr, succ, 2, 0},
      {&steal_child_b, &st, nullptr, 0, 1},
      {&steal_child_a, &st, nullptr, 0, 1},
  };
  parallel::DagRun run(nodes, 3, 2);
  pool.run_dag(run);
  EXPECT_TRUE(st.b_started.load());
  EXPECT_GE(run.steals(), 1);
}

TEST(ThreadPoolDag, PeakActiveBoundedByLanes) {
  parallel::ThreadPool pool(4);
  // 24 independent nodes, but only 2 lanes: the executor must never run
  // more than two bodies at once regardless of pool width -- the property
  // the moldable allotment relies on to prevent oversubscription.
  DagProbe probe(24);
  DagProbeNode bodies[24];
  parallel::ThreadPool::DagNode nodes[24];
  for (int i = 0; i < 24; ++i) {
    bodies[i] = {&probe, i};
    nodes[i] = {&probe_body, &bodies[i], nullptr, 0, 0};
  }
  parallel::DagRun run(nodes, 24, 2);
  pool.run_dag(run);
  for (int i = 0; i < 24; ++i) EXPECT_GE(probe.order[i], 0);
  EXPECT_LE(run.peak_active(), 2);
}

void throwing_body(void*, std::size_t) {
  throw std::runtime_error("dag node boom");
}

TEST(ThreadPoolDag, PropagatesNodeExceptionAndStaysUsable) {
  parallel::ThreadPool pool(2);
  DagProbe probe(1);
  DagProbeNode tail{&probe, 0};
  const std::int32_t succ[] = {1};
  parallel::ThreadPool::DagNode nodes[2] = {
      {&throwing_body, nullptr, succ, 1, 0},
      {&probe_body, &tail, nullptr, 0, 1},
  };
  parallel::DagRun run(nodes, 2, 2);
  EXPECT_THROW(pool.run_dag(run), std::runtime_error);
  // The failed node's successor was abandoned, not executed.
  EXPECT_EQ(probe.order[0], -1);
  // The pool must remain usable after a failed run.
  std::atomic<int> counter{0};
  run_counting_batch(pool, counter, 1);
  EXPECT_EQ(counter.load(), 1);
}

// --- Moldable planner ------------------------------------------------------

// The allotment is the closed form lanes = min(budget, 7), leaf fan-out =
// max(1, budget / lanes): never more cores than the budget, at most one
// lane per product node, and threads = 0 is the pool's size.
TEST(DagPlan, AllotmentNeverOversubscribesBudget) {
  for (int budget = 1; budget <= 16; ++budget) {
    SCOPED_TRACE(::testing::Message() << "budget " << budget);
    parallel::ParallelDgefmmConfig cfg;
    cfg.threads = static_cast<std::size_t>(budget);
    const parallel::DagPlan plan = parallel::plan_dag(256, 256, 256, cfg);
    EXPECT_EQ(plan.lanes, std::min(budget, 7));
    EXPECT_EQ(plan.leaf_gemm_threads, std::max(1, budget / plan.lanes));
    EXPECT_LE(plan.lanes * plan.leaf_gemm_threads, budget);
  }
  parallel::ParallelDgefmmConfig pool_sized, explicit_pool;
  explicit_pool.threads = parallel::global_pool().size();
  const parallel::DagPlan a = parallel::plan_dag(256, 256, 256, pool_sized);
  const parallel::DagPlan b = parallel::plan_dag(256, 256, 256, explicit_pool);
  EXPECT_EQ(a.lanes, b.lanes);
  EXPECT_EQ(a.leaf_gemm_threads, b.leaf_gemm_threads);
  EXPECT_EQ(a.workspace, b.workspace);
}

// plan_dag is a pure function of the shape, the config and the pool size:
// the retired scheduler variables change nothing.
TEST(DagPlan, PlanReadsNoEnvironment) {
  parallel::ParallelDgefmmConfig cfg;
  cfg.threads = 4;
  const parallel::DagPlan before = parallel::plan_dag(256, 256, 256, cfg);
  setenv("STRASSEN_PAR_DEPTH", "2", 1);
  setenv("STRASSEN_PAR_LANES", "1", 1);
  const parallel::DagPlan during = parallel::plan_dag(256, 256, 256, cfg);
  unsetenv("STRASSEN_PAR_DEPTH");
  unsetenv("STRASSEN_PAR_LANES");
  EXPECT_EQ(during.lanes, before.lanes);
  EXPECT_EQ(during.leaf_gemm_threads, before.leaf_gemm_threads);
  EXPECT_EQ(during.workspace, before.workspace);
  EXPECT_EQ(during.lanes, 4);
  EXPECT_EQ(during.leaf_gemm_threads, 1);
}

TEST(DagPlan, WorkspaceMatchesPredictor) {
  parallel::ParallelDgefmmConfig cfg;
  cfg.threads = 3;
  cfg.cutoff = core::CutoffCriterion::square_simple(24);
  const parallel::DagPlan plan = parallel::plan_dag(160, 160, 160, cfg);
  core::DgefmmConfig child;
  child.cutoff = cfg.cutoff;
  child.scheme = cfg.scheme;
  EXPECT_EQ(plan.workspace,
            core::parallel_workspace_doubles(160, 160, 160, child, 3));
  EXPECT_GT(plan.workspace, 0);
}

// --- Parallel GEMM ---------------------------------------------------------
// The pooled blas::dgemm fans its row loop out over the pool on its own.
// Checks the fan-out decision, the reference, and bitwise equality with
// the forced-serial run.
void check_pooled_dgemm(Trans ta, Trans tb, index_t m, index_t n, index_t k,
                        double beta, std::uint64_t seed, bool fans_out) {
  Rng rng(seed);
  const Matrix a = is_trans(ta) ? random_matrix(k, m, rng)
                                : random_matrix(m, k, rng);
  const Matrix b = is_trans(tb) ? random_matrix(n, k, rng)
                                : random_matrix(k, n, rng);
  const Matrix c0 = random_matrix(m, n, rng);
  Matrix pooled(m, n), serial(m, n), c_ref(m, n);
  const auto run = [&](int threads, Matrix& c) {
    copy(c0.view(), c.view());
    blas::ScopedGemmThreads pin(threads);
    if (threads > 1) {
      EXPECT_EQ(blas::packed_gemm_threads(m, n, k) > 1, fans_out);
    }
    blas::dgemm(ta, tb, m, n, k, 1.5, a.data(), a.ld(), b.data(), b.ld(),
                beta, c.data(), c.ld());
  };
  run(1, serial);
  run(4, pooled);
  copy(c0.view(), c_ref.view());
  blas::gemm_reference(ta, tb, m, n, k, 1.5, a.data(), a.ld(), b.data(),
                       b.ld(), beta, c_ref.data(), c_ref.ld());
  EXPECT_LT(max_abs_diff(pooled.view(), c_ref.view()), 1e-11);
  EXPECT_EQ(std::memcmp(pooled.data(), serial.data(),
                        sizeof(double) * static_cast<std::size_t>(m) *
                            static_cast<std::size_t>(n)),
            0);
}

TEST(ParallelGemm, MatchesReference) {
  check_pooled_dgemm(Trans::no, Trans::no, 300, 257, 70, 0.5, 31, true);
}

TEST(ParallelGemm, TransposedOperands) {
  check_pooled_dgemm(Trans::transpose, Trans::transpose, 256, 128, 80, 0.0,
                     32, true);
}

TEST(ParallelGemm, SmallProblemFallsBackToSerial) {
  check_pooled_dgemm(Trans::no, Trans::no, 8, 8, 8, 0.0, 33, false);
}

class ParallelStrassenCases : public ::testing::TestWithParam<int> {};

TEST_P(ParallelStrassenCases, MatchesReference) {
  struct Case {
    index_t m, n, k;
    Trans ta, tb;
    double alpha, beta;
  };
  const std::vector<Case> cases = {
      {128, 128, 128, Trans::no, Trans::no, 1.0, 0.0},
      {129, 127, 125, Trans::no, Trans::no, 1.0, 0.0},
      {120, 140, 100, Trans::no, Trans::no, 2.0, -0.5},
      {96, 96, 96, Trans::transpose, Trans::no, 1.0, 1.0},
      {101, 99, 97, Trans::transpose, Trans::transpose, -1.0, 0.25},
      {16, 16, 16, Trans::no, Trans::no, 1.0, 0.0},  // serial fallback
  };
  const Case cs = cases[static_cast<std::size_t>(GetParam())];
  Rng rng(100 + static_cast<std::uint64_t>(GetParam()));
  const index_t a_rows = is_trans(cs.ta) ? cs.k : cs.m;
  const index_t a_cols = is_trans(cs.ta) ? cs.m : cs.k;
  const index_t b_rows = is_trans(cs.tb) ? cs.n : cs.k;
  const index_t b_cols = is_trans(cs.tb) ? cs.k : cs.n;
  Matrix a = random_matrix(a_rows, a_cols, rng);
  Matrix b = random_matrix(b_rows, b_cols, rng);
  Matrix c = random_matrix(cs.m, cs.n, rng);
  Matrix c_ref(cs.m, cs.n);
  copy(c.view(), c_ref.view());

  parallel::ParallelDgefmmConfig cfg;
  cfg.cutoff = core::CutoffCriterion::square_simple(24);
  ASSERT_EQ(parallel::dgefmm_parallel(cs.ta, cs.tb, cs.m, cs.n, cs.k,
                                      cs.alpha, a.data(), a.ld(), b.data(),
                                      b.ld(), cs.beta, c.data(), c.ld(), cfg),
            0);
  blas::gemm_reference(cs.ta, cs.tb, cs.m, cs.n, cs.k, cs.alpha, a.data(),
                       a.ld(), b.data(), b.ld(), cs.beta, c_ref.data(),
                       c_ref.ld());
  EXPECT_LT(max_abs_diff(c.view(), c_ref.view()),
            1e-11 * (static_cast<double>(cs.k) + 10.0));
}

INSTANTIATE_TEST_SUITE_P(Cases, ParallelStrassenCases, ::testing::Range(0, 6));

class ParallelFusedCases : public ::testing::TestWithParam<int> {};

TEST_P(ParallelFusedCases, FusedScheduleMatchesReference) {
  struct Case {
    index_t m, n, k;
    Trans ta, tb;
    double alpha, beta;
  };
  const std::vector<Case> cases = {
      {128, 128, 128, Trans::no, Trans::no, 1.0, 0.0},
      {129, 127, 125, Trans::no, Trans::no, 1.0, 0.0},
      {120, 140, 100, Trans::no, Trans::no, 2.0, -0.5},
      {96, 96, 96, Trans::transpose, Trans::no, 1.0, 1.0},
      {101, 99, 97, Trans::transpose, Trans::transpose, -1.0, 0.25},
      {16, 16, 16, Trans::no, Trans::no, 1.0, 0.0},  // serial fallback
  };
  const Case cs = cases[static_cast<std::size_t>(GetParam())];
  Rng rng(200 + static_cast<std::uint64_t>(GetParam()));
  const index_t a_rows = is_trans(cs.ta) ? cs.k : cs.m;
  const index_t a_cols = is_trans(cs.ta) ? cs.m : cs.k;
  const index_t b_rows = is_trans(cs.tb) ? cs.n : cs.k;
  const index_t b_cols = is_trans(cs.tb) ? cs.k : cs.n;
  Matrix a = random_matrix(a_rows, a_cols, rng);
  Matrix b = random_matrix(b_rows, b_cols, rng);
  Matrix c = random_matrix(cs.m, cs.n, rng);
  Matrix c_ref(cs.m, cs.n);
  copy(c.view(), c_ref.view());

  parallel::ParallelDgefmmConfig cfg;
  cfg.cutoff = core::CutoffCriterion::square_simple(24);
  cfg.scheme = core::Scheme::fused;
  ASSERT_EQ(parallel::dgefmm_parallel(cs.ta, cs.tb, cs.m, cs.n, cs.k,
                                      cs.alpha, a.data(), a.ld(), b.data(),
                                      b.ld(), cs.beta, c.data(), c.ld(), cfg),
            0);
  blas::gemm_reference(cs.ta, cs.tb, cs.m, cs.n, cs.k, cs.alpha, a.data(),
                       a.ld(), b.data(), b.ld(), cs.beta, c_ref.data(),
                       c_ref.ld());
  EXPECT_LT(max_abs_diff(c.view(), c_ref.view()),
            1e-11 * (static_cast<double>(cs.k) + 10.0));
}

INSTANTIATE_TEST_SUITE_P(Cases, ParallelFusedCases, ::testing::Range(0, 6));

TEST(ParallelStrassen, InvalidArgumentsReported) {
  Matrix a(8, 8), b(8, 8), c(8, 8);
  parallel::ParallelDgefmmConfig cfg;
  EXPECT_EQ(parallel::dgefmm_parallel(Trans::no, Trans::no, 8, 8, 8, 1.0,
                                      a.data(), 4, b.data(), 8, 0.0, c.data(),
                                      8, cfg),
            8);
}

// --- DAG scheduler: bitwise determinism and workspace exactness ------------

// C must be bitwise identical for every thread budget / lane count / steal
// order: combines apply their terms in the verified schedule's fixed order,
// and the block partition is static. Exercised over both schemes, plain
// and transposed operands, and even/odd shapes, with budgets from one lane
// up to seven lanes on a smaller pool (stealing under contention).
class DagDeterminismMatrix
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(DagDeterminismMatrix, BitwiseIdenticalAcrossThreadCounts) {
  const int scheme_idx = std::get<0>(GetParam());
  const int op_idx = std::get<1>(GetParam());
  const Trans op = op_idx == 0 ? Trans::no : Trans::transpose;
  const index_t n = std::get<2>(GetParam()) == 0 ? 128 : 117;
  Rng rng(401 + static_cast<std::uint64_t>(scheme_idx * 10 + op_idx));
  Matrix a = random_matrix(n, n, rng);
  Matrix b = random_matrix(n, n, rng);
  Matrix c0 = random_matrix(n, n, rng);

  auto run_with_threads = [&](std::size_t threads, Matrix& c) {
    copy(c0.view(), c.view());
    parallel::ParallelDgefmmConfig cfg;
    cfg.cutoff = core::CutoffCriterion::square_simple(24);
    cfg.scheme = scheme_idx == 0 ? core::Scheme::automatic
                                 : core::Scheme::fused;
    cfg.threads = threads;
    ASSERT_EQ(parallel::dgefmm_parallel(op, op, n, n, n, 1.25, a.data(),
                                        a.ld(), b.data(), b.ld(), -0.5,
                                        c.data(), c.ld(), cfg),
              0);
  };

  Matrix base(n, n), other(n, n);
  run_with_threads(1, base);  // one lane, serial leaves: the reference order
  const std::size_t bytes =
      static_cast<std::size_t>(n) * static_cast<std::size_t>(n) *
      sizeof(double);
  // 0 = whatever the shared pool offers; 7 = one lane per product.
  for (const std::size_t threads : {2, 3, 7, 0}) {
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    run_with_threads(threads, other);
    EXPECT_EQ(std::memcmp(base.data(), other.data(), bytes), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, DagDeterminismMatrix,
    ::testing::Combine(::testing::Values(0, 1),   // automatic, fused
                       ::testing::Values(0, 1),   // op(A), op(B): N, T
                       ::testing::Values(0, 1))); // even, odd shape

TEST(ParallelStrassen, WorkspacePredictionIsExact) {
  const index_t n = 144;
  Rng rng(55);
  Matrix a = random_matrix(n, n, rng);
  Matrix b = random_matrix(n, n, rng);
  Matrix c(n, n);
  fill(c.view(), 0.0);
  // 14 leaves two GEMM threads per product leaf.
  for (const std::size_t threads : {1, 3, 4, 7, 14}) {
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    Arena arena;
    core::DgefmmStats stats;
    parallel::ParallelDgefmmConfig cfg;
    cfg.cutoff = core::CutoffCriterion::square_simple(24);
    cfg.threads = threads;
    cfg.workspace = &arena;
    cfg.stats = &stats;
    const parallel::DagPlan plan = parallel::plan_dag(n, n, n, cfg);
    ASSERT_EQ(parallel::dgefmm_parallel(Trans::no, Trans::no, n, n, n, 1.0,
                                        a.data(), a.ld(), b.data(), b.ld(),
                                        0.0, c.data(), c.ld(), cfg),
              0);
    // The single up-front reservation is carved exactly: predicted ==
    // reserved == measured high-water mark.
    EXPECT_EQ(arena.peak(), static_cast<std::size_t>(plan.workspace));
    EXPECT_EQ(stats.peak_workspace, static_cast<std::size_t>(plan.workspace));
    EXPECT_EQ(stats.dag_nodes, 7 + 4);
    EXPECT_EQ(stats.dag_lanes, plan.lanes);
    EXPECT_EQ(stats.gemm_threads, plan.leaf_gemm_threads);
  }
}

TEST(ParallelStrassen, SchedulerStatsRecorded) {
  const index_t n = 128;
  Rng rng(57);
  Matrix a = random_matrix(n, n, rng);
  Matrix b = random_matrix(n, n, rng);
  Matrix c(n, n);
  fill(c.view(), 0.0);
  core::DgefmmStats stats;
  parallel::ParallelDgefmmConfig cfg;
  cfg.cutoff = core::CutoffCriterion::square_simple(24);
  cfg.threads = 4;
  cfg.stats = &stats;
  ASSERT_EQ(parallel::dgefmm_parallel(Trans::no, Trans::no, n, n, n, 1.0,
                                      a.data(), a.ld(), b.data(), b.ld(),
                                      0.0, c.data(), c.ld(), cfg),
            0);
  EXPECT_EQ(stats.dag_nodes, 7 + 4);
  EXPECT_EQ(stats.dag_lanes, 4);
  EXPECT_EQ(stats.gemm_threads, 1);  // moldable split: 4 budget / 4 lanes
  EXPECT_EQ(stats.fallbacks, 0);
  EXPECT_NE(stats.kernel, nullptr);
}

// --- memory-system tuning: first-touch, huge pages, prefetch ---------------

// The full knob matrix (prefetch on/off x huge pages on/off x 1-vs-N
// threads) must be bitwise invisible: every combination produces the same
// C as the all-off single-thread run. Prefetch changes cache residency,
// huge pages change page backing, first-touch changes physical placement
// -- none of them may change a value or a combine order.
TEST(MemorySystem, KnobMatrixBitwiseIdenticalAcrossThreadCounts) {
  const index_t n = 160;
  Rng rng(606);
  Matrix a = random_matrix(n, n, rng);
  Matrix b = random_matrix(n, n, rng);
  Matrix c0 = random_matrix(n, n, rng);
  const std::size_t bytes = static_cast<std::size_t>(n) *
                            static_cast<std::size_t>(n) * sizeof(double);

  auto run = [&](bool pf, bool huge, std::size_t threads, Matrix& c) {
    blas::ScopedPackPrefetch prefetch(pf);
    ScopedHugePages hp(huge);
    copy(c0.view(), c.view());
    parallel::ParallelDgefmmConfig cfg;
    cfg.cutoff = core::CutoffCriterion::square_simple(24);
    cfg.scheme = core::Scheme::fused;
    cfg.threads = threads;
    ASSERT_EQ(parallel::dgefmm_parallel(Trans::no, Trans::no, n, n, n, 1.25,
                                        a.data(), a.ld(), b.data(), b.ld(),
                                        -0.5, c.data(), c.ld(), cfg),
              0);
  };

  Matrix base(n, n), other(n, n);
  run(false, false, 1, base);
  for (const bool pf : {false, true}) {
    for (const bool huge : {false, true}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                        std::size_t{0}}) {
        SCOPED_TRACE(std::string("prefetch=") + (pf ? "on" : "off") +
                     " hugepages=" + (huge ? "on" : "off") + " threads=" +
                     std::to_string(threads));
        run(pf, huge, threads, other);
        EXPECT_EQ(std::memcmp(base.data(), other.data(), bytes), 0);
      }
    }
  }
}

// Multi-lane runs first-touch their per-lane sub-arenas before the compute
// phase and record the page count; the touches must not perturb the result
// (the arena contract says every region is written before read, so a
// pre-write of zeros is invisible).
TEST(MemorySystem, FirstTouchPagesRecordedAndInvisible) {
  const index_t n = 160;
  Rng rng(607);
  Matrix a = random_matrix(n, n, rng);
  Matrix b = random_matrix(n, n, rng);
  Matrix c(n, n), c_ref(n, n);
  fill(c.view(), 0.0);
  fill(c_ref.view(), 0.0);
  core::DgefmmStats stats;
  parallel::ParallelDgefmmConfig cfg;
  cfg.cutoff = core::CutoffCriterion::square_simple(24);
  cfg.scheme = core::Scheme::fused;
  cfg.threads = 4;
  cfg.stats = &stats;
  ASSERT_EQ(parallel::dgefmm_parallel(Trans::no, Trans::no, n, n, n, 1.0,
                                      a.data(), a.ld(), b.data(), b.ld(),
                                      0.0, c.data(), c.ld(), cfg),
            0);
  EXPECT_GT(stats.first_touch_pages, 0);
  blas::gemm_reference(Trans::no, Trans::no, n, n, n, 1.0, a.data(), a.ld(),
                       b.data(), b.ld(), 0.0, c_ref.data(), c_ref.ld());
  EXPECT_LT(max_abs_diff(c.view(), c_ref.view()), 1e-11 * (n + 10.0));
}

// The stats report exactly what the run's arena got advised: equal to the
// arena's own accounting when the switch is on, zero when off. (Whether
// the kernel grants the advice is host-dependent; equality is the
// contract, not a particular byte count.)
TEST(MemorySystem, HugePageStatsMatchArenaAccounting) {
  const index_t n = 192;
  Rng rng(608);
  Matrix a = random_matrix(n, n, rng);
  Matrix b = random_matrix(n, n, rng);
  Matrix c(n, n);
  for (const bool huge : {false, true}) {
    SCOPED_TRACE(huge ? "hugepages=on" : "hugepages=off");
    ScopedHugePages hp(huge);
    fill(c.view(), 0.0);
    Arena arena;
    core::DgefmmStats stats;
    parallel::ParallelDgefmmConfig cfg;
    cfg.cutoff = core::CutoffCriterion::square_simple(24);
    cfg.threads = 2;
    cfg.workspace = &arena;
    cfg.stats = &stats;
    ASSERT_EQ(parallel::dgefmm_parallel(Trans::no, Trans::no, n, n, n, 1.0,
                                        a.data(), a.ld(), b.data(), b.ld(),
                                        0.0, c.data(), c.ld(), cfg),
              0);
    EXPECT_EQ(stats.hugepage_bytes, arena.huge_advised_bytes());
    if (!huge) {
      EXPECT_EQ(stats.hugepage_bytes, 0u);
    }
  }
}

TEST(ParallelStrassen, DeterministicAcrossRuns) {
  Rng rng(9);
  const index_t n = 100;
  Matrix a = random_matrix(n, n, rng);
  Matrix b = random_matrix(n, n, rng);
  Matrix c1(n, n), c2(n, n);
  fill(c1.view(), 0.0);
  fill(c2.view(), 0.0);
  parallel::ParallelDgefmmConfig cfg;
  cfg.cutoff = core::CutoffCriterion::square_simple(24);
  parallel::dgefmm_parallel(Trans::no, Trans::no, n, n, n, 1.0, a.data(), n,
                            b.data(), n, 0.0, c1.data(), n, cfg);
  parallel::dgefmm_parallel(Trans::no, Trans::no, n, n, n, 1.0, a.data(), n,
                            b.data(), n, 0.0, c2.data(), n, cfg);
  // The task partition is static, so results are bit-identical run to run.
  EXPECT_EQ(max_abs_diff(c1.view(), c2.view()), 0.0);
}

}  // namespace
}  // namespace strassen
