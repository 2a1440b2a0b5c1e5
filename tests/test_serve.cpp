// Tests for the async serving front-end (serve/serve.hpp): exact-predictor
// admission against the budgeted arena pool, the three overflow policies,
// deadlines, cooperative cancellation, fault-injection plumbing through the
// queue -> DAG -> combine chain, the serving C ABI, and a concurrent
// mixed-shape soak that the tsan preset runs under the thread sanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/kernels.hpp"
#include "blas/pack_operand.hpp"
#include "blas/packed_loop.hpp"
#include "core/cabi.hpp"
#include "core/dgefmm.hpp"
#include "core/sgefmm.hpp"
#include "core/tuned_policy.hpp"
#include "parallel/parallel_strassen.hpp"
#include "parallel/task_dag.hpp"
#include "serve/serve.hpp"
#include "serve/serve_cabi.hpp"
#include "support/errors.hpp"
#include "support/faultinject.hpp"
#include "support/matrix.hpp"
#include "support/random.hpp"

namespace strassen {
namespace {

namespace fi = faultinject;

// Forces recursion on small shapes so the tests exercise real Strassen
// workspace needs without large matrices.
core::CutoffCriterion cut() { return core::CutoffCriterion::square_simple(24); }

template <class T>
MatrixT<T> random_square(index_t n, Rng& rng) {
  if constexpr (std::is_same_v<T, float>) {
    return random_matrix_f(n, n, rng);
  } else {
    return random_matrix(n, n, rng);
  }
}

template <class T>
bool bitwise_equal(const MatrixT<T>& x, const MatrixT<T>& y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  return std::memcmp(x.data(), y.data(),
                     static_cast<std::size_t>(x.rows()) *
                         static_cast<std::size_t>(x.cols()) * sizeof(T)) == 0;
}

// One n x n problem instance: shared read-only A/B, a C seed, and the
// bitwise references for every execution path a ticket can report.
template <class T>
struct Problem {
  index_t n;
  T alpha = T(1.25);
  T beta = T(-0.5);
  MatrixT<T> a, b, c0;
  MatrixT<T> ref_serial;  // core::dgefmm / sgefmm with the forced cutoff
  MatrixT<T> ref_dag;     // the task-DAG parallel driver (bitwise stable)
  MatrixT<T> ref_plain;   // workspace-free degradation path (serial GEMM)

  Problem(index_t size, std::uint64_t seed) : n(size) {
    Rng rng(seed);
    a = random_square<T>(n, rng);
    b = random_square<T>(n, rng);
    c0 = random_square<T>(n, rng);

    ref_serial = MatrixT<T>(n, n);
    copy(c0.view(), ref_serial.view());
    core::GefmmConfigT<T> scfg;
    scfg.cutoff = cut();
    int info;
    if constexpr (std::is_same_v<T, float>) {
      info = core::sgefmm(Trans::no, Trans::no, n, n, n, alpha, a.data(),
                          a.ld(), b.data(), b.ld(), beta, ref_serial.data(),
                          ref_serial.ld(), scfg);
    } else {
      info = core::dgefmm(Trans::no, Trans::no, n, n, n, alpha, a.data(),
                          a.ld(), b.data(), b.ld(), beta, ref_serial.data(),
                          ref_serial.ld(), scfg);
    }
    EXPECT_EQ(info, 0);

    ref_dag = MatrixT<T>(n, n);
    copy(c0.view(), ref_dag.view());
    parallel::ParallelGefmmConfigT<T> pcfg;
    pcfg.cutoff = cut();
    if constexpr (std::is_same_v<T, float>) {
      info = parallel::sgefmm_parallel(Trans::no, Trans::no, n, n, n, alpha,
                                       a.data(), a.ld(), b.data(), b.ld(),
                                       beta, ref_dag.data(), ref_dag.ld(),
                                       pcfg);
    } else {
      info = parallel::dgefmm_parallel(Trans::no, Trans::no, n, n, n, alpha,
                                       a.data(), a.ld(), b.data(), b.ld(),
                                       beta, ref_dag.data(), ref_dag.ld(),
                                       pcfg);
    }
    EXPECT_EQ(info, 0);

    ref_plain = MatrixT<T>(n, n);
    copy(c0.view(), ref_plain.view());
    blas::ScopedGemmThreads serial_gemm(1);
    if constexpr (std::is_same_v<T, float>) {
      blas::sgemm(Trans::no, Trans::no, n, n, n, alpha, a.data(), a.ld(),
                  b.data(), b.ld(), beta, ref_plain.data(), ref_plain.ld());
    } else {
      blas::dgemm(Trans::no, Trans::no, n, n, n, alpha, a.data(), a.ld(),
                  b.data(), b.ld(), beta, ref_plain.data(), ref_plain.ld());
    }
  }

  serve::GemmRequestT<T> request(MatrixT<T>& c,
                                 bool prefer_parallel = true) const {
    serve::GemmRequestT<T> req;
    req.m = n;
    req.n = n;
    req.k = n;
    req.alpha = alpha;
    req.a = a.data();
    req.lda = a.ld();
    req.b = b.data();
    req.ldb = b.ld();
    req.beta = beta;
    req.c = c.data();
    req.ldc = c.ld();
    req.cutoff = cut();
    req.prefer_parallel = prefer_parallel;
    return req;
  }

  MatrixT<T> fresh_c() const {
    MatrixT<T> c(n, n);
    copy(c0.view(), c.view());
    return c;
  }

  // Exact workspace the serving queue prices for the DAG path of this shape.
  std::size_t dag_need() const {
    parallel::ParallelGefmmConfigT<T> cfg;
    cfg.cutoff = cut();
    return static_cast<std::size_t>(
        parallel::plan_dag<T>(n, n, n, cfg).workspace);
  }

  // The larger of the DAG and serial-driver pricings: a budget of this size
  // admits this shape on either execution path.
  std::size_t any_path_need() const {
    core::GefmmConfigT<T> cfg;
    cfg.cutoff = cut();
    count_t serial_need;
    if constexpr (std::is_same_v<T, float>) {
      serial_need = core::sgefmm_workspace_floats(n, n, n, beta, cfg);
    } else {
      serial_need = core::dgefmm_workspace_doubles(n, n, n, beta, cfg);
    }
    return std::max(dag_need(), static_cast<std::size_t>(serial_need));
  }
};

template <class T>
double degraded_tolerance() {
  // The degradation path is a plain GEMM while the reference below may be
  // the Strassen path; the gap is bounded by the forward-error bound at
  // these tiny forced-recursion shapes.
  return std::is_same_v<T, float> ? 5e-2 : 1e-8;
}

// --- policy / options plumbing ---------------------------------------------

TEST(ServeOptions, ParseOverflowPolicy) {
  serve::OverflowPolicy p = serve::OverflowPolicy::block;
  EXPECT_TRUE(serve::parse_overflow_policy("reject", p));
  EXPECT_EQ(p, serve::OverflowPolicy::reject);
  EXPECT_TRUE(serve::parse_overflow_policy("shed", p));
  EXPECT_EQ(p, serve::OverflowPolicy::shed);
  EXPECT_TRUE(serve::parse_overflow_policy("block", p));
  EXPECT_EQ(p, serve::OverflowPolicy::block);
  p = serve::OverflowPolicy::shed;
  EXPECT_FALSE(serve::parse_overflow_policy(nullptr, p));
  EXPECT_FALSE(serve::parse_overflow_policy("", p));
  EXPECT_FALSE(serve::parse_overflow_policy("Block", p));
  EXPECT_EQ(p, serve::OverflowPolicy::shed) << "failed parse must not write";
  EXPECT_STREQ(serve::overflow_policy_name(serve::OverflowPolicy::shed),
               "shed");
}

TEST(ServeOptions, ClampedAtConstruction) {
  serve::ServeOptions opt;
  opt.queue_cap = 0;
  opt.workers = 0;
  opt.latency_reservoir = 1;
  serve::Queue q(opt);
  EXPECT_GE(q.options().queue_cap, 1u);
  EXPECT_GE(q.options().workers, 1);
  EXPECT_GE(q.options().latency_reservoir, 16u);
}

// --- single-request lifecycle ----------------------------------------------

template <class T>
void completes_both_paths() {
  serve::QueueT<T> q;
  {
    // Forced-recursion shape: the DAG driver runs and its result is
    // bitwise identical to calling the parallel driver directly.
    Problem<T> p(96, 101);
    MatrixT<T> c = p.fresh_c();
    serve::TicketT<T> t = q.submit(p.request(c));
    ASSERT_TRUE(t.valid());
    EXPECT_EQ(t.wait(), 0);
    EXPECT_TRUE(t.done());
    EXPECT_EQ(t.status(), serve::RequestStatus::completed);
    EXPECT_FALSE(t.degraded());
    EXPECT_TRUE(bitwise_equal(c, p.ref_dag));
    EXPECT_GT(t.stats().dag_nodes, 0u) << "the DAG path must have run";
    EXPECT_GE(t.latency_ms(), 0.0);
    EXPECT_NO_THROW(t.get());
  }
  {
    // Below-cutoff shape: the serial driver runs even with prefer_parallel.
    Problem<T> p(16, 102);
    MatrixT<T> c = p.fresh_c();
    serve::TicketT<T> t = q.submit(p.request(c));
    EXPECT_EQ(t.wait(), 0);
    EXPECT_EQ(t.stats().dag_nodes, 0u);
    EXPECT_TRUE(bitwise_equal(c, p.ref_serial));
  }
  {
    // prefer_parallel = false pins the serial driver on a recursing shape.
    Problem<T> p(64, 103);
    MatrixT<T> c = p.fresh_c();
    serve::TicketT<T> t = q.submit(p.request(c, /*prefer_parallel=*/false));
    EXPECT_EQ(t.wait(), 0);
    EXPECT_TRUE(bitwise_equal(c, p.ref_serial));
  }
  const serve::ServingStats s = q.stats();
  EXPECT_EQ(s.submitted, 3u);
  EXPECT_EQ(s.completed, 3u);
  EXPECT_EQ(s.failed + s.rejected + s.expired + s.canceled + s.shed, 0u);
  EXPECT_GT(s.latency_samples, 0u);
  EXPECT_LE(s.p50_ms, s.p99_ms);
  EXPECT_LE(s.p99_ms, s.max_ms);
  EXPECT_GT(s.gefmm.dag_nodes, 0u) << "driver stats must merge into serving";
}

TEST(Serve, CompletesBothPathsDouble) { completes_both_paths<double>(); }
TEST(Serve, CompletesBothPathsFloat) { completes_both_paths<float>(); }

TEST(Serve, BadArgumentCompletesFailed) {
  serve::Queue q;
  Problem<double> p(32, 104);
  MatrixT<double> c = p.fresh_c();
  serve::GemmRequest req = p.request(c);
  req.lda = 1;  // m = 32 rows of op(A): XERBLA index 8
  serve::Ticket t = q.submit(req);
  EXPECT_EQ(t.wait(), 8);
  EXPECT_EQ(t.status(), serve::RequestStatus::failed);
  EXPECT_TRUE(bitwise_equal(c, p.c0)) << "bad arguments must not touch C";
  EXPECT_THROW(t.get(), Error);
  EXPECT_EQ(q.stats().failed, 1u);
}

// --- the serving route --------------------------------------------------------

// Which schedule a request's resolved route runs, and so how it is priced.
enum class Runs { gemm, dag, serial };

// One row of the route table: the policy installed (if any), the request's
// knobs, and what must run.
struct RouteCase {
  const char* name;
  bool policy;             // install a policy stamped with the active kernel
  int policy_threads;      // its budget stamp (kRouteBudget: a hit)
  double tau_dag;          // its DAG crossover (0: never the DAG)
  bool prefer_parallel;
  bool paper_cutoff;       // an explicit paper_default(rs6000) request
  index_t n;
  Runs runs;
  const char* tuned_path;  // stats().tuned_path (null: not the tuned route)
};

// The GEMM thread budget every route case submits under; the policies that
// should hit are stamped with it.
constexpr int kRouteBudget = 4;

constexpr RouteCase kRouteCases[] = {
    {"no policy: one pooled GEMM", false, 0, 0, true, false, 64, Runs::gemm,
     "gemm"},
    {"DAG policy under this budget", true, kRouteBudget, 40, true, false, 64,
     Runs::dag, "dag"},
    {"fused-l1 policy", true, kRouteBudget, 0, true, false, 64, Runs::serial,
     "fused-l1"},
    {"policy stamped with another budget", true, kRouteBudget - 1, 40, true,
     false, 64, Runs::gemm, "gemm"},
    {"prefer_parallel = false never takes the DAG", true, kRouteBudget, 40,
     false, false, 64, Runs::serial, "fused-l1"},
    {"explicit paper cutoff keeps the DAG", false, 0, 0, true, true, 256,
     Runs::dag, nullptr},
};

// A policy whose fused crossover sits below every route case, with eq.-15
// cutoffs small enough that the Strassen routes really recurse at n = 64.
template <class T>
core::TunedPolicy route_policy(const RouteCase& rc) {
  core::TunedPolicy p;
  std::snprintf(p.kernel, sizeof p.kernel, "%s",
                blas::active_kernel_t<T>().name);
  p.threads = rc.policy_threads;
  p.tau_fused = 32;
  p.tau_dag = rc.tau_dag;
  p.beta_zero = core::CutoffCriterion::hybrid(16, 8, 8, 8);
  p.general = p.beta_zero;
  return p;
}

// The synchronous C ABI: the one tuned route of the calling thread.
template <class T>
int cabi_gefmm(index_t n, T alpha, const MatrixT<T>& a, const MatrixT<T>& b,
               T beta, MatrixT<T>& c) {
  if constexpr (std::is_same_v<T, float>) {
    return strassen_sgefmm('N', 'N', n, n, n, alpha, a.data(), a.ld(),
                           b.data(), b.ld(), beta, c.data(), c.ld());
  } else {
    return strassen_dgefmm('N', 'N', n, n, n, alpha, a.data(), a.ld(),
                           b.data(), b.ld(), beta, c.data(), c.ld());
  }
}

template <class T>
int parallel_gefmm(index_t n, T alpha, const MatrixT<T>& a,
                   const MatrixT<T>& b, T beta, MatrixT<T>& c,
                   const parallel::ParallelGefmmConfigT<T>& cfg) {
  if constexpr (std::is_same_v<T, float>) {
    return parallel::sgefmm_parallel(Trans::no, Trans::no, n, n, n, alpha,
                                     a.data(), a.ld(), b.data(), b.ld(), beta,
                                     c.data(), c.ld(), cfg);
  } else {
    return parallel::dgefmm_parallel(Trans::no, Trans::no, n, n, n, alpha,
                                     a.data(), a.ld(), b.data(), b.ld(), beta,
                                     c.data(), c.ld(), cfg);
  }
}

// Each case prices the request at exactly its route's predictor (the lease
// peak of a lone request on a fresh queue), runs that route, and leaves C
// bitwise equal to the direct entry that takes the same route.
template <class T>
void serving_route_table() {
  for (const RouteCase& rc : kRouteCases) {
    SCOPED_TRACE(rc.name);
    core::clear_tuned_policy<T>();
    const core::TunedPolicy policy = route_policy<T>(rc);
    if (rc.policy) core::install_tuned_policy<T>(policy);
    const blas::ScopedGemmThreads budget(kRouteBudget);
    const index_t n = rc.n;
    const T alpha = T(1.25);
    const T beta = T(-0.5);
    Rng rng(501);
    const MatrixT<T> a = random_square<T>(n, rng);
    const MatrixT<T> b = random_square<T>(n, rng);
    const MatrixT<T> c0 = random_square<T>(n, rng);
    const core::CutoffCriterion paper =
        core::CutoffCriterion::paper_default(blas::Machine::rs6000);

    // The route's own predictor, and the direct entry that runs it.
    std::size_t need = 0;
    MatrixT<T> want(n, n);
    copy(c0.view(), want.view());
    if (rc.runs == Runs::dag) {
      parallel::ParallelGefmmConfigT<T> cfg;
      if (rc.paper_cutoff) {
        cfg.cutoff = paper;
      } else {
        cfg.cutoff = policy.select(static_cast<double>(beta));
        cfg.scheme = core::Scheme::fused;
      }
      need = static_cast<std::size_t>(
          parallel::plan_dag<T>(n, n, n, cfg).workspace);
      if (!rc.paper_cutoff) {
        cfg = parallel::ParallelGefmmConfigT<T>{};
        cfg.cutoff = core::CutoffCriterion::tuned();
      }
      ASSERT_EQ(parallel_gefmm<T>(n, alpha, a, b, beta, want, cfg), 0);
    } else {
      if (rc.runs == Runs::serial) {
        core::GefmmConfigT<T> cfg;
        cfg.cutoff = policy.select(static_cast<double>(beta));
        cfg.scheme = core::Scheme::fused;
        cfg.fused_levels = 1;
        if constexpr (std::is_same_v<T, float>) {
          need = static_cast<std::size_t>(
              core::workspace_floats(n, n, n, beta, cfg));
        } else {
          need = static_cast<std::size_t>(
              core::workspace_doubles(n, n, n, beta, cfg));
        }
        ASSERT_GT(need, 0u);
      }
      ASSERT_EQ(cabi_gefmm<T>(n, alpha, a, b, beta, want), 0);
    }

    serve::QueueT<T> q;
    MatrixT<T> c(n, n);
    copy(c0.view(), c.view());
    serve::GemmRequestT<T> req;
    req.m = req.n = req.k = n;
    req.alpha = alpha;
    req.a = a.data();
    req.lda = a.ld();
    req.b = b.data();
    req.ldb = b.ld();
    req.beta = beta;
    req.c = c.data();
    req.ldc = c.ld();
    req.prefer_parallel = rc.prefer_parallel;
    if (rc.paper_cutoff) req.cutoff = paper;
    serve::TicketT<T> t = q.submit(req);
    ASSERT_EQ(t.wait(), 0);
    const core::DgefmmStats st = t.stats();
    EXPECT_EQ(st.dag_nodes > 0, rc.runs == Runs::dag);
    EXPECT_EQ(st.strassen_levels > 0, rc.runs != Runs::gemm);
    EXPECT_EQ(st.tuned_path == nullptr ? std::string("(none)")
                                       : std::string(st.tuned_path),
              rc.tuned_path == nullptr ? std::string("(none)")
                                       : std::string(rc.tuned_path));
    EXPECT_EQ(q.stats().pool_peak, need) << "the lease is the route's price";
    EXPECT_TRUE(bitwise_equal(c, want));

    if (need > 0) {
      // One element short of the price: admission must refuse it.
      serve::ServeOptions tight;
      tight.policy = serve::OverflowPolicy::reject;
      tight.budget_elements = need - 1;
      serve::QueueT<T> tq(tight);
      MatrixT<T> ct(n, n);
      copy(c0.view(), ct.view());
      req.c = ct.data();
      serve::TicketT<T> tt = tq.submit(req);
      EXPECT_EQ(tt.wait(), STRASSEN_INFO_REJECTED);
    }
    core::clear_tuned_policy<T>();
  }
}

TEST(ServeRoute, TableDouble) { serving_route_table<double>(); }
TEST(ServeRoute, TableFloat) { serving_route_table<float>(); }

// --- admission control against the exact budget ----------------------------

TEST(Serve, InfeasibleNeedIsRejected) {
  Problem<double> p(96, 105);
  serve::ServeOptions opt;
  opt.budget_elements = 64;  // far below the DAG (or serial) need for n=96
  serve::Queue q(opt);
  MatrixT<double> c = p.fresh_c();
  serve::Ticket t = q.submit(p.request(c));
  EXPECT_EQ(t.wait(), STRASSEN_INFO_REJECTED);
  EXPECT_EQ(t.status(), serve::RequestStatus::rejected);
  EXPECT_TRUE(bitwise_equal(c, p.c0)) << "rejected requests leave C alone";
  EXPECT_THROW(t.get(), AdmissionError);
  const serve::ServingStats s = q.stats();
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.admitted, 0u);
  EXPECT_EQ(s.pool_peak, 0u);
}

TEST(Serve, InfeasibleNeedShedsUnderShedPolicy) {
  Problem<double> p(96, 106);
  serve::ServeOptions opt;
  opt.budget_elements = 64;
  opt.policy = serve::OverflowPolicy::shed;
  serve::Queue q(opt);
  MatrixT<double> c = p.fresh_c();
  serve::Ticket t = q.submit(p.request(c));
  EXPECT_TRUE(t.done()) << "an inline shed finishes during submit()";
  EXPECT_EQ(t.wait(), 0);
  EXPECT_TRUE(t.degraded());
  EXPECT_TRUE(bitwise_equal(c, p.ref_plain))
      << "the shed path is the workspace-free serial GEMM";
  const serve::ServingStats s = q.stats();
  EXPECT_EQ(s.shed, 1u);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.pool_peak, 0u) << "sheds must not touch the pool";
}

TEST(Serve, ExactNeedSerializesOnTheBudget) {
  Problem<double> p(96, 107);
  const std::size_t need = p.dag_need();
  ASSERT_GT(need, 0u);
  serve::ServeOptions opt;
  opt.budget_elements = need;  // exactly one admitted run at a time
  opt.workers = 2;
  serve::Queue q(opt);
  std::vector<MatrixT<double>> cs;
  std::vector<serve::Ticket> ts;
  for (int i = 0; i < 4; ++i) cs.push_back(p.fresh_c());
  for (int i = 0; i < 4; ++i) ts.push_back(q.submit(p.request(cs[i])));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ts[i].wait(), 0) << "request " << i;
    EXPECT_TRUE(bitwise_equal(cs[i], p.ref_dag)) << "request " << i;
  }
  const serve::ServingStats s = q.stats();
  EXPECT_EQ(s.completed, 4u);
  EXPECT_EQ(s.shed, 0u);
  EXPECT_LE(s.pool_peak, need) << "the pool invariant is the budget";
  EXPECT_EQ(s.pool_peak, need) << "carves are exactly the priced need";
}

// --- bounded queue backpressure --------------------------------------------

// Fills the single worker with a long DAG request t1 and the one queue slot
// with t2, then submits t3 against the full queue and hands it to `check`.
// The slot empties only once the worker has finished t1 (tens of
// milliseconds), and the queue depth is read right before t3 goes in: a
// submitter descheduled for that long is caught there and the setup is
// rebuilt, so t3 always meets a full queue.
template <class Policy>
void with_full_queue(serve::OverflowPolicy policy, Policy&& check) {
  Problem<double> big(512, 108);
  Problem<double> small(32, 109);
  serve::ServeOptions opt;
  opt.queue_cap = 1;
  opt.workers = 1;
  opt.policy = policy;
  for (int attempt = 0;; ++attempt) {
    ASSERT_LT(attempt, 8) << "the worker emptied the slot on every attempt";
    serve::Queue q(opt);

    MatrixT<double> c1 = big.fresh_c();
    serve::Ticket t1 = q.submit(big.request(c1));
    // Wait until the worker picked it up so the queue slot is truly free.
    while (q.stats().queue_depth != 0) std::this_thread::yield();

    MatrixT<double> c2 = small.fresh_c();
    serve::Ticket t2 = q.submit(small.request(c2));  // occupies the one slot

    MatrixT<double> c3 = small.fresh_c();
    const serve::GemmRequest r3 = small.request(c3);
    const bool full = q.stats().queue_depth == 1;
    if (full) {
      serve::Ticket t3 = q.submit(r3);
      check(q, small, c3, t3);
    }

    EXPECT_EQ(t1.wait(), 0);
    EXPECT_TRUE(bitwise_equal(c1, big.ref_dag));
    EXPECT_EQ(t2.wait(), 0);
    EXPECT_TRUE(bitwise_equal(c2, small.ref_dag));
    if (full) return;
  }
}

TEST(Serve, RejectPolicyOnFullQueue) {
  with_full_queue(
      serve::OverflowPolicy::reject,
      [](serve::Queue& q, Problem<double>& small, MatrixT<double>& c3,
         serve::Ticket& t3) {
        EXPECT_EQ(t3.wait(), STRASSEN_INFO_REJECTED);
        EXPECT_EQ(t3.status(), serve::RequestStatus::rejected);
        EXPECT_TRUE(bitwise_equal(c3, small.c0));
        EXPECT_GE(q.stats().rejected, 1u);
      });
}

TEST(Serve, ShedPolicyOnFullQueue) {
  with_full_queue(
      serve::OverflowPolicy::shed,
      [](serve::Queue& q, Problem<double>& small, MatrixT<double>& c3,
         serve::Ticket& t3) {
        EXPECT_TRUE(t3.done()) << "sheds complete inline on the submitter";
        EXPECT_EQ(t3.wait(), 0);
        EXPECT_TRUE(t3.degraded());
        EXPECT_TRUE(bitwise_equal(c3, small.ref_plain));
        EXPECT_GE(q.stats().shed, 1u);
      });
}

TEST(Serve, BlockPolicyBoundsTheQueue) {
  Problem<double> p(48, 110);
  serve::ServeOptions opt;
  opt.queue_cap = 2;
  opt.workers = 1;
  opt.policy = serve::OverflowPolicy::block;
  serve::Queue q(opt);
  std::vector<MatrixT<double>> cs;
  std::vector<serve::Ticket> ts;
  for (int i = 0; i < 8; ++i) cs.push_back(p.fresh_c());
  for (int i = 0; i < 8; ++i) ts.push_back(q.submit(p.request(cs[i])));
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(ts[i].wait(), 0) << "request " << i;
    EXPECT_TRUE(bitwise_equal(cs[i], p.ref_dag)) << "request " << i;
  }
  const serve::ServingStats s = q.stats();
  EXPECT_EQ(s.completed, 8u);
  EXPECT_EQ(s.rejected + s.shed, 0u) << "block policy never refuses";
  EXPECT_LE(s.peak_queue_depth, 2u) << "submit must block at the cap";
}

// --- deadlines and cancellation --------------------------------------------

TEST(Serve, ExpiredDeadlineCompletesExceptionally) {
  serve::Queue q;
  Problem<double> p(48, 111);
  MatrixT<double> c = p.fresh_c();
  serve::GemmRequest req = p.request(c);
  req.deadline = serve::Clock::now() - std::chrono::milliseconds(1);
  serve::Ticket t = q.submit(req);
  EXPECT_EQ(t.wait(), STRASSEN_INFO_EXPIRED);
  EXPECT_EQ(t.status(), serve::RequestStatus::expired);
  EXPECT_TRUE(bitwise_equal(c, p.c0)) << "expired requests leave C alone";
  EXPECT_THROW(t.get(), DeadlineError);
  EXPECT_EQ(q.stats().expired, 1u);
}

TEST(Serve, FutureDeadlineDoesNotFire) {
  serve::Queue q;
  Problem<double> p(48, 112);
  MatrixT<double> c = p.fresh_c();
  serve::GemmRequest req = p.request(c);
  req.deadline = serve::Clock::now() + std::chrono::minutes(10);
  serve::Ticket t = q.submit(req);
  EXPECT_EQ(t.wait(), 0);
  EXPECT_TRUE(bitwise_equal(c, p.ref_dag));
}

TEST(Serve, CancelWhileQueued) {
  Problem<double> big(192, 113);
  Problem<double> small(32, 114);
  serve::ServeOptions opt;
  opt.workers = 1;
  serve::Queue q(opt);
  MatrixT<double> c1 = big.fresh_c();
  serve::Ticket t1 = q.submit(big.request(c1));
  MatrixT<double> c2 = small.fresh_c();
  serve::Ticket t2 = q.submit(small.request(c2));
  t2.cancel();
  const int info = t2.wait();
  if (info == 0) {
    // The worker outran the cancel; the contract is "canceled only while C
    // is untouched", so a completed result must be the real product.
    EXPECT_TRUE(bitwise_equal(c2, small.ref_dag));
  } else {
    EXPECT_EQ(info, STRASSEN_INFO_CANCELED);
    EXPECT_EQ(t2.status(), serve::RequestStatus::canceled);
    EXPECT_TRUE(bitwise_equal(c2, small.c0));
    EXPECT_THROW(t2.get(), CanceledError);
  }
  EXPECT_EQ(t1.wait(), 0);
  EXPECT_TRUE(bitwise_equal(c1, big.ref_dag));
}

TEST(Serve, CancelWhileRunningHonorsTheCombineRace) {
  Problem<double> p(128, 115);
  serve::ServeOptions opt;
  opt.workers = 1;
  serve::Queue q(opt);
  MatrixT<double> c = p.fresh_c();
  serve::Ticket t = q.submit(p.request(c));
  while (!t.done() && t.status() != serve::RequestStatus::running) {
    std::this_thread::yield();
  }
  t.cancel();
  const int info = t.wait();
  if (info == STRASSEN_INFO_CANCELED) {
    EXPECT_TRUE(bitwise_equal(c, p.c0))
        << "a honored cancel must leave C bit-identical";
  } else {
    EXPECT_EQ(info, 0) << "a cancel that lost the race completes normally";
    EXPECT_TRUE(bitwise_equal(c, p.ref_dag));
  }
}

// --- fault injection through the queue -> DAG -> combine chain -------------

template <class T>
void pool_task_fault(core::FailurePolicy policy) {
  Problem<T> p(96, 116);
  serve::ServeOptions opt;
  opt.workers = 1;
  serve::QueueT<T> q(opt);
  MatrixT<T> c = p.fresh_c();
  serve::GemmRequestT<T> req = p.request(c);
  req.on_failure = policy;
  const long before = fi::injected_total();
  fi::arm(1, fi::Site::pool_task);
  serve::TicketT<T> t = q.submit(req);
  const int info = t.wait();
  fi::disarm();
  ASSERT_GT(fi::injected_total(), before)
      << "the admitted DAG run must pass through the thread pool";
  if (policy == core::FailurePolicy::strict) {
    EXPECT_EQ(t.status(), serve::RequestStatus::failed);
    EXPECT_LT(info, 0) << "strict surfaces the typed error";
    EXPECT_TRUE(bitwise_equal(c, p.c0))
        << "strict failures must leave C bit-identical";
    EXPECT_EQ(q.stats().failed, 1u);
  } else {
    EXPECT_EQ(info, 0);
    EXPECT_TRUE(t.degraded()) << "the in-run fallback is a recorded shed";
    EXPECT_LT(max_abs_diff(c.view(), p.ref_plain.view()),
              degraded_tolerance<T>());
    EXPECT_GE(q.stats().shed, 1u);
  }
}

TEST(ServeFaults, PoolTaskStrictDouble) {
  pool_task_fault<double>(core::FailurePolicy::strict);
}
TEST(ServeFaults, PoolTaskFallbackDouble) {
  pool_task_fault<double>(core::FailurePolicy::fallback);
}
TEST(ServeFaults, PoolTaskStrictFloat) {
  pool_task_fault<float>(core::FailurePolicy::strict);
}
TEST(ServeFaults, PoolTaskFallbackFloat) {
  pool_task_fault<float>(core::FailurePolicy::fallback);
}

// --- shutdown semantics -----------------------------------------------------

TEST(Serve, ShutdownDrainsAndRefusesNewWork) {
  Problem<double> p(48, 117);
  serve::ServeOptions opt;
  opt.workers = 1;
  serve::Queue q(opt);
  std::vector<MatrixT<double>> cs;
  std::vector<serve::Ticket> ts;
  for (int i = 0; i < 5; ++i) cs.push_back(p.fresh_c());
  for (int i = 0; i < 5; ++i) ts.push_back(q.submit(p.request(cs[i])));
  q.shutdown();
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(ts[i].done()) << "shutdown must drain accepted requests";
    EXPECT_EQ(ts[i].wait(), 0);
    EXPECT_TRUE(bitwise_equal(cs[i], p.ref_dag));
  }
  MatrixT<double> late = p.fresh_c();
  serve::Ticket t = q.submit(p.request(late));
  EXPECT_EQ(t.wait(), STRASSEN_INFO_REJECTED);
  EXPECT_TRUE(bitwise_equal(late, p.c0));
  q.shutdown();  // idempotent
}

// --- concurrent mixed-shape soak (tsan target) ------------------------------

// Submits bursts of mixed-shape requests from several threads per element
// type against one queue, with a sprinkling of pre-expired deadlines and
// immediate cancels, then verifies every terminal outcome against the
// matching bitwise reference. Run at several workspace budgets: unlimited,
// exactly one largest-shape run, and a tiny budget under the shed policy.
template <class T>
struct SoakOutcome {
  count_t completed = 0;
  count_t degraded = 0;
  count_t expired = 0;
  count_t canceled = 0;
  count_t failures = 0;  // verification failures, not request failures
};

template <class T>
SoakOutcome<T> soak_type(serve::QueueT<T>& q,
                         const std::vector<Problem<T>>& problems,
                         int submitters, int rounds, int burst) {
  std::vector<SoakOutcome<T>> per_thread(
      static_cast<std::size_t>(submitters));
  std::vector<std::thread> threads;
  for (int s = 0; s < submitters; ++s) {
    threads.emplace_back([&, s] {
      SoakOutcome<T>& out = per_thread[static_cast<std::size_t>(s)];
      for (int r = 0; r < rounds; ++r) {
        std::vector<MatrixT<T>> cs;
        std::vector<serve::TicketT<T>> ts;
        std::vector<const Problem<T>*> ps;
        std::vector<bool> pre_expired, try_cancel, serial_path;
        for (int j = 0; j < burst; ++j) {
          const int seq = (s * rounds + r) * burst + j;
          const Problem<T>& p =
              problems[static_cast<std::size_t>(seq) % problems.size()];
          cs.push_back(p.fresh_c());
          ps.push_back(&p);
          serve::GemmRequestT<T> req = p.request(cs.back());
          // The pre-expired subset lands on the workspace-free shape so it
          // is queueable (never shed inline) under every budget config.
          const bool expire = seq % 8 == 4;
          const bool cancel = seq % 16 == 2;
          const bool serial = seq % 4 == 3;
          req.prefer_parallel = !serial;
          if (expire) {
            req.deadline = serve::Clock::now() - std::chrono::milliseconds(1);
          }
          pre_expired.push_back(expire);
          try_cancel.push_back(cancel);
          serial_path.push_back(serial);
          ts.push_back(q.submit(req));
          if (cancel) ts.back().cancel();
        }
        for (int j = 0; j < burst; ++j) {
          const Problem<T>& p = *ps[static_cast<std::size_t>(j)];
          MatrixT<T>& c = cs[static_cast<std::size_t>(j)];
          const int info = ts[static_cast<std::size_t>(j)].wait();
          const bool degraded = ts[static_cast<std::size_t>(j)].degraded();
          bool ok = true;
          if (info == 0) {
            ++out.completed;
            if (degraded) {
              ++out.degraded;
              ok = max_abs_diff(c.view(), p.ref_plain.view()) <
                   degraded_tolerance<T>();
            } else {
              // The recursing DAG path and the serial driver are each
              // bitwise deterministic; pick the reference by the path the
              // request was pinned to.
              const bool dag = !serial_path[static_cast<std::size_t>(j)] &&
                               p.n > 24;
              ok = bitwise_equal(c, dag ? p.ref_dag : p.ref_serial);
            }
          } else if (info == STRASSEN_INFO_EXPIRED) {
            ++out.expired;
            ok = pre_expired[static_cast<std::size_t>(j)] &&
                 bitwise_equal(c, p.c0);
          } else if (info == STRASSEN_INFO_CANCELED) {
            ++out.canceled;
            ok = try_cancel[static_cast<std::size_t>(j)] &&
                 bitwise_equal(c, p.c0);
          } else {
            ok = false;  // no rejects/failures expected in the soak configs
          }
          if (!ok) ++out.failures;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  SoakOutcome<T> total;
  for (const SoakOutcome<T>& o : per_thread) {
    total.completed += o.completed;
    total.degraded += o.degraded;
    total.expired += o.expired;
    total.canceled += o.canceled;
    total.failures += o.failures;
  }
  return total;
}

void run_soak(std::size_t budget_d, std::size_t budget_f,
              serve::OverflowPolicy policy, int rounds, int burst) {
  std::vector<Problem<double>> pd;
  pd.emplace_back(17, 201);
  pd.emplace_back(32, 202);
  pd.emplace_back(48, 203);
  pd.emplace_back(64, 204);
  std::vector<Problem<float>> pf;
  pf.emplace_back(17, 211);
  pf.emplace_back(32, 212);
  pf.emplace_back(48, 213);
  pf.emplace_back(64, 214);

  serve::ServeOptions od;
  od.queue_cap = 16;
  od.workers = 3;
  od.policy = policy;
  od.budget_elements = budget_d;
  serve::ServeOptions of = od;
  of.budget_elements = budget_f;
  serve::Queue qd(od);
  serve::QueueF qf(of);

  constexpr int kSubmitters = 3;
  SoakOutcome<double> rd;
  SoakOutcome<float> rf;
  {
    // Both element types in flight at once, from concurrent submitters.
    std::thread float_side([&] {
      rf = soak_type<float>(qf, pf, kSubmitters, rounds, burst);
    });
    rd = soak_type<double>(qd, pd, kSubmitters, rounds, burst);
    float_side.join();
  }

  const count_t per_type =
      static_cast<count_t>(kSubmitters) * static_cast<count_t>(rounds) *
      static_cast<count_t>(burst);
  EXPECT_EQ(rd.failures, 0u);
  EXPECT_EQ(rf.failures, 0u);
  EXPECT_EQ(rd.completed + rd.expired + rd.canceled, per_type);
  EXPECT_EQ(rf.completed + rf.expired + rf.canceled, per_type);
  EXPECT_GT(rd.expired, 0u) << "the pre-expired subset must expire";
  EXPECT_GT(rf.expired, 0u);

  const serve::ServingStats sd = qd.stats();
  const serve::ServingStats sf = qf.stats();
  EXPECT_EQ(sd.submitted, per_type);
  EXPECT_EQ(sf.submitted, per_type);
  EXPECT_EQ(sd.completed + sd.rejected + sd.expired + sd.canceled + sd.failed,
            per_type)
      << "every submission must reach exactly one terminal state";
  EXPECT_EQ(sf.completed + sf.rejected + sf.expired + sf.canceled + sf.failed,
            per_type);
  EXPECT_EQ(sd.failed, 0u);
  EXPECT_EQ(sf.failed, 0u);
  if (budget_d > 0) {
    EXPECT_LE(sd.pool_peak, budget_d)
        << "the double pool must never exceed its budget";
  }
  if (budget_f > 0) {
    EXPECT_LE(sf.pool_peak, budget_f)
        << "the float pool must never exceed its budget";
  }
}

TEST(ServeSoak, UnlimitedBudget) {
  run_soak(0, 0, serve::OverflowPolicy::block, /*rounds=*/10, /*burst=*/8);
}

TEST(ServeSoak, TightBudgetSerializesWithoutDeadlock) {
  // Exactly one largest-shape run fits at a time: workers contend on the
  // pool and must hand leases over without deadlock or budget overshoot.
  Problem<double> big_d(64, 301);
  Problem<float> big_f(64, 302);
  run_soak(big_d.any_path_need(), big_f.any_path_need(),
           serve::OverflowPolicy::block, /*rounds=*/8, /*burst=*/8);
}

TEST(ServeSoak, TinyBudgetShedsEverythingThatRecurses) {
  // Requests that cannot ever fit degrade inline under the shed policy; the
  // workspace-free serial shapes still complete normally.
  run_soak(16, 16, serve::OverflowPolicy::shed, /*rounds=*/8, /*burst=*/8);
}

// --- the serving C ABI ------------------------------------------------------

TEST(ServeCAbi, SubmitWaitRoundtrip) {
  const index_t n = 40;
  Rng rng(401);
  Matrix a = random_matrix(n, n, rng);
  Matrix b = random_matrix(n, n, rng);
  Matrix c = random_matrix(n, n, rng);
  Matrix want(n, n);
  copy(c.view(), want.view());
  {
    blas::ScopedGemmThreads serial(1);
    blas::dgemm(Trans::no, Trans::no, n, n, n, 1.5, a.data(), a.ld(),
                b.data(), b.ld(), 0.25, want.data(), want.ld());
  }
  std::int64_t h = 0;
  ASSERT_EQ(strassen_dgefmm_submit('N', 'N', n, n, n, 1.5, a.data(), a.ld(),
                                   b.data(), b.ld(), 0.25, c.data(), c.ld(),
                                   /*deadline_ms=*/0, &h),
            0);
  EXPECT_GT(h, 0);
  EXPECT_EQ(strassen_dgefmm_wait(h), 0);
  EXPECT_LT(max_abs_diff(c.view(), want.view()), 1e-10);
  EXPECT_EQ(strassen_dgefmm_wait(h), STRASSEN_INFO_BAD_HANDLE)
      << "wait frees the handle";
}

// A default C-ABI submission takes the default serving route -- one pooled
// GEMM without a policy -- and matches the synchronous C ABI bitwise, at an
// order the paper's cutoff would have recursed on.
TEST(ServeCAbi, SubmitTakesTheDefaultRoute) {
  core::clear_tuned_policy<double>();
  const index_t n = 256;
  Rng rng(404);
  Matrix a = random_matrix(n, n, rng);
  Matrix b = random_matrix(n, n, rng);
  Matrix c = random_matrix(n, n, rng);
  Matrix want(n, n);
  copy(c.view(), want.view());
  ASSERT_EQ(strassen_dgefmm('N', 'N', n, n, n, 0.75, a.data(), a.ld(),
                            b.data(), b.ld(), 1.5, want.data(), want.ld()),
            0);
  std::int64_t h = 0;
  ASSERT_EQ(strassen_dgefmm_submit('N', 'N', n, n, n, 0.75, a.data(), a.ld(),
                                   b.data(), b.ld(), 1.5, c.data(), c.ld(),
                                   /*deadline_ms=*/0, &h),
            0);
  EXPECT_EQ(strassen_dgefmm_wait(h), 0);
  EXPECT_TRUE(bitwise_equal(c, want));
}

// A default skinny request forks its one GEMM across the pool by columns,
// with and without a prepacked B, and still matches the one-thread C ABI
// call bitwise. The submitter's budget keys the route, so the fan-out does
// not depend on the host's core count.
TEST(Serve, SkinnyDefaultRequestFansOutBitwise) {
  core::clear_tuned_policy<double>();
  const index_t m = 16, n = 512, k = 512;
  Rng rng(405);
  Matrix a = random_matrix(m, k, rng);
  Matrix b = random_matrix(k, n, rng);
  Matrix c0 = random_matrix(m, n, rng);
  Matrix want(m, n);
  copy(c0.view(), want.view());
  {
    blas::ScopedGemmThreads serial(1);
    ASSERT_EQ(strassen_dgefmm('N', 'N', m, n, k, 0.75, a.data(), a.ld(),
                              b.data(), b.ld(), 1.5, want.data(), want.ld()),
              0);
  }
  const blas::PackedOperand pb = blas::gefmm_pack_b<double>(b.view());
  blas::ScopedGemmThreads budget(4);
  serve::Queue q;
  for (const bool prepacked : {false, true}) {
    SCOPED_TRACE(prepacked ? "packed_b" : "fresh");
    Matrix c(m, n);
    copy(c0.view(), c.view());
    serve::GemmRequest req;
    req.m = m;
    req.n = n;
    req.k = k;
    req.alpha = 0.75;
    req.a = a.data();
    req.lda = a.ld();
    req.b = b.data();
    req.ldb = b.ld();
    req.beta = 1.5;
    req.c = c.data();
    req.ldc = c.ld();
    if (prepacked) req.packed_b = &pb;
    serve::Ticket t = q.submit(req);
    ASSERT_EQ(t.wait(), 0);
    EXPECT_GT(t.stats().gemm_threads, 1);
    EXPECT_EQ(t.stats().pack_hits > 0, prepacked);
    EXPECT_TRUE(bitwise_equal(c, want));
  }
}

TEST(ServeCAbi, FloatSubmitWaitRoundtrip) {
  const index_t n = 40;
  Rng rng(402);
  MatrixF a = random_matrix_f(n, n, rng);
  MatrixF b = random_matrix_f(n, n, rng);
  MatrixF c = random_matrix_f(n, n, rng);
  MatrixF want(n, n);
  copy(c.view(), want.view());
  {
    blas::ScopedGemmThreads serial(1);
    blas::sgemm(Trans::no, Trans::no, n, n, n, 1.5f, a.data(), a.ld(),
                b.data(), b.ld(), 0.25f, want.data(), want.ld());
  }
  std::int64_t h = 0;
  ASSERT_EQ(strassen_sgefmm_submit('N', 'N', n, n, n, 1.5f, a.data(), a.ld(),
                                   b.data(), b.ld(), 0.25f, c.data(), c.ld(),
                                   /*deadline_ms=*/0, &h),
            0);
  EXPECT_EQ(strassen_sgefmm_wait(h), 0);
  EXPECT_LT(max_abs_diff(c.view(), want.view()), 1e-3);
  EXPECT_EQ(strassen_sgefmm_cancel(h), STRASSEN_INFO_BAD_HANDLE);
}

TEST(ServeCAbi, ArgumentAndHandleErrors) {
  double x = 0.0;
  std::int64_t h = 0;
  EXPECT_EQ(strassen_dgefmm_submit('X', 'N', 1, 1, 1, 1.0, &x, 1, &x, 1, 0.0,
                                   &x, 1, 0, &h),
            1);
  EXPECT_EQ(strassen_dgefmm_submit('N', '?', 1, 1, 1, 1.0, &x, 1, &x, 1, 0.0,
                                   &x, 1, 0, &h),
            2);
  EXPECT_EQ(strassen_dgefmm_submit('N', 'N', 1, 1, 1, 1.0, &x, 1, &x, 1, 0.0,
                                   &x, 1, 0, nullptr),
            15);
  EXPECT_EQ(strassen_dgefmm_wait(424242), STRASSEN_INFO_BAD_HANDLE);
  EXPECT_EQ(strassen_dgefmm_cancel(424242), STRASSEN_INFO_BAD_HANDLE);
  // A bad BLAS dimension is an admission-validated outcome on the ticket,
  // not a submit failure.
  ASSERT_EQ(strassen_dgefmm_submit('N', 'N', -1, 1, 1, 1.0, &x, 1, &x, 1,
                                   0.0, &x, 1, 0, &h),
            0);
  EXPECT_EQ(strassen_dgefmm_wait(h), 3);
}

TEST(ServeCAbi, ShutdownInvalidatesHandlesAndRebuildsLazily) {
  const index_t n = 32;
  Rng rng(403);
  Matrix a = random_matrix(n, n, rng);
  Matrix b = random_matrix(n, n, rng);
  Matrix c = random_matrix(n, n, rng);
  std::int64_t h = 0;
  ASSERT_EQ(strassen_dgefmm_submit('N', 'N', n, n, n, 1.0, a.data(), a.ld(),
                                   b.data(), b.ld(), 0.0, c.data(), c.ld(),
                                   0, &h),
            0);
  strassen_serve_shutdown();  // drains: the request finished before this
  EXPECT_EQ(strassen_dgefmm_wait(h), STRASSEN_INFO_BAD_HANDLE)
      << "shutdown invalidates unwaited handles";
  // The next submit lazily rebuilds the process queue.
  ASSERT_EQ(strassen_dgefmm_submit('N', 'N', n, n, n, 1.0, a.data(), a.ld(),
                                   b.data(), b.ld(), 0.0, c.data(), c.ld(),
                                   0, &h),
            0);
  EXPECT_EQ(strassen_dgefmm_wait(h), 0);
  strassen_serve_shutdown();
}

}  // namespace
}  // namespace strassen
