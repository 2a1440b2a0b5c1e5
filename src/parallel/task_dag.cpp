#include "parallel/task_dag.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "blas/packed_loop.hpp"
#include "core/add_kernels.hpp"
#include "core/peeling.hpp"
#include "core/winograd.hpp"
#include "core/winograd_fused.hpp"
#include "core/workspace.hpp"
#include "parallel/parallel_strassen.hpp"
#include "support/errors.hpp"
#include "support/faultinject.hpp"
#include "support/matrix.hpp"
#include "support/thread_pool.hpp"
#include "verify/schedule_dag.hpp"

namespace strassen::parallel {

namespace {

// The one graph shape: one Winograd level, 7 product nodes feeding 4
// combine nodes over the 2x2 quadrant grid.
constexpr int kProducts = verify::kFusedL1Products;
constexpr int kCombines = 4;

// Cancellation decision states: the run transitions kUndecided ->
// {kCommitted, kCanceled} exactly once (see enter_node below).
enum : int { kUndecided = 0, kCommitted = 1, kCanceled = 2 };

// State every DAG node shares; lives on run_task_dag's stack.
template <class T>
struct Shared {
  const core::GefmmConfigT<T>* child = nullptr;
  ArenaT<T>* lane_arenas = nullptr;         // [lanes]
  core::DgefmmStats* lane_stats = nullptr;  // [lanes]
  const BasicView<T>* products = nullptr;   // [NP] product temporaries
  T alpha = T(1);
  T beta = T(0);
  int leaf_gemm_threads = 1;
  const std::atomic<bool>* cancel = nullptr;  // request token (may be null)
  std::atomic<int> decision{kUndecided};      // single-transition commit
};

// Cooperative-cancellation gate, evaluated at every node boundary. The
// guarantee it provides: C is either untouched or fully written, never
// partial. All nodes race for one single-transition `decision` word --
// a node that observes the token set tries kUndecided -> kCanceled; a
// combine (the only node kind that writes C) must first secure
// kUndecided -> kCommitted. Whichever transition lands first is final:
//
//  * kCanceled landed: no combine can have committed, so no C write ever
//    happened; every node (product or combine) that reaches its boundary
//    afterwards throws CanceledError, the graph is abandoned, and the
//    driver rethrows with beta*C bit-identical.
//  * kCommitted landed: cancellation arrived too late; all remaining
//    nodes ignore the token and the multiplication completes normally.
//
// Returns normally when the node should run; throws CanceledError when the
// run is canceled.
template <class T>
void enter_node(Shared<T>& sh, bool writes_c) {
  if (sh.cancel == nullptr) return;
  int d = sh.decision.load(std::memory_order_acquire);
  if (d == kUndecided &&
      sh.cancel->load(std::memory_order_relaxed)) {  // relaxed: cancel-token
    int expected = kUndecided;
    sh.decision.compare_exchange_strong(expected, kCanceled,
                                        std::memory_order_acq_rel);
    d = sh.decision.load(std::memory_order_acquire);
  }
  if (writes_c && d == kUndecided) {
    int expected = kUndecided;
    if (sh.decision.compare_exchange_strong(expected, kCommitted,
                                            std::memory_order_acq_rel)) {
      d = kCommitted;
    } else {
      d = expected;  // the transition that beat us
    }
  }
  if (d == kCanceled) {
    throw CanceledError("request canceled at a task-DAG node boundary");
  }
}

// One product node: out <- alpha * (sum ga_i A_qi)(sum gb_j B_qj), as one
// fused packed-GEMM leaf (or an arena-backed classic recursion below the
// cutoff) drawing from the executing lane's worker-local sub-arena.
template <class T>
struct ProductTask {
  Shared<T>* sh = nullptr;
  core::detail::FusedOperandT<T> a, b;
  BasicView<T> out;
};

template <class T>
void product_body(void* arg, std::size_t lane) {
  auto* t = static_cast<ProductTask<T>*>(arg);
  Shared<T>& sh = *t->sh;
  enter_node(sh, /*writes_c=*/false);
  blas::ScopedGemmThreads fan(sh.leaf_gemm_threads);
  ArenaT<T>& arena = sh.lane_arenas[lane];
  core::DgefmmStats* st = &sh.lane_stats[lane];
  core::detail::CtxT<T> ctx{sh.child, &arena, st};
  ArenaScopeT scope(arena);
  core::detail::fused_product(t->a, t->b, t->out, sh.alpha, T(0), ctx,
                              /*depth=*/1);
}

// One combine node: dst <- beta*dst + sum_i g_i * M_{p_i}, applied in the
// verified DAG's fixed ascending product order -- the source of bitwise
// determinism across lane counts and steal orders.
template <class T>
struct CombineTask {
  Shared<T>* sh = nullptr;
  const verify::DagTerm* terms = nullptr;
  int nterms = 0;
  BasicView<T> dst;
};

template <class T>
void combine_body(void* arg, std::size_t /*lane*/) {
  auto* t = static_cast<CombineTask<T>*>(arg);
  Shared<T>& sh = *t->sh;
  enter_node(sh, /*writes_c=*/true);
  core::axpby(static_cast<T>(t->terms[0].g),
              sh.products[t->terms[0].product], sh.beta, t->dst);
  for (int i = 1; i < t->nterms; ++i) {
    const verify::DagTerm& term = t->terms[i];
    const BasicView<const T> src = sh.products[term.product];
    if (term.g == 1.0) {
      core::add_inplace(t->dst, src);
    } else if (term.g == -1.0) {
      core::sub_inplace(t->dst, src);
    } else {
      core::axpy(static_cast<T>(term.g), src, t->dst);
    }
  }
}

}  // namespace

template <class T>
DagPlan plan_dag(index_t m, index_t n, index_t k,
                 const ParallelGefmmConfigT<T>& cfg) {
  DagPlan plan;
  // The budget is the caller's thread count, defaulting to the pool size.
  // It is deliberately not clamped to the pool: on small machines the
  // caller may ask for more lanes than workers to exercise (and test) the
  // multi-lane scheduling paths; the pool simply runs them with fewer
  // threads.
  const int pool = static_cast<int>(global_pool().size());
  const int budget =
      std::max(cfg.threads != 0 ? static_cast<int>(cfg.threads) : pool, 1);

  // Moldable split: at most one lane per product node, and whatever the
  // lanes do not use goes to each product leaf's intra-GEMM fan-out, so
  // lanes * leaf_gemm_threads <= budget and the two levels of parallelism
  // never oversubscribe each other.
  plan.lanes = std::min(budget, kProducts);
  plan.leaf_gemm_threads = std::max(1, budget / plan.lanes);

  core::GefmmConfigT<T> child;
  child.cutoff = cfg.cutoff;
  child.scheme = cfg.scheme;
  if constexpr (std::is_same_v<T, float>) {
    plan.workspace = core::parallel_workspace_floats(m, n, k, child,
                                                     plan.lanes);
  } else {
    plan.workspace = core::parallel_workspace_doubles(m, n, k, child,
                                                      plan.lanes);
  }
  return plan;
}

template <class T>
void run_task_dag(Trans transa, Trans transb, index_t m, index_t n,
                  index_t k, T alpha, const T* a, index_t lda, const T* b,
                  index_t ldb, T beta, T* c, index_t ldc,
                  const ParallelGefmmConfigT<T>& cfg, const DagPlan& plan,
                  ArenaT<T>& arena) {
  constexpr int np = kProducts;
  constexpr int nb = kCombines;
  const verify::FProduct* table = verify::kFusedL1;
  const verify::DagTerm* dag_terms = verify::kDagL1.terms;
  const int* term_begin = verify::kDagL1.term_begin;

  const BasicView<const T> av =
      make_op_view(transa, a, is_trans(transa) ? k : m,
                   is_trans(transa) ? m : k, lda);
  const BasicView<const T> bv =
      make_op_view(transb, b, is_trans(transb) ? n : k,
                   is_trans(transb) ? k : n, ldb);
  BasicView<T> cv = make_view(c, m, n, ldc);

  const index_t me = m & ~index_t{1}, ke = k & ~index_t{1},
                ne = n & ~index_t{1};
  const index_t mb = me / 2, kb = ke / 2, nbk = ne / 2;
  BasicView<const T> ae = av.block(0, 0, me, ke);
  BasicView<const T> be = bv.block(0, 0, ke, ne);
  BasicView<T> ce = cv.block(0, 0, me, ne);

  // Serial config run inside every product node. The failure policy
  // propagates so a leaf that cannot reserve (never the case after the
  // driver's exact pre-sizing, but kept for contract symmetry) degrades
  // only that product under `fallback`.
  core::GefmmConfigT<T> child;
  child.cutoff = cfg.cutoff;
  child.scheme = cfg.scheme;
  child.on_failure = cfg.on_failure;

  // --- Carving phase: every allocation of the run, in one pass over the
  // caller's pre-reserved arena. Product temporaries first, then one
  // borrowed worker-local sub-arena per lane (first-touched by whichever
  // worker runs that lane's leaves). This ordering is what
  // core::parallel_workspace_doubles/_floats prices.
  ArenaScopeT scope(arena);
  std::vector<BasicView<T>> prod_views;
  prod_views.reserve(static_cast<std::size_t>(np));
  for (int p = 0; p < np; ++p) {
    prod_views.push_back(core::detail::arena_matrix(arena, mb, nbk));
  }
  const count_t lane_ws =
      core::detail::fused_product_workspace(mb, kb, nbk, child, 1);
  std::vector<ArenaT<T>> lane_arenas;
  std::vector<T*> lane_bases;
  lane_arenas.reserve(static_cast<std::size_t>(plan.lanes));
  lane_bases.reserve(static_cast<std::size_t>(plan.lanes));
  for (int l = 0; l < plan.lanes; ++l) {
    T* base = arena.alloc(static_cast<std::size_t>(lane_ws));
    lane_bases.push_back(base);
    lane_arenas.emplace_back(base, static_cast<std::size_t>(lane_ws));
  }

  // --- First-touch placement: before the compute phase, page in every
  // lane's borrowed sub-arena on the worker expected to run that lane.
  // Linux places an anonymous page on the NUMA node of the thread that
  // first writes it; without this, the calling thread's carving pass above
  // would pull the whole parent reservation onto its own node and every
  // remote lane would stream its leaf workspace across the interconnect.
  // Lane 0 executes on the calling thread; the other lanes are claimed as
  // pool tasks, so they are touched round-robin across the workers -- the
  // best static guess under work stealing, and exactly right when lanes
  // map 1:1 onto workers. Writing T(0) into arena storage is safe (every
  // arena region is written before it is read, and the touches land inside
  // the lane allocations, never on a guard canary); the touch changes
  // placement and timing only, never results. This is an acquisition-phase
  // step: it precedes the no-fail region below, and a run_on_each_worker
  // failure surfaces through the driver's pre-write failure contract.
  count_t touched_pages = 0;
  if (lane_ws > 0) {
    constexpr std::size_t kTouchStride =
        std::max<std::size_t>(std::size_t{4096} / sizeof(T), 1);
    const auto touch_lane = [&lane_bases, lane_ws](int l) {
      T* base = lane_bases[static_cast<std::size_t>(l)];
      count_t pages = 0;
      for (std::size_t i = 0; i < static_cast<std::size_t>(lane_ws);
           i += kTouchStride) {
        base[i] = T(0);
        ++pages;
      }
      return pages;
    };
    const std::size_t nworkers = global_pool().size();
    if (plan.lanes > 1 && nworkers > 0 && !global_pool().on_worker_thread()) {
      std::atomic<count_t> worker_pages{0};
      global_pool().run_on_each_worker([&](std::size_t w) {
        count_t mine = 0;
        for (int l = 1; l < plan.lanes; ++l) {
          if (static_cast<std::size_t>(l - 1) % nworkers == w) {
            mine += touch_lane(l);
          }
        }
        worker_pages.fetch_add(mine,
                               std::memory_order_relaxed);  // relaxed: counter
      });
      touched_pages +=
          worker_pages.load(std::memory_order_relaxed);  // relaxed: counter
    } else {
      // No pool to place onto (or already on a worker, where
      // run_on_each_worker is forbidden): touch locally so the pages are
      // at least resident before the timed region.
      for (int l = 1; l < plan.lanes; ++l) touched_pages += touch_lane(l);
    }
    touched_pages += touch_lane(0);
  }
  std::vector<core::DgefmmStats> lane_stats(
      static_cast<std::size_t>(plan.lanes));

  Shared<T> sh;
  sh.child = &child;
  sh.lane_arenas = lane_arenas.data();
  sh.lane_stats = lane_stats.data();
  sh.products = prod_views.data();
  sh.alpha = alpha;
  sh.beta = beta;
  sh.leaf_gemm_threads = plan.leaf_gemm_threads;
  sh.cancel = cfg.cancel;

  // Product nodes: operand combinations read straight off the verified
  // table, block q at (row, col) = (q / 2, q % 2) of the quadrant grid.
  std::vector<ProductTask<T>> ptasks(static_cast<std::size_t>(np));
  for (int p = 0; p < np; ++p) {
    ProductTask<T>& t = ptasks[static_cast<std::size_t>(p)];
    t.sh = &sh;
    t.out = prod_views[static_cast<std::size_t>(p)];
    for (int e = 0; e < table[p].na; ++e) {
      const int q = table[p].a[e].q;
      t.a.add(ae.block((q / 2) * mb, (q % 2) * kb, mb, kb),
              static_cast<T>(table[p].a[e].g));
    }
    for (int e = 0; e < table[p].nb; ++e) {
      const int q = table[p].b[e].q;
      t.b.add(be.block((q / 2) * kb, (q % 2) * nbk, kb, nbk),
              static_cast<T>(table[p].b[e].g));
    }
  }

  // Combine nodes: one per C block, terms in the DAG's fixed order.
  std::vector<CombineTask<T>> ctasks(static_cast<std::size_t>(nb));
  for (int blk = 0; blk < nb; ++blk) {
    CombineTask<T>& t = ctasks[static_cast<std::size_t>(blk)];
    t.sh = &sh;
    t.terms = dag_terms + term_begin[blk];
    t.nterms = term_begin[blk + 1] - term_begin[blk];
    t.dst = ce.block((blk / 2) * mb, (blk % 2) * nbk, mb, nbk);
  }

  // Successor lists: product p's successors are the combine nodes whose
  // term lists reference it (node index np + blk). Built by inverting the
  // combine lists; sizes are exact (one edge per c-term).
  const int nedges = term_begin[nb];
  std::vector<std::int32_t> succ_count(static_cast<std::size_t>(np), 0);
  for (int t = 0; t < nedges; ++t) ++succ_count[dag_terms[t].product];
  std::vector<std::int32_t> succ_begin(static_cast<std::size_t>(np) + 1, 0);
  for (int p = 0; p < np; ++p) {
    succ_begin[static_cast<std::size_t>(p) + 1] =
        succ_begin[static_cast<std::size_t>(p)] + succ_count[p];
  }
  std::vector<std::int32_t> successors(static_cast<std::size_t>(nedges));
  std::vector<std::int32_t> cursor(succ_begin.begin(),
                                   succ_begin.end() - 1);
  for (int blk = 0; blk < nb; ++blk) {
    for (int t = term_begin[blk]; t < term_begin[blk + 1]; ++t) {
      successors[static_cast<std::size_t>(
          cursor[dag_terms[t].product]++)] =
          static_cast<std::int32_t>(np + blk);
    }
  }

  std::vector<ThreadPool::DagNode> nodes(
      static_cast<std::size_t>(np + nb));
  for (int p = 0; p < np; ++p) {
    nodes[static_cast<std::size_t>(p)] = ThreadPool::DagNode{
        &product_body<T>, &ptasks[static_cast<std::size_t>(p)],
        successors.data() + succ_begin[static_cast<std::size_t>(p)],
        succ_count[static_cast<std::size_t>(p)], 0};
  }
  for (int blk = 0; blk < nb; ++blk) {
    nodes[static_cast<std::size_t>(np + blk)] = ThreadPool::DagNode{
        &combine_body<T>, &ctasks[static_cast<std::size_t>(blk)], nullptr, 0,
        term_begin[blk + 1] - term_begin[blk]};
  }
  DagRun run(nodes.data(), nodes.size(),
             static_cast<std::size_t>(plan.lanes));

  // --- Execution phase: every acquisition is behind us (the driver's
  // reservation and warmup, this function's carving, the DagRun above), so
  // the graph is a no-fail region: injection is suspended and travels with
  // the lanes, the exactly-sized arenas cannot overflow, and the leaves'
  // raw intra-GEMM batches never throw. Combines perform the first writes
  // to C; an exception escaping run_dag therefore signals either a
  // cooperative cancellation that won the race to the first combine
  // (CanceledError, C untouched by construction of enter_node) or an
  // internal sizing bug (as in the serial no-fail region), never a
  // resource failure, and the driver's policy handling still applies.
  faultinject::ScopedSuspend nofail;
  global_pool().run_dag(run);

  int fixups = 0;
  if (((m | k | n) & 1) != 0) {
    fixups = core::peel_fixups(alpha, av, bv, beta, cv, me, ke, ne);
  }

  if (cfg.stats != nullptr) {
    for (core::DgefmmStats& st : lane_stats) {
      // The injected-fault counter children observe is process-global;
      // the driver records one overall delta instead (see
      // dgefmm_parallel).
      st.faults_injected = 0;
      cfg.stats->merge_from(st);
    }
    // The DAG's top level is a Strassen recursion node itself.
    cfg.stats->strassen_levels += 1;
    cfg.stats->peel_fixups += static_cast<count_t>(fixups);
    cfg.stats->steals += static_cast<count_t>(run.steals());
    cfg.stats->dag_nodes += static_cast<count_t>(np + nb);
    if (plan.lanes > cfg.stats->dag_lanes) {
      cfg.stats->dag_lanes = plan.lanes;
    }
    if (plan.leaf_gemm_threads > cfg.stats->gemm_threads) {
      cfg.stats->gemm_threads = plan.leaf_gemm_threads;
    }
    if (cfg.stats->max_depth < 1) cfg.stats->max_depth = 1;
    if (arena.peak() > cfg.stats->peak_workspace) {
      cfg.stats->peak_workspace = arena.peak();
    }
    cfg.stats->first_touch_pages += touched_pages;
    if (arena.huge_advised_bytes() > cfg.stats->hugepage_bytes) {
      cfg.stats->hugepage_bytes = arena.huge_advised_bytes();
    }
  }
}

template DagPlan plan_dag<double>(index_t, index_t, index_t,
                                  const ParallelGefmmConfigT<double>&);
template DagPlan plan_dag<float>(index_t, index_t, index_t,
                                 const ParallelGefmmConfigT<float>&);
template void run_task_dag<double>(Trans, Trans, index_t, index_t, index_t,
                                   double, const double*, index_t,
                                   const double*, index_t, double, double*,
                                   index_t,
                                   const ParallelGefmmConfigT<double>&,
                                   const DagPlan&, ArenaT<double>&);
template void run_task_dag<float>(Trans, Trans, index_t, index_t, index_t,
                                  float, const float*, index_t, const float*,
                                  index_t, float, float*, index_t,
                                  const ParallelGefmmConfigT<float>&,
                                  const DagPlan&, ArenaT<float>&);

}  // namespace strassen::parallel
