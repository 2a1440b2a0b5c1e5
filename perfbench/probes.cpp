// Layer probes of a traced perf_bench run. Each probe times one library
// layer through its public functions on fixed, seeded operands, so its
// number can be set beside the end-to-end metric it should move (the map is
// in README.md). Untraced runs never execute them.
#include <algorithm>
#include <initializer_list>
#include <stdexcept>
#include <string>

#include "blas/gemm.hpp"
#include "blas/pack_operand.hpp"
#include "blas/packed_loop.hpp"
#include "core/add_kernels.hpp"
#include "core/dgefmm.hpp"
#include "core/tuned_policy.hpp"
#include "model/opmodel.hpp"
#include "parallel/parallel_strassen.hpp"
#include "parallel/task_dag.hpp"
#include "perf_bench.hpp"
#include "support/thread_pool.hpp"

namespace perf {
namespace {

using strassen::Matrix;
using strassen::Trans;
namespace blas = strassen::blas;
namespace core = strassen::core;
namespace model = strassen::model;
namespace parallel = strassen::parallel;

constexpr index_t kOrder = 2048;  // largest operand any probe reads
constexpr double kMiB = 1024.0 * 1024.0;

// Operands shared by every probe; a product of shape (m, k, n) reads the
// leading blocks with leading dimension kOrder.
struct Operands {
  Matrix a, b, c;
};

void dgemm(Operands& o, index_t m, index_t n, index_t k, double beta) {
  blas::dgemm(Trans::no, Trans::no, m, n, k, 1.0, o.a.data(), kOrder,
              o.b.data(), kOrder, beta, o.c.data(), kOrder);
}

int dgefmm(Operands& o, const GemmShape& s, const core::DgefmmConfig& cfg) {
  return core::dgefmm(Trans::no, Trans::no, s.m, s.n, s.k, 1.0, o.a.data(),
                      kOrder, o.b.data(), kOrder, s.beta, o.c.data(), kOrder, cfg);
}

int dgefmm_parallel(Operands& o, const GemmShape& s,
                    const parallel::ParallelDgefmmConfig& cfg) {
  return parallel::dgefmm_parallel(Trans::no, Trans::no, s.m, s.n, s.k, 1.0,
                                   o.a.data(), kOrder, o.b.data(), kOrder,
                                   s.beta, o.c.data(), kOrder, cfg);
}

void require(int info, const char* what) {
  if (info != 0) throw std::runtime_error(std::string(what) + " failed");
}

double gflops(double flops, const Summary& s) { return 1e-9 * flops / s.median; }

// blas: the pool's GEMM against the single-threaded loop nest.
void probe_blas_threads(Run& run, Operands& o) {
  const double f = gemm_flops(kOrder, kOrder, kOrder);
  const Summary pool = sample([&] { dgemm(o, kOrder, kOrder, kOrder, 0.0); }, 3);
  Summary one;
  {
    blas::ScopedGemmThreads serial(1);
    one = sample([&] { dgemm(o, kOrder, kOrder, kOrder, 0.0); }, 3, 0);
  }
  run.layer.set("blas.gemm_gflops_pool", gflops(f, pool), "GFLOP/s");
  run.layer.set("blas.gemm_gflops_1t", gflops(f, one), "GFLOP/s");
  run.layer.set("blas.thread_scaling", one.median / pool.median, "x");
}

// blas: packing B into a handle (caller storage, so no allocation is
// timed), and what streaming it saves on a skinny weight-stationary product.
void probe_prepack(Run& run, Operands& o) {
  const strassen::ConstView b = o.b.view();
  const std::size_t elems = blas::gefmm_pack_b_elements<double>(kOrder, kOrder);
  strassen::AlignedBufferT<double> storage(elems);
  const Summary pack = sample(
      [&] { (void)blas::gefmm_pack_b<double>(b, storage.data(), elems); }, 5);
  run.layer.set("blas.pack_b_gbps",
                1e-9 * 8.0 * static_cast<double>(kOrder * kOrder) / pack.median,
                "GB/s");
  const blas::PackedOperand handle =
      blas::gefmm_pack_b<double>(b, storage.data(), elems);
  const strassen::ConstView a = o.a.view().block(0, 0, 64, kOrder);
  const strassen::MutView c = o.c.view().block(0, 0, 64, kOrder);
  const Summary fresh = sample([&] { blas::gemm_view(1.0, a, b, 0.0, c); }, 10);
  bool streamed = true;
  const Summary packed = sample(
      [&] {
        streamed =
            blas::gemm_view_prepacked(1.0, a, b, 0.0, c, nullptr, &handle) &&
            streamed;
      },
      10);
  if (!streamed) throw std::runtime_error("prepacked handle missed");
  run.layer.set("blas.prepacked_speedup", fresh.median / packed.median, "x");
}

// core: recursion counters of the default (C ABI) and tuned configurations
// over the large_gemm shapes, the combine bandwidth, and the time ledger of
// one default-configuration call.
void probe_core(Run& run, Operands& o) {
  strassen::Arena arena;
  core::DgefmmStats def, tuned, first;
  for (const GemmShape& s : kLargeShapes) {
    core::DgefmmConfig cfg;
    cfg.on_failure = core::FailurePolicy::fallback;
    cfg.workspace = &arena;
    core::DgefmmStats st;
    cfg.stats = &st;
    require(dgefmm(o, s, cfg), "default dgefmm");
    def.merge_from(st);
    if (&s == &kLargeShapes[0]) first = st;
    core::DgefmmConfig tcfg;
    tcfg.use_tuned = true;
    tcfg.workspace = &arena;
    core::DgefmmStats tst;
    tcfg.stats = &tst;
    require(dgefmm(o, s, tcfg), "tuned dgefmm");
    tuned.merge_from(tst);
  }
  const std::pair<const char*, const core::DgefmmStats*> sets[] = {
      {"core.default.", &def}, {"core.tuned.", &tuned}};
  for (const auto& [prefix, st] : sets) {
    const std::string p(prefix);
    run.layer.set(p + "strassen_nodes", static_cast<double>(st->strassen_levels),
                  "count");
    run.layer.set(p + "base_gemms", static_cast<double>(st->base_gemms), "count");
    run.layer.set(p + "max_depth", st->max_depth, "count");
    run.layer.set(p + "peel_fixups", static_cast<double>(st->peel_fixups),
                  "count");
    run.layer.set(p + "peak_workspace_mb",
                  8.0 * static_cast<double>(st->peak_workspace) / kMiB, "MB");
  }
  run.layer.set("core.fallbacks",
                static_cast<double>(def.fallbacks + tuned.fallbacks), "count");

  // Combine bandwidth: one quadrant-sized d = x + y (two reads, one write).
  const index_t q = kOrder / 2;
  const strassen::ConstView x = o.a.view().block(0, 0, q, q);
  const strassen::ConstView y = o.b.view().block(0, 0, q, q);
  const strassen::MutView d = o.c.view().block(0, 0, q, q);
  const Summary add = sample([&] { core::add(x, y, d); }, 10);
  const double gbps =
      1e-9 * 3.0 * 8.0 * static_cast<double>(q * q) / add.median;
  run.layer.set("core.combine_gbps", gbps, "GB/s");

  // Leaf GEMM at the order the default route bottoms out at on the square
  // shape, timed with the same intra-GEMM threading the leaves get.
  const GemmShape& s0 = kLargeShapes[0];
  const index_t leaf = s0.m >> first.max_depth;
  const double leaf_flops = gemm_flops(leaf, leaf, leaf);
  const int reps = std::clamp(static_cast<int>(2e8 / leaf_flops), 3, 50);
  const Summary leaf_t = sample([&] { dgemm(o, leaf, leaf, leaf, 0.0); }, reps);
  run.layer.set("blas.leaf_gemm_gflops", gflops(leaf_flops, leaf_t), "GFLOP/s");

  // Ledger: wall time = leaf GEMMs + combines (the model's addition count
  // at the measured bandwidth) + a residual neither explains.
  core::DgefmmConfig cfg;
  cfg.on_failure = core::FailurePolicy::fallback;
  cfg.workspace = &arena;
  const Summary wall = sample([&] { require(dgefmm(o, s0, cfg), "ledger"); }, 2, 0);
  double add_elems = 0, nodes = 1;
  for (int l = 0; l < first.max_depth; ++l) {
    const index_t h = s0.m >> (l + 1);
    add_elems += nodes * static_cast<double>(model::level_add_cost(
                             model::Variant::winograd, h, h, h));
    nodes *= 7;
  }
  const double gemm_s = static_cast<double>(first.base_gemms) * leaf_t.median;
  const double combine_s = add_elems * 3.0 * 8.0 / (gbps * 1e9);
  run.layer.set("core.ledger_gemm_s", gemm_s, "s");
  run.layer.set("core.ledger_combine_s", combine_s, "s");
  run.layer.set("core.ledger_residual_s", wall.median - gemm_s - combine_s, "s");
}

// tuning: how far the tuned route is from the fastest forced route on each
// large_gemm shape (one timed call per route; the worst shape is reported).
void probe_route_regret(Run& run, Operands& o) {
  const core::TunedPolicy* policy = core::tuned_policy<double>();
  strassen::Arena arena, dag_arena;
  double worst = 0;
  for (const GemmShape& s : kLargeShapes) {
    const core::CutoffCriterion cut =
        policy != nullptr
            ? policy->select(s.beta)
            : core::CutoffCriterion::paper_default(blas::active_machine());
    core::DgefmmConfig s2, hybrid, fused2, tuned;
    s2.cutoff = hybrid.cutoff = fused2.cutoff = cut;
    s2.scheme = core::Scheme::strassen2;
    hybrid.scheme = core::Scheme::automatic;
    fused2.scheme = core::Scheme::fused;
    fused2.fused_levels = 2;
    tuned.use_tuned = true;
    parallel::ParallelDgefmmConfig dag;
    dag.cutoff = cut;
    std::size_t need = 0;
    for (const core::DgefmmConfig* c : {&s2, &hybrid, &fused2, &tuned}) {
      need = std::max(need, static_cast<std::size_t>(core::dgefmm_workspace_doubles(
                                s.m, s.n, s.k, s.beta, *c)));
    }
    arena.reserve(std::max(arena.capacity(), need));
    dag_arena.reserve(std::max(
        dag_arena.capacity(),
        static_cast<std::size_t>(
            parallel::plan_dag<double>(s.m, s.n, s.k, dag).workspace)));
    for (core::DgefmmConfig* c : {&s2, &hybrid, &fused2, &tuned}) c->workspace = &arena;
    dag.workspace = &dag_arena;

    auto once = [&](auto&& fn) { return sample(fn, 1, 0).median; };
    double best = once([&] { dgemm(o, s.m, s.n, s.k, s.beta); });
    for (const core::DgefmmConfig* c : {&s2, &hybrid, &fused2}) {
      best = std::min(best, once([&] { require(dgefmm(o, s, *c), "route"); }));
    }
    best = std::min(best, once([&] { require(dgefmm_parallel(o, s, dag), "dag"); }));
    const double t = once([&] { require(dgefmm(o, s, tuned), "tuned route"); });
    worst = std::max(worst, t / best);
  }
  run.layer.set("tuning.route_regret", worst, "x");
}

// parallel: the task-DAG driver on the pool against one thread.
void probe_dag(Run& run, Operands& o) {
  const GemmShape s{kOrder, kOrder, kOrder, 0.0};
  parallel::ParallelDgefmmConfig pool, one;
  one.threads = 1;
  strassen::Arena arena;
  arena.reserve(static_cast<std::size_t>(std::max(
      parallel::plan_dag<double>(s.m, s.n, s.k, pool).workspace,
      parallel::plan_dag<double>(s.m, s.n, s.k, one).workspace)));
  pool.workspace = one.workspace = &arena;
  core::DgefmmStats st;
  pool.stats = &st;
  const Summary tp =
      sample([&] { st.reset(); require(dgefmm_parallel(o, s, pool), "dag"); }, 2);
  const Summary t1 =
      sample([&] { require(dgefmm_parallel(o, s, one), "dag 1t"); }, 1, 0);
  run.layer.set("parallel.dag_gflops", gflops(gemm_flops(s.m, s.n, s.k), tp),
                "GFLOP/s");
  run.layer.set("parallel.dag_speedup", t1.median / tp.median, "x");
  run.layer.set("parallel.steals", static_cast<double>(st.steals), "count");
  run.layer.set("parallel.dag_nodes", static_cast<double>(st.dag_nodes), "count");
  run.layer.set("parallel.lanes", st.dag_lanes, "count");
}

}  // namespace

void run_layer_probes(Run& run) {
  // The tuned-route probes need a policy; only large_gemm installs one.
  if (run.tunes.empty()) autotune_and_install(run);
  strassen::Rng rng = stream_rng(run.seed, 9);
  Operands o{strassen::random_matrix(kOrder, kOrder, rng),
             strassen::random_matrix(kOrder, kOrder, rng),
             Matrix(kOrder, kOrder)};
  strassen::fill(o.c.view(), 0.0);
  probe_blas_threads(run, o);
  probe_prepack(run, o);
  probe_core(run, o);
  probe_route_regret(run, o);
  probe_dag(run, o);
}

}  // namespace perf
