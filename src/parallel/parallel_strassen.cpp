#include "parallel/parallel_strassen.hpp"

#include <type_traits>

#include "blas/gemm.hpp"
#include "blas/kernels.hpp"
#include "blas/machine.hpp"
#include "blas/packed_loop.hpp"
#include "core/dgefmm.hpp"
#include "core/sgefmm.hpp"
#include "core/tuned_policy.hpp"
#include "parallel/task_dag.hpp"
#include "support/faultinject.hpp"
#include "support/thread_pool.hpp"

namespace strassen::parallel {

namespace {

template <class T>
int serial_gefmm(Trans transa, Trans transb, index_t m, index_t n, index_t k,
                 T alpha, const T* a, index_t lda, const T* b, index_t ldb,
                 T beta, T* c, index_t ldc,
                 const core::GefmmConfigT<T>& cfg) {
  if constexpr (std::is_same_v<T, float>) {
    return core::sgefmm(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta,
                        c, ldc, cfg);
  } else {
    return core::dgefmm(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta,
                        c, ldc, cfg);
  }
}

template <class T>
int gefmm_parallel_t(Trans transa, Trans transb, index_t m, index_t n,
                     index_t k, T alpha, const T* a, index_t lda, const T* b,
                     index_t ldb, T beta, T* c, index_t ldc,
                     const ParallelGefmmConfigT<T>& cfg) {
  if (cfg.cutoff.kind == core::CutoffKind::tuned) {
    // The one tuned route, under this call's thread budget. Only the DAG
    // path stays in this driver (with the tuned cutoffs and the fused
    // leaves the crossover was measured against); every other path --
    // one GEMM when the policy misses -- runs the resolved configuration
    // through the serial driver, so the entry points cannot disagree.
    const int budget = blas::gemm_thread_budget(cfg.threads);
    core::GefmmConfigT<T> serial;
    const core::TunedPath path =
        core::resolve_tuned<T>(m, k, n, beta, budget, /*dag=*/true, serial);
    if (cfg.stats != nullptr) {
      cfg.stats->tuned_path = core::tuned_path_name(path);
    }
    if (path == core::TunedPath::dag) {
      ParallelGefmmConfigT<T> eff = cfg;
      eff.cutoff = serial.cutoff;
      eff.scheme = serial.scheme;
      return gefmm_parallel_t<T>(transa, transb, m, n, k, alpha, a, lda, b,
                                 ldb, beta, c, ldc, eff);
    }
    serial.on_failure = cfg.on_failure;
    serial.stats = cfg.stats;
    // Forward the caller's arena: dropping it here would silently
    // re-allocate (and first-touch) the whole recursion workspace on
    // every call, which at paper scale costs more than a fused level.
    serial.workspace = cfg.workspace;
    // The serial paths run under the budget the route was resolved for.
    const blas::ScopedGemmThreads keyed(budget);
    return serial_gefmm<T>(transa, transb, m, n, k, alpha, a, lda, b, ldb,
                           beta, c, ldc, serial);
  }
  // Serial fallback covers argument checking, degenerate cases, and
  // problems the cutoff sends straight to GEMM (with the caller's failure
  // policy and stats passed through).
  if (m < 2 || k < 2 || n < 2 || alpha == T(0) ||
      cfg.cutoff.stop(m, k, n, 0)) {
    core::GefmmConfigT<T> serial;
    serial.cutoff = cfg.cutoff;
    serial.scheme = cfg.scheme;
    serial.on_failure = cfg.on_failure;
    serial.stats = cfg.stats;
    return serial_gefmm<T>(transa, transb, m, n, k, alpha, a, lda, b, ldb,
                           beta, c, ldc, serial);
  }
  // Argument checking via a zero-work call (alpha == 0 quick-returns with
  // beta == 1, so C stays untouched and no workspace is acquired).
  {
    core::GefmmConfigT<T> serial;
    serial.cutoff = cfg.cutoff;
    const int info = serial_gefmm<T>(transa, transb, m, n, k, T(0), a, lda,
                                     b, ldb, T(1), c, ldc, serial);
    if (info != 0) return info;
  }

  const long faults_before = faultinject::injected_total();
  const DagPlan plan = plan_dag(m, n, k, cfg);
  if (cfg.stats != nullptr) {
    cfg.stats->kernel = blas::active_kernel_t<T>().name;
  }
  ArenaT<T> local;
  ArenaT<T>* arena = cfg.workspace != nullptr ? cfg.workspace : &local;
  try {
    // Warm the pack scratch on this thread *and* every pool worker now:
    // the product nodes run their packed GEMMs (and possible intra-GEMM
    // fan-outs) inside the DAG's no-fail region on arbitrary workers, and
    // the post-combine peel fix-ups run plain GEMMs on the calling thread
    // after C has been written -- none of them may allocate lazily.
    blas::ensure_pack_capacity_all_workers<T>(
        blas::blocking_for_t<T>(blas::active_machine()));
    // The single up-front acquisition the DAG carves from: product
    // temporaries plus one worker-local sub-arena per lane, priced
    // exactly by core::parallel_workspace_doubles/_floats. The probe maps
    // a too-small caller arena (or an injected alloc fault) to this
    // pre-write acquisition point.
    if (arena->in_use() == 0 &&
        arena->capacity() < static_cast<std::size_t>(plan.workspace)) {
      arena->reserve(static_cast<std::size_t>(plan.workspace));
    }
    arena->probe(static_cast<std::size_t>(plan.workspace));
    run_task_dag(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c,
                 ldc, cfg, plan, *arena);
  } catch (const CanceledError&) {
    // Cooperative cancellation is not a resource failure: the fallback
    // policy must not burn a full workspace-free GEMM computing a result
    // nobody wants. C is untouched (the cancel won the race to the first
    // combine); the serving layer maps this to the canceled status.
    throw;
  } catch (const std::exception&) {
    if (cfg.on_failure == core::FailurePolicy::strict) throw;
    // Graceful degradation: one workspace-free GEMM over the whole
    // problem. beta*C is still intact (every acquisition precedes the
    // DAG's first write). Forced serial: the degraded path must stay
    // infallible, and an intra-GEMM fan-out could hit a fresh task-entry
    // fault or a cold worker's allocation.
    blas::ScopedGemmThreads serial_gemm(1);
    if constexpr (std::is_same_v<T, float>) {
      blas::sgemm(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c,
                  ldc);
    } else {
      blas::dgemm(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c,
                  ldc);
    }
    if (cfg.stats != nullptr) {
      ++cfg.stats->fallbacks;
      ++cfg.stats->base_gemms;
      cfg.stats->faults_injected +=
          faultinject::injected_total() - faults_before;
    }
    return 0;
  }
  if (cfg.stats != nullptr) {
    cfg.stats->faults_injected +=
        faultinject::injected_total() - faults_before;
  }
  return 0;
}

}  // namespace

int dgefmm_parallel(Trans transa, Trans transb, index_t m, index_t n,
                    index_t k, double alpha, const double* a, index_t lda,
                    const double* b, index_t ldb, double beta, double* c,
                    index_t ldc, const ParallelDgefmmConfig& cfg) {
  return gefmm_parallel_t<double>(transa, transb, m, n, k, alpha, a, lda, b,
                                  ldb, beta, c, ldc, cfg);
}

int sgefmm_parallel(Trans transa, Trans transb, index_t m, index_t n,
                    index_t k, float alpha, const float* a, index_t lda,
                    const float* b, index_t ldb, float beta, float* c,
                    index_t ldc, const ParallelSgefmmConfig& cfg) {
  return gefmm_parallel_t<float>(transa, transb, m, n, k, alpha, a, lda, b,
                                 ldb, beta, c, ldc, cfg);
}

}  // namespace strassen::parallel
