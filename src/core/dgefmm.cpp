#include "core/dgefmm.hpp"

#include <algorithm>
#include <type_traits>

#include "blas/gemm.hpp"
#include "blas/kernels.hpp"
#include "blas/pack_operand.hpp"
#include "blas/packed_loop.hpp"
#include "core/padding.hpp"
#include "core/sgefmm.hpp"
#include "core/tuned_policy.hpp"
#include "core/winograd.hpp"
#include "core/winograd_fused.hpp"
#include "support/faultinject.hpp"

namespace strassen::core {

namespace {

int check_args(Trans transa, Trans transb, index_t m, index_t n, index_t k,
               index_t lda, index_t ldb, index_t ldc) {
  const bool ta = (transa == Trans::no || transa == Trans::transpose ||
                   transa == Trans::conj_transpose);
  const bool tb = (transb == Trans::no || transb == Trans::transpose ||
                   transb == Trans::conj_transpose);
  if (!ta) return 1;
  if (!tb) return 2;
  if (m < 0) return 3;
  if (n < 0) return 4;
  if (k < 0) return 5;
  const index_t a_rows = is_trans(transa) ? k : m;
  const index_t b_rows = is_trans(transb) ? n : k;
  if (lda < (a_rows > 0 ? a_rows : 1)) return 8;
  if (ldb < (b_rows > 0 ? b_rows : 1)) return 10;
  if (ldc < (m > 0 ? m : 1)) return 13;
  return 0;
}

// Exact peak arena elements of the configured recursion, in the element
// type's own units (the predictors count elements, so both forward to the
// same recursion walk).
template <class T>
count_t workspace_elements(index_t m, index_t n, index_t k, T beta,
                           const GefmmConfigT<T>& cfg) {
  if constexpr (std::is_same_v<T, float>) {
    return workspace_floats(m, n, k, beta, cfg);
  } else {
    return workspace_doubles(m, n, k, beta, cfg);
  }
}

// Consults the caller's prepacked operand handles (cfg.packed_a/packed_b)
// for a call that reduces to one top-level packed GEMM. True when the
// streamed nest ran (bitwise identical to the plain path); false on any
// hard miss -- wrong kernel stamp, blocking, or source identity -- with C
// untouched, so the caller continues down the ordinary path. Hit/miss
// accounting is in operand blocks: a streamed call credits the blocks the
// handles replaced, a miss charges the blocks the fresh path must now pack.
template <class T>
bool try_prepacked_gemm(T alpha, BasicView<const T> a, BasicView<const T> b,
                        T beta, BasicView<T> c, const GefmmConfigT<T>& cfg) {
  if (cfg.packed_a == nullptr && cfg.packed_b == nullptr) return false;
  const index_t m = c.rows, n = c.cols, k = a.cols;
  const blas::GemmBlocking bk =
      blas::blocking_for_t<T>(blas::active_machine());
  count_t blocks = 0;
  if (cfg.packed_a != nullptr) blocks += blas::packed_a_blocks(bk, m, n, k);
  if (cfg.packed_b != nullptr) blocks += blas::packed_b_blocks(bk, n, k);
  if (blas::gemm_view_prepacked(alpha, a, b, beta, c, cfg.packed_a,
                                cfg.packed_b)) {
    if (cfg.stats != nullptr) cfg.stats->pack_hits += blocks;
    return true;
  }
  if (cfg.stats != nullptr) cfg.stats->pack_misses += blocks;
  return false;
}

// The shared driver template behind dgefmm_view and sgefmm_view: pre-flight
// acquisition (arena + pack scratch) under the failure contract, then the
// no-fail dispatch into the schedule interpreters. The two public
// instantiations differ only in element type; the lint tool checks the
// acquire-before-first-C-write ordering of this single definition for both.
template <class T>
void gefmm_view_t(T alpha, BasicView<const T> a, BasicView<const T> b, T beta,
                  BasicView<T> c, const GefmmConfigT<T>& cfg) {
  if (routes_tuned(cfg)) {
    // The tuned route resolves to an ordinary explicit configuration (one
    // GEMM is CutoffCriterion::never_recurse()) that re-enters below
    // through the same acquisition contract as every other call.
    GefmmConfigT<T> eff = cfg;
    const TunedPath path =
        resolve_tuned<T>(c.rows, a.cols, c.cols, beta, eff);
    if (cfg.stats != nullptr) cfg.stats->tuned_path = tuned_path_name(path);
    gefmm_view_t<T>(alpha, a, b, beta, c, eff);
    return;
  }
  const std::size_t need = static_cast<std::size_t>(
      workspace_elements<T>(c.rows, c.cols, a.cols, beta, cfg));
  const long faults_before = faultinject::injected_total();
  // Resolve the packed-GEMM blocking and fan-out now: the fan-out decision
  // for any sub-product of this call is covered by the top-level shape
  // (sub-products are never larger), so warming below is a superset of
  // what the compute phase can touch. A single-GEMM route forks exactly
  // this many tasks, prepacked operands or not.
  const blas::GemmBlocking bk = blas::blocking_for_t<T>(blas::active_machine());
  const int gemm_threads = blas::packed_gemm_threads(c.rows, c.cols, a.cols);
  if (cfg.stats != nullptr) {
    cfg.stats->kernel = blas::active_kernel_t<T>().name;
    if (gemm_threads > cfg.stats->gemm_threads) {
      cfg.stats->gemm_threads = gemm_threads;
    }
  }

  // Pre-flight: every fallible acquisition happens here, before the first
  // write to C, so the failure policy can act with beta*C still intact
  // (strict leaves C untouched; fallback still sees the original C).
  ArenaT<T> local;
  ArenaT<T>* arena = nullptr;
  try {
    if (cfg.workspace == nullptr) {
      local.reserve(need);
      arena = &local;
    } else if (cfg.workspace->in_use() == 0) {
      if (cfg.workspace->capacity() < need) cfg.workspace->reserve(need);
      arena = cfg.workspace;
    } else {
      // An in-use caller arena cannot be regrown (its allocations are
      // live); the probe below rejects it now instead of letting the
      // recursion throw with C half-written.
      arena = cfg.workspace;
    }
    // Probe the exact predicted peak: proves the arena covers the whole
    // recursion (and is the arena_alloc fault-injection firing point)
    // while C is still untouched. Does not disturb peak() accounting.
    arena->probe(need);
    // The packed GEMM's per-thread scratch is the only allocation the
    // compute phase would otherwise make on a cold thread; warm it now.
    // When the GEMMs will fan out over the pool, every worker's scratch
    // must be warm too -- lazy first-touch allocation on a cold worker
    // would otherwise fire inside the no-fail region below.
    if (gemm_threads > 1) {
      blas::ensure_pack_capacity_all_workers<T>(bk);
    } else {
      blas::ensure_pack_capacity<T>(bk);
    }
  } catch (const std::exception&) {
    if (cfg.on_failure == FailurePolicy::strict) throw;
    // Graceful degradation: plain GEMM needs zero arena workspace, so
    // running out of memory costs performance, never correctness. Forced
    // serial: the degraded path must stay infallible, and the parallel
    // fan-out could hit a cold worker's scratch allocation.
    blas::ScopedGemmThreads serial_gemm(1);
    blas::gemm_view(alpha, a, b, beta, c);
    if (cfg.stats != nullptr) {
      ++cfg.stats->fallbacks;
      ++cfg.stats->base_gemms;
      cfg.stats->faults_injected +=
          faultinject::injected_total() - faults_before;
    }
    return;
  }

  // Acquisition complete: arena capacity is proven by the probe and the
  // pack scratch is warm, so the schedules below allocate nothing new.
  // Injected faults are suspended for this no-fail region; a real arena
  // overflow in it would be a sizing bug and still throws WorkspaceError.
  faultinject::ScopedSuspend nofail;

  // Prepacked-handle consult for the untuned single-GEMM routes: every
  // schedule interpreter reduces a degenerate or below-cutoff top-level
  // call to one gemm_view, so streaming the handles here is the same
  // arithmetic minus the packing. It runs after the pre-flight because the
  // streamed GEMM forks like any other: every worker it may reach must be
  // warm, and a pool-task fault must not fire with C half-written. A hard
  // miss falls through to the ordinary path.
  if (cfg.packed_a != nullptr || cfg.packed_b != nullptr) {
    const index_t m = c.rows, n = c.cols, k = a.cols;
    if (((m < 2 || k < 2 || n < 2) || cfg.cutoff.stop(m, k, n, 0)) &&
        try_prepacked_gemm<T>(alpha, a, b, beta, c, cfg)) {
      if (cfg.stats != nullptr) ++cfg.stats->base_gemms;
      return;
    }
  }
  detail::CtxT<T> ctx{&cfg, arena, cfg.stats};
  if (cfg.scheme == Scheme::fused) {
    // The fused path peels odd dimensions itself; cfg.odd applies only to
    // the classic recursion below the fusion depth.
    detail::fmm_fused(alpha, a, b, beta, c, ctx, 0);
  } else if (cfg.odd == OddStrategy::static_padding) {
    detail::pad_static(alpha, a, b, beta, c, ctx);
  } else {
    detail::fmm(alpha, a, b, beta, c, ctx, 0);
  }
  if (cfg.stats != nullptr) {
    cfg.stats->peak_workspace =
        std::max(cfg.stats->peak_workspace, arena->peak());
    cfg.stats->hugepage_bytes =
        std::max(cfg.stats->hugepage_bytes, arena->huge_advised_bytes());
    cfg.stats->faults_injected +=
        faultinject::injected_total() - faults_before;
  }
}

// GEMM-convention argument handling shared by both precisions: validate,
// route degenerate cases to the plain BLAS path, build op views, run the
// driver above.
template <class T>
int gefmm_t(Trans transa, Trans transb, index_t m, index_t n, index_t k,
            T alpha, const T* a, index_t lda, const T* b, index_t ldb, T beta,
            T* c, index_t ldc, const GefmmConfigT<T>& cfg) {
  if (const int info = check_args(transa, transb, m, n, k, lda, ldb, ldc);
      info != 0) {
    return info;
  }
  if (m == 0 || n == 0) return 0;

  // Pure scale/accumulate degenerate cases go straight to the BLAS path.
  if (k == 0 || alpha == T(0)) {
    if constexpr (std::is_same_v<T, float>) {
      blas::sgemm(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c,
                  ldc);
    } else {
      blas::dgemm(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c,
                  ldc);
    }
    return 0;
  }

  const BasicView<const T> av = is_trans(transa)
                                    ? make_op_view(transa, a, k, m, lda)
                                    : make_op_view(transa, a, m, k, lda);
  const BasicView<const T> bv = is_trans(transb)
                                    ? make_op_view(transb, b, n, k, ldb)
                                    : make_op_view(transb, b, k, n, ldb);
  BasicView<T> cv = make_view(c, m, n, ldc);
  gefmm_view_t<T>(alpha, av, bv, beta, cv, cfg);
  return 0;
}

}  // namespace

int dgefmm(Trans transa, Trans transb, index_t m, index_t n, index_t k,
           double alpha, const double* a, index_t lda, const double* b,
           index_t ldb, double beta, double* c, index_t ldc,
           const DgefmmConfig& cfg) {
  return gefmm_t<double>(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta,
                         c, ldc, cfg);
}

int sgefmm(Trans transa, Trans transb, index_t m, index_t n, index_t k,
           float alpha, const float* a, index_t lda, const float* b,
           index_t ldb, float beta, float* c, index_t ldc,
           const SgefmmConfig& cfg) {
  return gefmm_t<float>(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta,
                        c, ldc, cfg);
}

void dgefmm_view(double alpha, ConstView a, ConstView b, double beta,
                 MutView c, const DgefmmConfig& cfg) {
  gefmm_view_t<double>(alpha, a, b, beta, c, cfg);
}

void sgefmm_view(float alpha, ConstViewF a, ConstViewF b, float beta,
                 MutViewF c, const SgefmmConfig& cfg) {
  gefmm_view_t<float>(alpha, a, b, beta, c, cfg);
}

count_t dgefmm_workspace_doubles(index_t m, index_t n, index_t k, double beta,
                                 const DgefmmConfig& cfg) {
  return workspace_doubles(m, n, k, beta, cfg);
}

count_t sgefmm_workspace_floats(index_t m, index_t n, index_t k, float beta,
                                const SgefmmConfig& cfg) {
  return workspace_floats(m, n, k, beta, cfg);
}

}  // namespace strassen::core
