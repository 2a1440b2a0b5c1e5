// Task-parallel top level for DGEFMM/SGEFMM: the top recursion level of
// the fused Winograd schedule runs as a dependency-aware task DAG
// (parallel/task_dag.hpp) on the shared pool's work-stealing lanes, so
// combine steps overlap with still-running products instead of waiting at
// the old seven-way barrier. Below the DAG everything is the serial
// library.
//
// This trades the serial code's memory economy for parallelism (seven
// product temporaries at the top) -- the classic Strassen parallelization
// the paper defers to future work.
#pragma once

#include <atomic>
#include <cstddef>

#include "core/types.hpp"
#include "support/arena.hpp"
#include "support/config.hpp"

namespace strassen::parallel {

template <class T>
struct ParallelGefmmConfigT {
  /// Recursion cutoff. CutoffCriterion::tuned() takes the tuned route
  /// (core::resolve_tuned) under the budget blas::gemm_thread_budget(
  /// threads): when the measured DAG crossover says the task DAG wins at
  /// this shape the call runs here with the tuned eq.-15 cutoffs and fused
  /// leaves; every other path runs through the serial driver under that
  /// budget. A missing, kernel-stale or other-budget policy resolves to
  /// one GEMM.
  core::CutoffCriterion cutoff =
      core::CutoffCriterion::paper_default(blas::active_machine());
  /// Core budget the pre-flight planner splits between DAG lanes
  /// (min(budget, 7)) and each product leaf's intra-GEMM fan-out
  /// (max(1, budget / lanes)); 0 = the shared pool's size. Not clamped to
  /// the pool, so oversized budgets exercise wide-DAG scheduling even on
  /// small machines.
  std::size_t threads = 0;
  /// Schedule run inside each product task. Scheme::fused keeps the fused
  /// packed-GEMM path below the DAG leaves as well; every scheme's top
  /// level runs as fused products (no S/T operand temporaries -- sums form
  /// while packing).
  core::Scheme scheme = core::Scheme::automatic;
  /// Optional caller-provided workspace for the single up-front
  /// reservation (product temporaries + per-lane sub-arenas). When null an
  /// exactly-sized arena is allocated internally; reusing one across calls
  /// avoids repeated allocation, as the benchmarks do. Element-typed: the
  /// float driver can only draw from a float arena.
  ArenaT<T>* workspace = nullptr;
  /// Failure policy (DESIGN.md section 7). Every acquisition -- the
  /// reservation, the DAG bookkeeping, the pack-scratch warmup -- precedes
  /// the first write to C, so on failure `strict` rethrows with C
  /// untouched and `fallback` degrades the whole problem to one
  /// workspace-free GEMM. Propagated to the per-leaf child configs.
  core::FailurePolicy on_failure = core::FailurePolicy::strict;
  /// Optional instrumentation: per-lane child stats are merged in, plus
  /// the scheduler's own counters (steals, dag_nodes, dag_lanes) and the
  /// driver's fallback/fault counters.
  core::DgefmmStats* stats = nullptr;
  /// Optional cooperative cancellation token (the serving front-end's
  /// per-request token). Checked at every task-DAG node boundary through a
  /// single-transition decision: cancellation is honored -- the call
  /// throws CanceledError with beta*C bit-identical -- only if it wins the
  /// race against the first combine node (the first write to C); once any
  /// combine has committed, the remaining graph runs to completion and the
  /// call succeeds normally. C is therefore never left half-written by a
  /// cancel. CanceledError is rethrown under *both* failure policies
  /// (a canceled request must not burn a full fallback GEMM).
  const std::atomic<bool>* cancel = nullptr;
};

using ParallelDgefmmConfig = ParallelGefmmConfigT<double>;
using ParallelSgefmmConfig = ParallelGefmmConfigT<float>;

/// C <- alpha * op(A) * op(B) + beta * C with the top recursion level
/// evaluated as a work-stealing task DAG. The result is bitwise identical
/// for every thread count and steal order (combines apply their terms in
/// the verified schedule's fixed order). Falls back to the serial dgefmm
/// when the cutoff says not to recurse. Returns a BLAS-style info code.
int dgefmm_parallel(Trans transa, Trans transb, index_t m, index_t n,
                    index_t k, double alpha, const double* a, index_t lda,
                    const double* b, index_t ldb, double beta, double* c,
                    index_t ldc,
                    const ParallelDgefmmConfig& cfg = ParallelDgefmmConfig{});

/// Single-precision twin of dgefmm_parallel: the float instantiation of
/// the same planner, carving phase, and work-stealing executor, with the
/// same bitwise-determinism guarantee across thread counts.
int sgefmm_parallel(Trans transa, Trans transb, index_t m, index_t n,
                    index_t k, float alpha, const float* a, index_t lda,
                    const float* b, index_t ldb, float beta, float* c,
                    index_t ldc,
                    const ParallelSgefmmConfig& cfg = ParallelSgefmmConfig{});

}  // namespace strassen::parallel
