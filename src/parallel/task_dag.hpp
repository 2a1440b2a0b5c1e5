// Task-DAG scheduler for the parallel Winograd top level.
//
// The flat seven-task fan-out (PR history: the original parallel driver)
// ended every top level with a full barrier: all seven products had to
// finish before the first combine could start, and each product task
// claimed the whole pool for its intra-GEMM fan-out, oversubscribing the
// machine 7x at the seam. This module replaces that with a dependency-aware
// executor over the verified schedule IR:
//
//  * plan_dag() is the moldable pre-flight planner. The graph has one
//    shape -- one Winograd level, 7 product nodes and 4 combine nodes --
//    and the planner splits the core budget between DAG width (`lanes` =
//    min(budget, 7)) and per-leaf intra-GEMM fan-out (`leaf_gemm_threads`
//    = max(1, budget / lanes)), so lanes * leaf_gemm_threads never
//    exceeds the budget, then prices the single up-front workspace
//    reservation (core::parallel_workspace_doubles/_floats) the run will
//    carve from.
//
//  * run_task_dag() builds the bipartite product->combine DAG from
//    verify::kDagL1 (derived at compile time from the proved table and
//    static_asserted acyclic and covering), carves every product
//    temporary and one borrowed worker-local sub-arena per lane out of the
//    caller's arena, and executes the graph on the shared pool's
//    work-stealing lanes (ThreadPool::run_dag): a combine whose products
//    are done overlaps with still-running products instead of waiting at
//    the barrier.
//
// Both are templated on the element type (double for dgefmm_parallel,
// float for sgefmm_parallel); the DAG structure, carving order, and
// workspace price are identical, only the element storage and the kernels
// below change.
//
// Determinism: each combine applies its gamma-weighted products in the
// fixed ascending order of the verified DAG, so C is bitwise identical for
// every lane count, thread count, and steal order. Failure contract
// (DESIGN.md section 7): every acquisition -- the arena reservation, the
// DagRun construction, the pack-scratch warmup -- happens in the driver
// before run_task_dag's first write to C; the run itself is a no-fail
// region.
#pragma once

#include "core/types.hpp"
#include "support/arena.hpp"
#include "support/config.hpp"

namespace strassen::parallel {

template <class T>
struct ParallelGefmmConfigT;

/// Resolved pre-flight plan for one dgefmm_parallel/sgefmm_parallel call.
struct DagPlan {
  int lanes = 1;             ///< scheduler lanes (max concurrent DAG nodes)
  int leaf_gemm_threads = 1; ///< intra-GEMM fan-out inside each product node
  count_t workspace = 0;     ///< elements of the single up-front reservation
};

/// Computes the moldable core allotment and workspace price for the given
/// problem: a pure function of the shape, cfg.cutoff, cfg.scheme,
/// cfg.threads and the shared pool's size. The budget is cfg.threads (0 =
/// pool size); lanes = min(budget, 7) and each product leaf fans out over
/// max(1, budget / lanes) GEMM threads.
template <class T>
[[nodiscard]] DagPlan plan_dag(index_t m, index_t n, index_t k,
                               const ParallelGefmmConfigT<T>& cfg);

/// Executes the planned task DAG. `arena` must already hold the plan's
/// workspace (the driver reserves and probes before calling); this
/// function performs no fallible acquisition after its carving phase and
/// writes C only from combine nodes. Exceptions out of the graph leave
/// beta*C intact.
template <class T>
void run_task_dag(Trans transa, Trans transb, index_t m, index_t n,
                  index_t k, T alpha, const T* a, index_t lda, const T* b,
                  index_t ldb, T beta, T* c, index_t ldc,
                  const ParallelGefmmConfigT<T>& cfg, const DagPlan& plan,
                  ArenaT<T>& arena);

extern template DagPlan plan_dag<double>(index_t, index_t, index_t,
                                         const ParallelGefmmConfigT<double>&);
extern template DagPlan plan_dag<float>(index_t, index_t, index_t,
                                        const ParallelGefmmConfigT<float>&);
extern template void run_task_dag<double>(Trans, Trans, index_t, index_t,
                                          index_t, double, const double*,
                                          index_t, const double*, index_t,
                                          double, double*, index_t,
                                          const ParallelGefmmConfigT<double>&,
                                          const DagPlan&, ArenaT<double>&);
extern template void run_task_dag<float>(Trans, Trans, index_t, index_t,
                                         index_t, float, const float*,
                                         index_t, const float*, index_t,
                                         float, float*, index_t,
                                         const ParallelGefmmConfigT<float>&,
                                         const DagPlan&, ArenaT<float>&);

}  // namespace strassen::parallel
