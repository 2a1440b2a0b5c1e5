// Exact workspace sizing for DGEFMM (Section 3.2 / Table 1).
//
// The recursion-walking functions mirror the allocations the schedules
// make, so an arena sized by dgefmm_workspace_doubles never grows and
// never overflows. The closed-form bounds are the paper's formulas; the
// tests assert  exact <= bound  for every scheme and shape.
#pragma once

#include "core/types.hpp"
#include "support/config.hpp"

namespace strassen::core {

/// Copies the sizing-relevant fields (cutoff, scheme, odd strategy, fused
/// levels) of a float configuration into a double one. Every workspace
/// predictor counts *elements*, not bytes -- the recursion allocates by
/// matrix shape only (verify::footprint_doubles is a pure element count) --
/// so the float sizes are exactly the double sizes under the same fields,
/// and the float entry points below forward through this view.
[[nodiscard]] DgefmmConfig sizing_config(const SgefmmConfig& cfg);

/// Exact number of workspace doubles a dgefmm call with this configuration
/// will allocate at peak for C(m x n) = alpha*op(A)(m x k)*op(B)(k x n)
/// + beta*C.
[[nodiscard]] count_t workspace_doubles(index_t m, index_t n, index_t k,
                                        double beta,
                                        const DgefmmConfig& cfg);

/// Exact number of workspace floats the matching sgefmm call allocates at
/// peak (the same element count as the double schedule; see sizing_config).
[[nodiscard]] count_t workspace_floats(index_t m, index_t n, index_t k,
                                       float beta, const SgefmmConfig& cfg);

/// Exact workspace of the *classic* recursion entered at `depth` (the
/// fused schedule uses this to size its below-fusion leaves; Scheme::fused
/// resolves like Scheme::automatic here).
[[nodiscard]] count_t workspace_doubles_at(index_t m, index_t n, index_t k,
                                           double beta,
                                           const DgefmmConfig& cfg,
                                           int depth);

/// Exact number of workspace doubles the task-DAG parallel driver carves
/// from its single up-front reservation for C(m x n) = alpha*A(m x k)*
/// B(k x n) + beta*C with `lanes` scheduler lanes: one (m/2 x n/2) product
/// temporary per product node of the one-level graph, plus one
/// worker-local leaf sub-arena per lane. The parallel determinism tests
/// assert predicted == measured.
[[nodiscard]] count_t parallel_workspace_doubles(index_t m, index_t n,
                                                 index_t k,
                                                 const DgefmmConfig& cfg,
                                                 int lanes);

/// Float twin of parallel_workspace_doubles (same element count; see
/// sizing_config).
[[nodiscard]] count_t parallel_workspace_floats(index_t m, index_t n,
                                                index_t k,
                                                const SgefmmConfig& cfg,
                                                int lanes);

/// Paper bound for STRASSEN1 with beta == 0: (m*max(k,n) + kn)/3.
double bound_strassen1_beta0(index_t m, index_t k, index_t n);

/// Paper bound for STRASSEN1 with beta != 0: (4mn + m*max(k,n) + kn)/3.
double bound_strassen1_general(index_t m, index_t k, index_t n);

/// Paper bound for STRASSEN2: (mk + kn + mn)/3.
double bound_strassen2(index_t m, index_t k, index_t n);

}  // namespace strassen::core
