// Public configuration and statistics types for DGEFMM.
#pragma once

#include <cstddef>

#include "core/cutoff.hpp"
#include "support/arena.hpp"
#include "support/config.hpp"

namespace strassen::blas {
template <class T>
struct PackedOperandT;
}  // namespace strassen::blas

namespace strassen::core {

/// Which computation schedule performs each recursion level.
enum class Scheme {
  automatic,  ///< STRASSEN1 when beta == 0, STRASSEN2 otherwise (the paper's
              ///< DGEFMM behaviour, Table 1 last row)
  strassen1,  ///< force STRASSEN1 (general-beta form uses four product
              ///< temporaries; beta == 0 form runs in C's space)
  strassen2,  ///< force the three-temporary multiply-accumulate schedule
  original,   ///< Strassen's 1969 variant (7 multiplies, 18 additions)
  fused,      ///< packing-fused path: the top one or two recursion levels
              ///< run as multi-destination packed-GEMM calls whose packing
              ///< forms the operand sums and whose epilogue scatters the
              ///< product into the C quadrants (Huang et al. style); the
              ///< classic automatic schedule continues below the fusion
              ///< depth. Odd dimensions are always dynamically peeled at
              ///< fused levels. The operand sums live in the GEMM pack
              ///< buffers; the only arena use at fused levels is the
              ///< optional packed-panel cache slab (GefmmConfigT::
              ///< panel_cache), which the workspace predictor counts.
};

/// Human-readable schedule name for benchmark/report headers.
constexpr const char* scheme_name(Scheme s) {
  switch (s) {
    case Scheme::automatic:
      return "AUTO(S1/S2)";
    case Scheme::strassen1:
      return "STRASSEN1";
    case Scheme::strassen2:
      return "STRASSEN2";
    case Scheme::original:
      return "ORIGINAL";
    case Scheme::fused:
      return "FUSED";
  }
  return "?";
}

/// What dgefmm does when workspace acquisition fails (arena reservation,
/// buffer allocation, or a parallel task that cannot run). The decision is
/// always made *before* the first write to C, so beta semantics survive
/// either way (DESIGN.md section 7).
enum class FailurePolicy {
  strict,    ///< throw the typed error (WorkspaceError / std::bad_alloc /
             ///< TaskError) with C untouched
  fallback,  ///< degrade to the workspace-free blas::dgemm path, record it
             ///< in DgefmmStats::fallbacks, and succeed
};

/// Human-readable policy name for reports.
constexpr const char* failure_policy_name(FailurePolicy p) {
  switch (p) {
    case FailurePolicy::strict:
      return "strict";
    case FailurePolicy::fallback:
      return "fallback";
  }
  return "?";
}

/// How odd dimensions are made even at each recursion level.
enum class OddStrategy {
  dynamic_peeling,  ///< strip the odd row/column, fix up with DGER/DGEMV
                    ///< (the paper's choice, Section 3.3)
  dynamic_padding,  ///< zero-pad by one row/column at each level (Douglas
                    ///< et al.'s choice)
  static_padding,   ///< zero-pad once at the top level to a multiple of 2^L
};

/// Execution statistics filled in by dgefmm when requested.
struct DgefmmStats {
  count_t strassen_levels = 0;   ///< recursion nodes that applied Strassen
  count_t base_gemms = 0;        ///< bottom-level DGEMM calls
  count_t peel_fixups = 0;       ///< DGER/DGEMV/DDOT fix-up operations
  count_t pad_copies = 0;        ///< padded operand copies made
  count_t fused_products = 0;    ///< fused multi-destination packed-GEMM calls
  count_t fallbacks = 0;         ///< degradations to the plain DGEMM path
                                 ///< under FailurePolicy::fallback
  count_t faults_injected = 0;   ///< faults the test harness fired during
                                 ///< the call (see support/faultinject.hpp)
  int fused_depth = 0;           ///< fused levels applied at the top (0-2)
  int max_depth = 0;             ///< deepest recursion level applied
  std::size_t peak_workspace = 0;  ///< arena high-water mark, in doubles
  const char* kernel = nullptr;  ///< micro-kernel variant the packed GEMMs
                                 ///< used (blas::KernelInfo::name; static
                                 ///< storage, never freed)
  int gemm_threads = 0;          ///< largest intra-GEMM fan-out the driver
                                 ///< resolved for this call (1 = serial
                                 ///< packed loop; see
                                 ///< blas::packed_gemm_threads)
  count_t steals = 0;            ///< DAG nodes a scheduler lane executed out
                                 ///< of another lane's deque (parallel driver
                                 ///< only; the overlap work-stealing won)
  count_t dag_nodes = 0;         ///< product + combine nodes the task-DAG
                                 ///< executor ran (parallel driver only)
  int dag_lanes = 0;             ///< scheduler lanes the pre-flight planner
                                 ///< allotted (parallel driver only; lanes *
                                 ///< gemm_threads never exceeds the budget)
  const char* tuned_path = nullptr;  ///< schedule the tuned policy selected
                                     ///< (core::tuned_path_name; static
                                     ///< storage), null when the call did
                                     ///< not consult a tuned policy
  std::size_t hugepage_bytes = 0;  ///< bytes of this call's workspace arena
                                   ///< covered by huge-page advice
                                   ///< (support/memadvise.hpp); 0 when the
                                   ///< STRASSEN_HUGEPAGES switch is off or
                                   ///< the arena was caller-provided storage
                                   ///< advised elsewhere
  count_t first_touch_pages = 0;   ///< workspace pages the parallel driver
                                   ///< first-touched on their owning worker
                                   ///< before the compute phase (parallel
                                   ///< driver only)
  count_t pack_hits = 0;           ///< operand blocks streamed from a
                                   ///< prepacked handle or the per-call
                                   ///< panel cache instead of being packed
  count_t pack_misses = 0;         ///< operand blocks packed fresh while a
                                   ///< handle or cache was in play: a failed
                                   ///< consult (stamp/identity hard miss) or
                                   ///< the one-time build of a cache image.
                                   ///< Calls with no handle and no cache
                                   ///< count neither.

  void reset() { *this = DgefmmStats{}; }

  /// Accumulates another call's (or a parallel child task's) statistics
  /// into this one: counters add, depth/peak fields take the maximum.
  void merge_from(const DgefmmStats& o) {
    strassen_levels += o.strassen_levels;
    base_gemms += o.base_gemms;
    peel_fixups += o.peel_fixups;
    pad_copies += o.pad_copies;
    fused_products += o.fused_products;
    fallbacks += o.fallbacks;
    faults_injected += o.faults_injected;
    if (o.fused_depth > fused_depth) fused_depth = o.fused_depth;
    if (o.max_depth > max_depth) max_depth = o.max_depth;
    if (o.peak_workspace > peak_workspace) peak_workspace = o.peak_workspace;
    if (kernel == nullptr) kernel = o.kernel;
    if (o.gemm_threads > gemm_threads) gemm_threads = o.gemm_threads;
    steals += o.steals;
    dag_nodes += o.dag_nodes;
    if (o.dag_lanes > dag_lanes) dag_lanes = o.dag_lanes;
    if (tuned_path == nullptr) tuned_path = o.tuned_path;
    if (o.hugepage_bytes > hugepage_bytes) hugepage_bytes = o.hugepage_bytes;
    first_touch_pages += o.first_touch_pages;
    pack_hits += o.pack_hits;
    pack_misses += o.pack_misses;
  }
};

/// Options controlling a gefmm call, generic over the element type T
/// (double for dgefmm, float for sgefmm). A default-constructed
/// configuration takes the tuned route (CutoffKind::tuned): the installed
/// policy for the active kernel and thread budget picks the schedule, and
/// without one the call is a single pooled GEMM. Name a criterion --
/// CutoffCriterion::paper_default(blas::Machine::rs6000) reproduces the
/// paper's DGEFMM -- to force Strassen. Everything except the workspace
/// arena is element-type independent; the arena holds T, so a float call
/// can never draw storage typed for doubles.
template <class T>
struct GefmmConfigT {
  CutoffCriterion cutoff = CutoffCriterion::tuned();
  Scheme scheme = Scheme::automatic;
  OddStrategy odd = OddStrategy::dynamic_peeling;

  /// Maximum recursion levels the fused schedule folds into single packed
  /// calls (clamped to [1, 2]; only meaningful with Scheme::fused). The
  /// driver automatically fuses fewer levels when dimensions or the cutoff
  /// do not permit the full depth.
  int fused_levels = 2;

  /// Deprecated: equivalent to `cutoff = CutoffCriterion::tuned()` (the
  /// default), and ignores any criterion `cutoff` names. Both take the
  /// tuned route, core/tuned_policy.hpp resolve_tuned. Kept only for
  /// existing callers; new code leaves the default cutoff instead.
  bool use_tuned = false;

  /// Per-call packed-panel cache inside the fused schedule: when the fused
  /// leaves are packed products and their n extent spans multiple GEMM
  /// column strips, the pure single-source quadrant operands' packed images
  /// are built once in a slab carved from the arena reservation (the
  /// workspace predictor accounts for it, so prediction still equals peak)
  /// and streamed for every strip. Results are bitwise identical either
  /// way; hit/miss counts land in DgefmmStats::pack_hits/pack_misses.
  bool panel_cache = true;

  /// Optional prepacked operand handles (blas/pack_operand.hpp) for op(A) /
  /// op(B). Consulted only where a call reduces to a single top-level
  /// packed GEMM (the tuned gemm route and below-cutoff shapes -- the
  /// serving hot path); any stamp or source-identity mismatch is a hard
  /// miss that falls back to fresh packing and counts a pack miss. The
  /// handles are borrowed, never owned: they must outlive the call.
  const blas::PackedOperandT<T>* packed_a = nullptr;
  const blas::PackedOperandT<T>* packed_b = nullptr;

  /// Optional caller-provided workspace. When null, gefmm allocates an
  /// exactly-sized arena internally. Reusing one arena across calls avoids
  /// repeated allocation in inner loops (as the benchmarks do).
  ArenaT<T>* workspace = nullptr;

  /// Optional statistics sink.
  DgefmmStats* stats = nullptr;

  /// What to do when workspace acquisition fails (see FailurePolicy). The
  /// C++ API defaults to strict (typed exceptions); the C/Fortran bindings
  /// default to fallback so a drop-in DGEMM replacement never throws.
  FailurePolicy on_failure = FailurePolicy::strict;
};

using DgefmmConfig = GefmmConfigT<double>;
using SgefmmConfig = GefmmConfigT<float>;

}  // namespace strassen::core
