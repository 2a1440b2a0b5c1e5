#include "core/workspace.hpp"

#include <algorithm>

#include "core/padding.hpp"
#include "core/tuned_policy.hpp"
#include "core/winograd_fused.hpp"
#include "verify/proofs.hpp"

namespace strassen::core {

namespace {

Scheme resolve(Scheme s, bool beta_zero) {
  // The fused schedule runs the classic automatic schedules below its
  // fusion depth, so it resolves like `automatic` here.
  if (s == Scheme::automatic || s == Scheme::fused) {
    return beta_zero ? Scheme::strassen1 : Scheme::strassen2;
  }
  return s;
}

// Per-level charge of one verified schedule table: the interpreter
// allocates exactly the table's declared temporaries, and the pebble pass
// (verify/proofs.hpp) has static_asserted that Schedule::footprint is the
// tight per-shape peak of those declarations, so charging the footprint is
// charging the implementation.
count_t per_level(const verify::Schedule& s, index_t m2, index_t k2,
                  index_t n2) {
  return verify::footprint_doubles(s.footprint, m2, k2, n2);
}

// Mirrors detail::fmm's allocation pattern exactly.
count_t ws(index_t m, index_t k, index_t n, bool beta_zero,
           const DgefmmConfig& cfg, int depth) {
  if (m == 0 || n == 0) return 0;
  if (m < 2 || k < 2 || n < 2 || cfg.cutoff.stop(m, k, n, depth)) return 0;

  const bool odd = ((m | k | n) & 1) != 0;
  if (odd) {
    switch (cfg.odd) {
      case OddStrategy::dynamic_peeling:
        break;
      case OddStrategy::dynamic_padding: {
        const index_t mp = m + (m & 1), kp = k + (k & 1), np = n + (n & 1);
        return static_cast<count_t>(mp) * kp + static_cast<count_t>(kp) * np +
               static_cast<count_t>(mp) * np +
               ws(mp, kp, np, beta_zero, cfg, depth);
      }
      case OddStrategy::static_padding:
        return 0;  // odd inside a statically padded recursion => DGEMM
    }
  }

  const index_t m2 = (m & ~index_t{1}) / 2;
  const index_t k2 = (k & ~index_t{1}) / 2;
  const index_t n2 = (n & ~index_t{1}) / 2;

  switch (resolve(cfg.scheme, beta_zero)) {
    case Scheme::automatic:  // resolved above
    case Scheme::fused:      // resolved above
    case Scheme::strassen1: {
      if (beta_zero) {
        return per_level(verify::kStrassen1Beta0, m2, k2, n2) +
               ws(m2, k2, n2, true, cfg, depth + 1);
      }
      // All seven sub-products are beta == 0 multiplies.
      return per_level(verify::kStrassen1General, m2, k2, n2) +
             ws(m2, k2, n2, true, cfg, depth + 1);
    }
    case Scheme::strassen2:
      // Children are a mix of pure multiplies (beta == 0) and
      // multiply-accumulates; size for the larger of the two.
      return per_level(verify::kStrassen2, m2, k2, n2) +
             std::max(ws(m2, k2, n2, true, cfg, depth + 1),
                      ws(m2, k2, n2, false, cfg, depth + 1));
    case Scheme::original: {
      const count_t ctmp = beta_zero ? 0
                                     : static_cast<count_t>(m & ~index_t{1}) *
                                           (n & ~index_t{1});
      return ctmp + per_level(verify::kOriginalBeta0, m2, k2, n2) +
             ws(m2, k2, n2, true, cfg, depth + 1);
    }
  }
  return 0;
}

// Mirrors detail::fmm_fused: fused levels allocate nothing (operand sums
// live in the BLAS pack buffers, U accumulations in C itself); only leaves
// the cutoff still wants to recurse on materialize into the arena, and the
// sequential leaves all share the same per-leaf footprint.
count_t ws_fused(index_t m, index_t k, index_t n, const DgefmmConfig& cfg,
                 int depth) {
  if (m == 0 || n == 0) return 0;
  if (m < 2 || k < 2 || n < 2 || cfg.cutoff.stop(m, k, n, depth)) return 0;
  const index_t m2 = (m & ~index_t{1}) / 2;
  const index_t k2 = (k & ~index_t{1}) / 2;
  const index_t n2 = (n & ~index_t{1}) / 2;
  int levels = 1;
  if (std::clamp(cfg.fused_levels, 1, 2) >= 2 && ((m2 | k2 | n2) & 1) == 0 &&
      !cfg.cutoff.stop(m2, k2, n2, depth + 1)) {
    levels = 2;
  }
  const int shift = levels - 1;
  return detail::fused_product_workspace(m2 >> shift, k2 >> shift,
                                         n2 >> shift, cfg, depth + levels);
}

}  // namespace

DgefmmConfig sizing_config(const SgefmmConfig& cfg) {
  DgefmmConfig d;
  d.cutoff = cfg.cutoff;
  d.scheme = cfg.scheme;
  d.odd = cfg.odd;
  d.fused_levels = cfg.fused_levels;
  // Deliberately off: the shared recursion counts shape-derived elements,
  // but the panel-cache slab depends on the element type's kernel and
  // blocking, so workspace_floats adds its own float-sized term instead of
  // inheriting a double-sized one here.
  d.panel_cache = false;
  return d;
}

count_t workspace_doubles_at(index_t m, index_t n, index_t k, double beta,
                             const DgefmmConfig& cfg, int depth) {
  return ws(m, k, n, beta == 0.0, cfg, depth);
}

count_t workspace_doubles(index_t m, index_t n, index_t k, double beta,
                          const DgefmmConfig& cfg) {
  if (routes_tuned(cfg)) {
    // The same resolution the driver applies, so the predicted peak is the
    // peak of the schedule that actually runs. The GEMM route draws no
    // arena workspace at all.
    DgefmmConfig eff = cfg;
    if (resolve_tuned<double>(m, k, n, beta, eff) == TunedPath::gemm) {
      return 0;
    }
    return workspace_doubles(m, n, k, beta, eff);
  }
  const bool beta_zero = (beta == 0.0);
  if (cfg.scheme == Scheme::fused) {
    // Fused always peels odd dimensions, so cfg.odd plays no role at the
    // fused levels (the classic recursion below honours it via ws()).
    // The packed-panel cache slab and the classic leaf recursion are
    // mutually exclusive (the slab exists only when every leaf is a packed
    // product), so the sum below is exactly one of its two terms.
    return ws_fused(m, k, n, cfg, 0) +
           detail::fused_cache_elements<double>(m, k, n, cfg, 0);
  }
  if (cfg.odd == OddStrategy::static_padding) {
    const int levels = detail::static_padding_depth(cfg.cutoff, m, k, n);
    const index_t mp = detail::pad_up(m, levels);
    const index_t kp = detail::pad_up(k, levels);
    const index_t np = detail::pad_up(n, levels);
    count_t copies = 0;
    if (mp != m || kp != k || np != n) {
      copies = static_cast<count_t>(mp) * kp + static_cast<count_t>(kp) * np +
               static_cast<count_t>(mp) * np;
    }
    return copies + ws(mp, kp, np, beta_zero, cfg, 0);
  }
  return ws(m, k, n, beta_zero, cfg, 0);
}

count_t workspace_floats(index_t m, index_t n, index_t k, float beta,
                         const SgefmmConfig& cfg) {
  if (routes_tuned(cfg)) {
    // Resolve against the *float* policy before dropping to the shared
    // double-counted recursion: each element type consults its own
    // crossovers, and the resolved cutoff is explicit, so sizing_config's
    // double recursion never routes again.
    SgefmmConfig eff = cfg;
    if (resolve_tuned<float>(m, k, n, beta, eff) == TunedPath::gemm) {
      return 0;
    }
    return workspace_floats(m, n, k, beta, eff);
  }
  count_t elems = workspace_doubles(m, n, k, static_cast<double>(beta),
                                    sizing_config(cfg));
  if (cfg.scheme == Scheme::fused) {
    // The float call's own cache slab, sized by the float kernel and
    // blocking (sizing_config dropped the double-sized term on purpose).
    elems += detail::fused_cache_elements<float>(m, k, n, cfg, 0);
  }
  return elems;
}

count_t parallel_workspace_doubles(index_t m, index_t n, index_t k,
                                   const DgefmmConfig& cfg, int lanes) {
  // Mirrors parallel/task_dag.cpp exactly: the even core splits into the
  // 2x2 quadrant grid, each of the seven product nodes owns one (mb x nb)
  // temporary, and each scheduler lane owns one leaf sub-arena sized for
  // the deepest fused_product it can run.
  const index_t mb = (m & ~index_t{1}) >> 1;
  const index_t kb = (k & ~index_t{1}) >> 1;
  const index_t nb = (n & ~index_t{1}) >> 1;
  if (mb == 0 || kb == 0 || nb == 0) return 0;
  const count_t lane_ws = detail::fused_product_workspace(mb, kb, nb, cfg, 1);
  return 7 * (static_cast<count_t>(mb) * nb) +
         static_cast<count_t>(std::max(lanes, 1)) * lane_ws;
}

count_t parallel_workspace_floats(index_t m, index_t n, index_t k,
                                  const SgefmmConfig& cfg, int lanes) {
  return parallel_workspace_doubles(m, n, k, sizing_config(cfg), lanes);
}

double bound_strassen1_beta0(index_t m, index_t k, index_t n) {
  return (static_cast<double>(m) * static_cast<double>(std::max(k, n)) +
          static_cast<double>(k) * static_cast<double>(n)) /
         3.0;
}

double bound_strassen1_general(index_t m, index_t k, index_t n) {
  return (4.0 * static_cast<double>(m) * static_cast<double>(n) +
          static_cast<double>(m) * static_cast<double>(std::max(k, n)) +
          static_cast<double>(k) * static_cast<double>(n)) /
         3.0;
}

double bound_strassen2(index_t m, index_t k, index_t n) {
  return (static_cast<double>(m) * static_cast<double>(k) +
          static_cast<double>(k) * static_cast<double>(n) +
          static_cast<double>(m) * static_cast<double>(n)) /
         3.0;
}

}  // namespace strassen::core
