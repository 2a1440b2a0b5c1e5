#include "tuning/autotune.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <type_traits>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/kernels.hpp"
#include "core/dgefmm.hpp"
#include "core/sgefmm.hpp"
#include "parallel/parallel_strassen.hpp"
#include "parallel/task_dag.hpp"
#include "support/errors.hpp"
#include "support/random.hpp"
#include "support/thread_pool.hpp"
#include "support/timing.hpp"

namespace strassen::tuning {

namespace {

template <class T>
MatrixT<T> random_matrix_t(index_t m, index_t n, Rng& rng) {
  if constexpr (std::is_same_v<T, float>) {
    return random_matrix_f(m, n, rng);
  } else {
    return random_matrix(m, n, rng);
  }
}

template <class T>
void gemm_t(index_t m, index_t n, index_t k, T alpha, const T* a, index_t lda,
            const T* b, index_t ldb, T beta, T* c, index_t ldc) {
  if constexpr (std::is_same_v<T, float>) {
    blas::sgemm(Trans::no, Trans::no, m, n, k, alpha, a, lda, b, ldb, beta, c,
                ldc);
  } else {
    blas::dgemm(Trans::no, Trans::no, m, n, k, alpha, a, lda, b, ldb, beta, c,
                ldc);
  }
}

template <class T>
int gefmm_t(index_t m, index_t n, index_t k, T alpha, const T* a, index_t lda,
            const T* b, index_t ldb, T beta, T* c, index_t ldc,
            const core::GefmmConfigT<T>& cfg) {
  if constexpr (std::is_same_v<T, float>) {
    return core::sgefmm(Trans::no, Trans::no, m, n, k, alpha, a, lda, b, ldb,
                        beta, c, ldc, cfg);
  } else {
    return core::dgefmm(Trans::no, Trans::no, m, n, k, alpha, a, lda, b, ldb,
                        beta, c, ldc, cfg);
  }
}

template <class T>
int gefmm_parallel_t(index_t m, index_t n, index_t k, T alpha, const T* a,
                     index_t lda, const T* b, index_t ldb, T beta, T* c,
                     index_t ldc, const parallel::ParallelGefmmConfigT<T>& cfg) {
  if constexpr (std::is_same_v<T, float>) {
    return parallel::sgefmm_parallel(Trans::no, Trans::no, m, n, k, alpha, a,
                                     lda, b, ldb, beta, c, ldc, cfg);
  } else {
    return parallel::dgefmm_parallel(Trans::no, Trans::no, m, n, k, alpha, a,
                                     lda, b, ldb, beta, c, ldc, cfg);
  }
}

template <class T>
count_t workspace_t(index_t m, index_t n, index_t k, T beta,
                    const core::GefmmConfigT<T>& cfg) {
  if constexpr (std::is_same_v<T, float>) {
    return core::sgefmm_workspace_floats(m, n, k, beta, cfg);
  } else {
    return core::dgefmm_workspace_doubles(m, n, k, beta, cfg);
  }
}

// Element-generic twin of tuning::measured_ratio (crossover.cpp): times the
// plain GEMM against one level of fixed-depth recursion, so the eq.-15
// search functions can run in either precision against their own kernels.
template <class T>
RatioFn measured_ratio_t(const CrossoverOptions& opts) {
  return [opts](index_t m, index_t k, index_t n) {
    Rng rng(static_cast<std::uint64_t>(m * 7919 + k * 131 + n));
    MatrixT<T> a = random_matrix_t<T>(m, k, rng);
    MatrixT<T> b = random_matrix_t<T>(k, n, rng);
    MatrixT<T> c = random_matrix_t<T>(m, n, rng);
    const T alpha = static_cast<T>(opts.alpha);
    const T beta = static_cast<T>(opts.beta);

    core::GefmmConfigT<T> one_level;
    one_level.cutoff = core::CutoffCriterion::fixed_depth(1);
    ArenaT<T> arena(
        static_cast<std::size_t>(workspace_t<T>(m, n, k, beta, one_level)));
    one_level.workspace = &arena;

    const double t_gemm = time_min(
        [&] {
          gemm_t<T>(m, n, k, alpha, a.data(), a.ld(), b.data(), b.ld(), beta,
                    c.data(), c.ld());
        },
        opts.reps);
    const double t_strassen = time_min(
        [&] {
          [[maybe_unused]] const int info =
              gefmm_t<T>(m, n, k, alpha, a.data(), a.ld(), b.data(), b.ld(),
                         beta, c.data(), c.ld(), one_level);
          assert(info == 0);
        },
        opts.reps);
    return t_gemm / t_strassen;
  };
}

template <class T>
core::CutoffCriterion tune_hybrid_t(const CrossoverOptions& opts) {
  const RatioFn ratio = measured_ratio_t<T>(opts);
  const SquareCrossover sq = find_square_crossover(opts, ratio);
  const RectangularParams rect = find_rectangular_params(opts, ratio);
  return core::CutoffCriterion::hybrid(
      static_cast<double>(std::max<index_t>(sq.tau, 2)),
      static_cast<double>(std::max<index_t>(rect.tau_m, 2)),
      static_cast<double>(std::max<index_t>(rect.tau_k, 2)),
      static_cast<double>(std::max<index_t>(rect.tau_n, 2)));
}

// Crossover reduction for an "alternative schedule vs incumbent" sweep
// where the alternative may simply never win in range: 0 then (the
// "never" sentinel), instead of crossover_from_sweep's last swept size
// (which would extrapolate a win above the range).
double crossover_or_never(const std::vector<SweepPoint>& sweep) {
  bool any_win = false;
  for (const SweepPoint& p : sweep) any_win = any_win || p.ratio > 1.0;
  if (!any_win) return 0;
  return static_cast<double>(std::max<index_t>(crossover_from_sweep(sweep), 1));
}

// Times every candidate schedule at order s, all drawing from pre-reserved
// workspace so the timed region is pure compute.
template <class T>
SchemePoint time_schemes(index_t s, const core::CutoffCriterion& cutoff,
                         int budget, const AutotuneOptions& opts) {
  SchemePoint out;
  out.s = s;
  Rng rng(static_cast<std::uint64_t>(s) * 2654435761u + 17);
  MatrixT<T> a = random_matrix_t<T>(s, s, rng);
  MatrixT<T> b = random_matrix_t<T>(s, s, rng);
  MatrixT<T> c = random_matrix_t<T>(s, s, rng);
  const T alpha = T(1);
  const T beta = T(0);

  core::GefmmConfigT<T> fused1;
  fused1.cutoff = cutoff;
  fused1.scheme = core::Scheme::fused;
  fused1.fused_levels = 1;
  core::GefmmConfigT<T> fused2 = fused1;
  fused2.fused_levels = 2;
  // Classic eq.-15 hybrid recursion: the fused schedules cap at two levels,
  // but this one keeps splitting with the problem, so at large orders it is
  // the serial schedule to beat.
  core::GefmmConfigT<T> hybrid;
  hybrid.cutoff = cutoff;
  hybrid.scheme = core::Scheme::automatic;
  // Forced STRASSEN2: at beta == 0 the automatic hybrid resolves to
  // STRASSEN1, so this is a genuinely distinct candidate -- the one that
  // won the m = 4096 shape the hybrid-only sweep mis-routed.
  core::GefmmConfigT<T> s2cfg;
  s2cfg.cutoff = cutoff;
  s2cfg.scheme = core::Scheme::strassen2;

  ArenaT<T> arena(static_cast<std::size_t>(
      std::max({workspace_t<T>(s, s, s, beta, fused1),
                workspace_t<T>(s, s, s, beta, fused2),
                workspace_t<T>(s, s, s, beta, hybrid),
                workspace_t<T>(s, s, s, beta, s2cfg)})));
  fused1.workspace = &arena;
  fused2.workspace = &arena;
  hybrid.workspace = &arena;
  s2cfg.workspace = &arena;

  parallel::ParallelGefmmConfigT<T> pcfg;
  pcfg.cutoff = cutoff;
  pcfg.scheme = core::Scheme::fused;
  pcfg.threads = static_cast<std::size_t>(budget);
  const parallel::DagPlan plan = parallel::plan_dag(s, s, s, pcfg);
  ArenaT<T> parena(static_cast<std::size_t>(plan.workspace));
  pcfg.workspace = &parena;

  // Untimed warmup: first contact with the fresh matrices and the
  // persistent pack buffers (page faults, lazy kernel dispatch) must not
  // land inside the first timed schedule -- at reps == 1 it would bias
  // every ratio toward whichever schedule happens to run second.
  gemm_t<T>(s, s, s, alpha, a.data(), a.ld(), b.data(), b.ld(), beta,
            c.data(), c.ld());

  out.gemm = time_min(
      [&] {
        gemm_t<T>(s, s, s, alpha, a.data(), a.ld(), b.data(), b.ld(), beta,
                  c.data(), c.ld());
      },
      opts.reps);
  const auto run = [&](const core::GefmmConfigT<T>& cfg) {
    [[maybe_unused]] const int info =
        gefmm_t<T>(s, s, s, alpha, a.data(), a.ld(), b.data(), b.ld(), beta,
                   c.data(), c.ld(), cfg);
    assert(info == 0);
  };
  out.fused1 = time_min([&] { run(fused1); }, opts.reps);
  out.fused2 = time_min([&] { run(fused2); }, opts.reps);
  out.hybrid = time_min([&] { run(hybrid); }, opts.reps);
  out.s2 = time_min([&] { run(s2cfg); }, opts.reps);
  out.dag = time_min(
      [&] {
        [[maybe_unused]] const int info =
            gefmm_parallel_t<T>(s, s, s, alpha, a.data(), a.ld(), b.data(),
                                b.ld(), beta, c.data(), c.ld(), pcfg);
        assert(info == 0);
      },
      opts.reps);
  return out;
}

template <class T>
TunedCriteria autotune_t(const AutotuneOptions& opts) {
  // Every schedule is timed under one thread budget -- the serial ones as
  // their intra-GEMM fan-out, the DAG as its core budget -- and the
  // policy records it: crossovers measured on four threads say nothing
  // about a one-thread caller.
  const int budget = blas::gemm_thread_budget(opts.dag_threads);
  const blas::ScopedGemmThreads timed_budget(budget);
  TunedCriteria out;
  out.kernel = blas::active_kernel_t<T>().name;
  out.elem = std::is_same_v<T, float> ? "f32" : "f64";
  if (opts.tune_cutoffs) {
    CrossoverOptions beta0 = opts.eq15;
    beta0.alpha = 1.0;
    beta0.beta = 0.0;
    out.beta_zero = tune_hybrid_t<T>(beta0);
    CrossoverOptions general = opts.eq15;
    general.alpha = 1.0;
    general.beta = 1.0;
    out.general = tune_hybrid_t<T>(general);
  }

  // Scheme sweep: geometric sizes (x1.5, rounded to a multiple of 8 so
  // the top levels always split evenly), every schedule timed at each.
  std::vector<SchemePoint> sweep;
  const index_t min_size = std::max<index_t>(opts.min_size, 32);
  for (index_t s = min_size; s <= opts.max_size;
       s = std::max<index_t>((s + s / 2) / 8 * 8, s + 8)) {
    sweep.push_back(time_schemes<T>(s, out.beta_zero, budget, opts));
  }
  SchemeCrossovers x = reduce_scheme_sweep(sweep);
  // Midpoint refinement of the hybrid crossover: the geometric stride
  // leaves a ~50% size gap around the flip, and tau_hybrid gates the
  // biggest schedule change of the dispatch (capped fused -> growing
  // recursion). One extra measurement inside the bracketing interval
  // halves the region where near-crossover shapes can be mis-routed.
  if (x.tau_hybrid > 0) {
    for (std::size_t i = 0; i + 1 < sweep.size(); ++i) {
      if (static_cast<double>(sweep[i].s) > x.tau_hybrid ||
          static_cast<double>(sweep[i + 1].s) <= x.tau_hybrid) {
        continue;
      }
      const index_t mid = (sweep[i].s + sweep[i + 1].s) / 2 / 8 * 8;
      if (mid > sweep[i].s && mid < sweep[i + 1].s) {
        sweep.insert(sweep.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                     time_schemes<T>(mid, out.beta_zero, budget, opts));
        x = reduce_scheme_sweep(sweep);
      }
      break;
    }
  }
  out.tau_fused = x.tau_fused;
  out.tau_fused2 = x.tau_fused2;
  out.tau_hybrid = x.tau_hybrid;
  out.tau_s2 = x.tau_s2;
  out.tau_dag = x.tau_dag;
  out.threads = budget;
  return out;
}

}  // namespace

SchemeCrossovers reduce_scheme_sweep(const std::vector<SchemePoint>& sweep) {
  SchemeCrossovers out;
  if (sweep.empty()) return out;
  // Five pairwise ratio sweeps, each "incumbent / challenger" so ratio > 1
  // means the challenger won at that size. The hybrid sweep compares the
  // best capped-fused schedule against the best classic recursion (automatic
  // hybrid OR forced STRASSEN2) -- comparing against the automatic hybrid
  // alone is exactly the bug that mis-routed m = 4096: the regime flip was
  // dated by a recursion variant that was itself the measured-worst one.
  std::vector<SweepPoint> fused_sweep;   // gemm vs fused-L1
  std::vector<SweepPoint> fused2_sweep;  // fused-L1 vs fused-L2
  std::vector<SweepPoint> hybrid_sweep;  // best fused vs best classic
  std::vector<SweepPoint> s2_sweep;      // automatic hybrid vs forced S2
  std::vector<SweepPoint> dag_sweep;     // best serial vs DAG
  for (const SchemePoint& t : sweep) {
    const double best_fused = std::min(t.fused1, t.fused2);
    const double best_classic = std::min(t.hybrid, t.s2);
    fused_sweep.push_back({t.s, t.gemm / t.fused1});
    fused2_sweep.push_back({t.s, t.fused1 / t.fused2});
    hybrid_sweep.push_back({t.s, best_fused / best_classic});
    s2_sweep.push_back({t.s, t.hybrid / t.s2});
    dag_sweep.push_back({t.s, std::min(best_fused, best_classic) / t.dag});
  }
  // Every threshold uses the "never" sentinel: a sweep in which pooled
  // GEMM won at every size routes GEMM beyond the sweep as well, instead
  // of extrapolating a Strassen win nothing measured.
  out.tau_fused = crossover_or_never(fused_sweep);
  out.tau_fused2 = crossover_or_never(fused2_sweep);
  out.tau_hybrid = crossover_or_never(hybrid_sweep);
  out.tau_s2 = crossover_or_never(s2_sweep);
  out.tau_dag = crossover_or_never(dag_sweep);
  // tau_s2 only means anything inside the classic regime (tuned_path_for
  // consults it after the tau_hybrid gate). Clamp it up to tau_hybrid when
  // STRASSEN2 already wins at the regime boundary, and drop it entirely
  // when the classic recursion never wins at all.
  if (out.tau_hybrid <= 0) {
    out.tau_s2 = 0;
  } else if (out.tau_s2 > 0 && out.tau_s2 < out.tau_hybrid) {
    out.tau_s2 = out.tau_hybrid;
  }
  return out;
}

TunedCriteria autotune_double(const AutotuneOptions& opts) {
  return autotune_t<double>(opts);
}

TunedCriteria autotune_float(const AutotuneOptions& opts) {
  return autotune_t<float>(opts);
}

core::TunedPolicy policy_from_criteria(const TunedCriteria& criteria) {
  core::TunedPolicy policy;
  policy.beta_zero = criteria.beta_zero;
  policy.general = criteria.general;
  policy.tau_fused = criteria.tau_fused;
  policy.tau_fused2 = criteria.tau_fused2;
  policy.tau_hybrid = criteria.tau_hybrid;
  policy.tau_s2 = criteria.tau_s2;
  policy.tau_dag = criteria.tau_dag;
  policy.threads = criteria.threads;
  std::snprintf(policy.kernel, sizeof(policy.kernel), "%s",
                criteria.kernel.c_str());
  return policy;
}

bool install_criteria(const TunedCriteria& criteria) {
  if (!criteria.matches_active_kernel()) return false;
  const core::TunedPolicy policy = policy_from_criteria(criteria);
  if (criteria.elem == "f32") {
    core::install_tuned_policy<float>(policy);
  } else {
    core::install_tuned_policy<double>(policy);
  }
  return true;
}

TunedCriteria load_matching_criteria_file(const std::string& path,
                                          const std::string& elem_kind) {
  TunedCriteria criteria = load_criteria_file(path);
  if (!criteria.matches_element(elem_kind)) {
    throw Error("tuned-criteria file '" + path + "': tuned for elem=" +
                criteria.elem + ", wanted " + elem_kind);
  }
  if (!criteria.matches_active_kernel()) {
    const char* active = elem_kind == "f32" ? blas::active_kernel_f().name
                                            : blas::active_kernel().name;
    throw Error("tuned-criteria file '" + path + "': tuned under kernel '" +
                criteria.kernel + "' but the active dispatch is '" + active +
                "'; re-run the autotune pass");
  }
  return criteria;
}

}  // namespace strassen::tuning
