// Crossover bench (tentpole for the auto-tuning PR): run a real autotune
// pass on this host, install the resulting policy, then sweep square orders
// m = 1024..8192 (smoke: smaller) across every schedule the library has --
// plain DGEMM, the classic eq.-15 hybrid, forced STRASSEN1/STRASSEN2,
// fused x2, the task-DAG top level at 1..bench_threads() lanes, and
// finally `use_tuned` dispatch consulting the freshly installed policy.
// Emits BENCH_crossover.json with per-shape times, the tuned-path the
// policy selected at each shape, and the tuned-vs-DGEMM speedup the
// acceptance gate reads (>= 1.15x at the largest shape where the host
// allows).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/tuned_policy.hpp"
#include "core/workspace.hpp"
#include "parallel/parallel_strassen.hpp"
#include "parallel/task_dag.hpp"
#include "tuning/autotune.hpp"

using namespace strassen;

namespace {

double mflops(index_t m, index_t n, index_t k, double seconds) {
  return 2.0 * double(m) * double(n) * double(k) / seconds * 1e-6;
}

struct Run {
  std::string config;
  std::size_t threads;
  double seconds;
  double mf;
  double speedup_vs_dgemm;
};

struct ShapeResult {
  index_t m;
  double dgemm_seconds;
  std::vector<Run> runs;
  std::string tuned_path;   // what the installed policy picked here
  double tuned_speedup;     // tuned dispatch vs own DGEMM
  bool deterministic;       // tuned run bitwise equal across thread budgets
};

// Times one parallel (task-DAG capable) configuration on p.
double time_parallel(bench::Problem& p, parallel::ParallelDgefmmConfig cfg,
                     Arena& arena, int reps) {
  cfg.workspace = &arena;
  const index_t m = p.m();
  return bench::time_problem(
      p,
      [&] {
        if (parallel::dgefmm_parallel(Trans::no, Trans::no, m, m, m, 1.0,
                                      p.a.data(), p.a.ld(), p.b.data(),
                                      p.b.ld(), 0.0, p.c.data(), p.c.ld(),
                                      cfg) != 0) {
          std::abort();
        }
      },
      reps);
}

}  // namespace

int main() {
  bench::banner("crossover auto-tuning: tuned hybrid vs every schedule",
                "Section 4.2 eq. 15, extended per-kernel/per-scheme");

  const std::size_t bt = bench::bench_threads();
  const std::size_t pool = parallel::global_pool().size();

  // Stage 1: measure this host. A modest sweep is enough -- the crossovers
  // live well below the bench shapes, and the persisted taus extrapolate
  // upward in Strassen's favour.
  tuning::AutotuneOptions opts;
  opts.min_size = 256;
  opts.max_size = bench::pick<index_t>(768, 2048);
  opts.reps = bench::pick(1, 2);
  opts.dag_threads = bt;
  std::printf("autotuning (sweep %d..%d, reps %d, dag threads %zu)...\n",
              int(opts.min_size), int(opts.max_size), opts.reps, bt);
  const tuning::TunedCriteria tuned = tuning::autotune_double(opts);
  std::printf(
      "  kernel %s  tau_fused %.0f  tau_fused2 %.0f  tau_hybrid %.0f  "
      "tau_s2 %.0f  tau_dag %.0f\n",
      tuned.kernel.c_str(), tuned.tau_fused, tuned.tau_fused2,
      tuned.tau_hybrid, tuned.tau_s2, tuned.tau_dag);
  if (!tuning::install_criteria(tuned)) {
    std::fprintf(stderr, "install_criteria rejected the fresh criteria\n");
    return 1;
  }

  // Stage 2: sweep shapes across schedules. Min-of-2 everywhere: host
  // frequency drift between consecutive 20-second runs is larger than the
  // crossover margins being measured, and a single rep charges whichever
  // config runs during the slow phase (the spread between two runs of the
  // *same* schedule at m = 8192 was measured at 11%).
  std::vector<index_t> shapes =
      bench::full_mode()
          ? std::vector<index_t>{1024, 2048, 3072, 4096, 6144, 8192}
          : std::vector<index_t>{384, 768, 1024};

  std::vector<ShapeResult> results;
  for (const index_t m : shapes) {
    const int reps = 2;
    bench::Problem p(m, m, m);
    // Untimed warmup: first contact with the fresh operands (page faults)
    // must not land inside the first timed config -- it is the baseline
    // every other config is normalized against.
    (void)bench::time_dgemm(p, 1.0, 0.0, 1);
    ShapeResult sr;
    sr.m = m;
    sr.dgemm_seconds = bench::time_dgemm(p, 1.0, 0.0, reps);

    auto add = [&](const std::string& name, std::size_t threads, double t) {
      sr.runs.push_back(
          Run{name, threads, t, mflops(m, m, m, t), sr.dgemm_seconds / t});
    };
    add("dgemm", 1, sr.dgemm_seconds);

    Arena arena;
    {  // the classic eq.-15 hybrid and the forced schemes, tuned cutoffs
      core::DgefmmConfig cfg;
      cfg.cutoff = tuned.beta_zero;
      cfg.scheme = core::Scheme::automatic;
      add("hybrid-auto", 1, bench::time_dgefmm(p, 1.0, 0.0, cfg, arena, reps));
      cfg.scheme = core::Scheme::strassen1;
      add("strassen1", 1, bench::time_dgefmm(p, 1.0, 0.0, cfg, arena, reps));
      cfg.scheme = core::Scheme::strassen2;
      add("strassen2", 1, bench::time_dgefmm(p, 1.0, 0.0, cfg, arena, reps));
      cfg.scheme = core::Scheme::fused;
      cfg.fused_levels = 2;
      add("fused-x2", 1, bench::time_dgefmm(p, 1.0, 0.0, cfg, arena, reps));
    }
    {  // the task-DAG schedule at each thread budget
      std::vector<std::size_t> budgets = {1, bt};
      std::sort(budgets.begin(), budgets.end());
      budgets.erase(std::unique(budgets.begin(), budgets.end()),
                    budgets.end());
      for (const std::size_t threads : budgets) {
        parallel::ParallelDgefmmConfig cfg;
        cfg.cutoff = tuned.beta_zero;
        cfg.scheme = core::Scheme::fused;
        cfg.threads = threads;
        add("dag", threads, time_parallel(p, cfg, arena, reps));
      }
    }
    {  // tuned dispatch: the policy picks the path, we record which
      parallel::ParallelDgefmmConfig cfg;
      cfg.use_tuned = true;
      cfg.threads = bt;
      core::DgefmmStats stats;
      cfg.stats = &stats;
      const double t = time_parallel(p, cfg, arena, reps);
      add("tuned", bt, t);
      sr.tuned_path =
          stats.tuned_path != nullptr ? stats.tuned_path : "(none)";
      sr.tuned_speedup = sr.dgemm_seconds / t;
      sr.deterministic = true;
      if (bt > 1) {  // bitwise identity across intra-GEMM fan-out
        // The route is keyed by the budget, so keep it and pin every GEMM
        // outside the DAG leaves to one thread instead.
        Matrix c_ref(m, m);
        copy(p.c.view(), c_ref.view());
        blas::ScopedGemmThreads serial_gemm(1);
        (void)time_parallel(p, cfg, arena, 1);
        sr.deterministic =
            std::memcmp(c_ref.data(), p.c.data(),
                        std::size_t(m) * std::size_t(m) * sizeof(double)) ==
            0;
      }
    }
    results.push_back(sr);

    std::printf("m=%d: dgemm %.3fs, tuned %.3fs (%.2fx, path %s%s)\n",
                int(m), sr.dgemm_seconds,
                sr.runs.back().seconds, sr.tuned_speedup,
                sr.tuned_path.c_str(),
                sr.deterministic ? "" : ", NOT bitwise-stable");
  }

  TextTable table({"m", "config", "threads", "time (s)", "MFLOPS",
                   "vs DGEMM", "tuned path"});
  for (const ShapeResult& sr : results) {
    for (const Run& r : sr.runs) {
      table.add_row({std::to_string(sr.m), r.config,
                     std::to_string(r.threads), fmt(r.seconds, 4),
                     fmt(r.mf, 0), fmt(r.speedup_vs_dgemm, 2),
                     r.config == "tuned" ? sr.tuned_path : "-"});
    }
  }
  table.print(std::cout);

  const char* json_env = std::getenv("STRASSEN_BENCH_JSON");
  const std::string json_path =
      json_env != nullptr ? json_env : "BENCH_crossover.json";
  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"kernel\": \"%s\",\n", tuned.kernel.c_str());
  std::fprintf(f, "  \"pool_workers\": %zu,\n", pool);
  std::fprintf(f, "  \"bench_threads\": %zu,\n", bt);
  std::fprintf(f,
               "  \"criteria\": {\"tau_fused\": %.1f, \"tau_fused2\": %.1f, "
               "\"tau_hybrid\": %.1f, \"tau_s2\": %.1f, \"tau_dag\": %.1f, "
               "\"threads\": %d},\n",
               tuned.tau_fused, tuned.tau_fused2, tuned.tau_hybrid,
               tuned.tau_s2, tuned.tau_dag, tuned.threads);
  std::fprintf(f, "  \"shapes\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ShapeResult& sr = results[i];
    std::fprintf(f,
                 "    {\"m\": %d, \"tuned_path\": \"%s\", "
                 "\"tuned_speedup_vs_dgemm\": %.3f, \"deterministic\": %s, "
                 "\"runs\": [\n",
                 int(sr.m), sr.tuned_path.c_str(), sr.tuned_speedup,
                 sr.deterministic ? "true" : "false");
    for (std::size_t j = 0; j < sr.runs.size(); ++j) {
      const Run& r = sr.runs[j];
      std::fprintf(f,
                   "      {\"config\": \"%s\", \"threads\": %zu, "
                   "\"seconds\": %.6f, \"mflops\": %.1f, "
                   "\"speedup_vs_dgemm\": %.3f}%s\n",
                   r.config.c_str(), r.threads, r.seconds, r.mf,
                   r.speedup_vs_dgemm, j + 1 < sr.runs.size() ? "," : "");
    }
    std::fprintf(f, "    ]}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
