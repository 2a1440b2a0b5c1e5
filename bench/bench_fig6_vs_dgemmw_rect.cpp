// Figure 6: DGEFMM vs DGEMMW-like on randomly generated RECTANGULAR
// problems, plotted against log10(2mkn), with general alpha and beta.
// Reproduced claim: the average ratio improves for rectangular problems
// relative to the square case (paper: 0.974 vs 0.991) because DGEMMW's
// simple cutoff (eq. 11) forgoes beneficial recursions that DGEFMM's
// hybrid criterion (eq. 15) takes.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "compare/dgemmw_like.hpp"
#include "support/stats.hpp"

using namespace strassen;

int main() {
  bench::banner("DGEFMM vs DGEMMW-like (random rectangular, general a/b)",
                "Figure 6");

  // Dimension ranges follow the paper: from around the rectangular
  // parameters (75/125/95) up to the sweep maximum.
  const index_t hi = bench::pick<index_t>(512, 2050);
  const int samples = bench::pick(14, 100);
  const double alpha = 0.7, beta = 0.3;

  core::DgefmmConfig cfg;  // paper-default hybrid criterion (199,75,125,95)
  cfg.cutoff = core::CutoffCriterion::paper_default(blas::Machine::rs6000);
  bench::report_schedule(cfg, beta);
  std::cout << "\n";

  TextTable t({"log10(2mkn)", "m", "k", "n", "ratio"});
  Arena arena_f, arena_w;
  std::vector<double> ratios;
  Rng rng(777);
  for (int s = 0; s < samples; ++s) {
    const index_t m = rng.uniform_index(75, hi);
    const index_t k = rng.uniform_index(125, hi);
    const index_t n = rng.uniform_index(95, hi);
    bench::Problem p(m, k, n, static_cast<std::uint64_t>(s) + 1);
    compare::DgemmwConfig wcfg;
    wcfg.tau = 199.0;
    wcfg.workspace = &arena_w;
    const double t_f = bench::time_dgefmm(p, alpha, beta, cfg, arena_f, 2);
    const double t_w = bench::time_problem(
        p,
        [&] {
          compare::dgemmw(Trans::no, Trans::no, m, n, k, alpha, p.a.data(),
                          p.a.ld(), p.b.data(), p.b.ld(), beta, p.c.data(),
                          p.c.ld(), wcfg);
        },
        2);
    const double logwork = std::log10(2.0 * double(m) * double(k) * double(n));
    t.add_row({fmt(logwork, 2), fmt(static_cast<long long>(m)),
               fmt(static_cast<long long>(k)), fmt(static_cast<long long>(n)),
               fmt(t_f / t_w, 4)});
    ratios.push_back(t_f / t_w);
  }
  t.print(std::cout);
  const Summary s = summarize(ratios);
  std::cout << "\naverage ratio: " << fmt(s.mean, 4)
            << "  median: " << fmt(s.median, 4)
            << "   (paper: average 0.974 -- better than the square-case "
               "0.991 thanks to the hybrid rectangular criterion)\n";
  return 0;
}
