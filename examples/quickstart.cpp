// Quickstart: DGEFMM as a drop-in DGEMM replacement.
//
// Builds two random matrices, multiplies them with the baseline DGEMM and
// with DGEFMM, verifies agreement, and reports the speedup.
//
// Usage: quickstart [m] [k] [n]      (defaults: 1024 1024 1024)
#include <cstdlib>
#include <iostream>

#include "blas/gemm.hpp"
#include "core/dgefmm.hpp"
#include "support/matrix.hpp"
#include "support/random.hpp"
#include "support/timing.hpp"

using namespace strassen;

int main(int argc, char** argv) {
  const index_t m = argc > 1 ? std::atoll(argv[1]) : 1024;
  const index_t k = argc > 2 ? std::atoll(argv[2]) : m;
  const index_t n = argc > 3 ? std::atoll(argv[3]) : m;

  std::cout << "DGEFMM quickstart: C(" << m << "x" << n << ") = A(" << m << "x"
            << k << ") * B(" << k << "x" << n << ")\n\n";

  Rng rng(1);
  Matrix a = random_matrix(m, k, rng);
  Matrix b = random_matrix(k, n, rng);
  Matrix c_dgemm(m, n), c_dgefmm(m, n);
  c_dgemm.fill(0.0);
  c_dgefmm.fill(0.0);

  // Baseline: the library's cache-blocked DGEMM.
  const double t_dgemm = time_min(
      [&] {
        blas::dgemm(Trans::no, Trans::no, m, n, k, 1.0, a.data(), a.ld(),
                    b.data(), b.ld(), 0.0, c_dgemm.data(), c_dgemm.ld());
      },
      3);

  // DGEFMM: same interface -- only the routine name changes. A persistent
  // workspace arena makes repeated calls allocation-free. The paper's
  // RS/6000 cutoffs force Strassen; the default configuration would take
  // the host's tuned route (one DGEMM until a policy is installed).
  core::DgefmmConfig cfg;
  cfg.cutoff = core::CutoffCriterion::paper_default(blas::Machine::rs6000);
  core::DgefmmStats stats;
  cfg.stats = &stats;
  Arena arena;
  cfg.workspace = &arena;
  const double t_dgefmm = time_min(
      [&] {
        stats.reset();
        if (core::dgefmm(Trans::no, Trans::no, m, n, k, 1.0, a.data(),
                         a.ld(), b.data(), b.ld(), 0.0, c_dgefmm.data(),
                         c_dgefmm.ld(), cfg) != 0) {
          std::abort();
        }
      },
      3);

  const double diff = max_abs_diff(c_dgemm.view(), c_dgefmm.view());
  const double gflop = 2.0 * double(m) * double(k) * double(n) * 1e-9;

  std::cout << "  cutoff criterion : " << cfg.cutoff.describe() << "\n";
  std::cout << "  DGEMM  time      : " << t_dgemm << " s  ("
            << gflop / t_dgemm << " GFLOP/s)\n";
  std::cout << "  DGEFMM time      : " << t_dgefmm << " s  ("
            << gflop / t_dgefmm << " effective GFLOP/s)\n";
  std::cout << "  speedup          : " << t_dgemm / t_dgefmm << "x\n";
  std::cout << "  max |difference| : " << diff << "\n";
  std::cout << "  Strassen levels  : " << stats.strassen_levels
            << ", base DGEMMs: " << stats.base_gemms
            << ", max depth: " << stats.max_depth << "\n";
  std::cout << "  workspace        : " << stats.peak_workspace << " doubles ("
            << double(stats.peak_workspace) / (double(m) * double(n))
            << " * m*n)\n";
  return diff < 1e-8 * double(k) ? 0 : 1;
}
