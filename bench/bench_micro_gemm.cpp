// Micro-benchmarks for the packed-GEMM primitives: per-kernel DGEMM
// throughput (scalar vs explicit SIMD micro-kernels), intra-GEMM
// macro-loop thread scaling, and the quadrant-combine bandwidth. These are
// the rates whose ratio determines where the Strassen crossover lands.
//
// Besides the human-readable report, the run emits a machine-readable
// BENCH_kernels.json (path overridable via STRASSEN_BENCH_JSON) recording
// per-kernel MFLOPS, the best-over-scalar speedup, and the thread-scaling
// efficiency, so the performance trajectory of the dispatch layer is
// tracked across commits.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "blas/kernels.hpp"
#include "blas/packed_loop.hpp"
#include "core/add_kernels.hpp"
#include "support/thread_pool.hpp"

using namespace strassen;

namespace {

double mflops(index_t m, index_t n, index_t k, double seconds) {
  return 2.0 * double(m) * double(n) * double(k) / seconds * 1e-6;
}

// Minimum-of-reps DGEMM timing under the currently active kernel.
double time_kernel_dgemm(bench::Problem& p, int reps) {
  return bench::time_problem(
      p,
      [&] {
        blas::dgemm(Trans::no, Trans::no, p.m(), p.n(), p.k(), 1.0,
                    p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), 0.0,
                    p.c.data(), p.c.ld());
      },
      reps);
}

// Minimum-of-reps SGEMM timing under the currently active kernel.
double time_kernel_sgemm(bench::ProblemF& p, int reps) {
  return bench::time_problem(
      p,
      [&] {
        blas::sgemm(Trans::no, Trans::no, p.m(), p.n(), p.k(), 1.0f,
                    p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), 0.0f,
                    p.c.data(), p.c.ld());
      },
      reps);
}

struct KernelResult {
  std::string name;
  std::string arch;
  std::string elem;
  double mflops_1t = 0.0;
};

struct ScalePoint {
  int threads = 0;
  double mflops = 0.0;
  double efficiency = 0.0;  ///< mflops / (threads * mflops@1)
};

}  // namespace

int main() {
  bench::banner("micro: kernel dispatch + intra-GEMM threading",
                "section 4 rate assumptions (leaf DGEMM speed) + the "
                "arXiv:1605.01078 parallel packed loop");

  const index_t msize = bench::pick<index_t>(1024, 1536);
  const int reps = bench::pick(3, 5);
  bench::Problem p(msize, msize, msize);

  // ---- per-kernel single-thread DGEMM rate --------------------------
  std::vector<KernelResult> kernels;
  double scalar_mflops = 0.0;
  {
    blas::ScopedGemmThreads serial(1);
    std::printf("single-thread DGEMM, m=n=k=%d:\n", int(msize));
    for (const blas::KernelArch arch : blas::kAllKernelArches) {
      if (!blas::kernel_supported(arch)) {
        std::printf("  %-12s (not supported on this binary/CPU)\n",
                    blas::kernel_arch_name(arch));
        continue;
      }
      blas::ScopedKernel pin(arch);
      const double sec = time_kernel_dgemm(p, reps);
      KernelResult r;
      r.name = blas::active_kernel().name;
      r.arch = blas::kernel_arch_name(arch);
      r.elem = "f64";
      r.mflops_1t = mflops(msize, msize, msize, sec);
      if (arch == blas::KernelArch::scalar) scalar_mflops = r.mflops_1t;
      std::printf("  %-12s %10.1f MFLOPS  (%.3f s)\n", r.name.c_str(),
                  r.mflops_1t, sec);
      kernels.push_back(r);
    }
  }
  double best_mflops = 0.0;
  std::string best_name;
  for (const KernelResult& r : kernels) {
    if (r.mflops_1t > best_mflops) {
      best_mflops = r.mflops_1t;
      best_name = r.name;
    }
  }
  const double speedup =
      scalar_mflops > 0.0 ? best_mflops / scalar_mflops : 0.0;
  std::printf("best kernel: %s, %.2fx over scalar\n\n", best_name.c_str(),
              speedup);

  // ---- per-kernel single-thread SGEMM rate --------------------------
  // The float tiles are twice as wide (8 lanes per AVX-512 register become
  // 16), so the interesting ratio is f32-over-f64 per arch: how much of
  // the theoretical 2x the packed skeleton keeps.
  double best_f32 = 0.0;
  std::string best_f32_name;
  {
    bench::ProblemF pf(msize, msize, msize);
    blas::ScopedGemmThreads serial(1);
    std::printf("single-thread SGEMM, m=n=k=%d:\n", int(msize));
    for (const blas::KernelArch arch : blas::kAllKernelArches) {
      if (!blas::kernel_supported(arch)) continue;
      blas::ScopedKernel pin(arch);
      const double sec = time_kernel_sgemm(pf, reps);
      KernelResult r;
      r.name = blas::active_kernel_f().name;
      r.arch = blas::kernel_arch_name(arch);
      r.elem = "f32";
      r.mflops_1t = mflops(msize, msize, msize, sec);
      double f64_rate = 0.0;
      for (const KernelResult& d : kernels) {
        if (d.elem == "f64" && d.arch == r.arch) f64_rate = d.mflops_1t;
      }
      std::printf("  %-12s %10.1f MFLOPS  (%.3f s, %.2fx f64 %s)\n",
                  r.name.c_str(), r.mflops_1t, sec,
                  f64_rate > 0.0 ? r.mflops_1t / f64_rate : 0.0,
                  r.arch.c_str());
      if (r.mflops_1t > best_f32) {
        best_f32 = r.mflops_1t;
        best_f32_name = r.name;
      }
      kernels.push_back(r);
    }
  }
  const double f32_over_f64 = best_mflops > 0.0 ? best_f32 / best_mflops : 0.0;
  std::printf("best f32 kernel: %s, %.2fx over best f64\n\n",
              best_f32_name.c_str(), f32_over_f64);

  // ---- thread scaling of the packed macro loop ----------------------
  // Same shape, best kernel, forking the packed GEMM over the pool. Thread
  // counts beyond the pool size still partition the work (the caller helps
  // execute) but cannot add cores, so the sweep stops at the pool size.
  std::vector<ScalePoint> scaling;
  {
    const std::size_t workers = parallel::global_pool().size();
    std::printf("packed_gemm_multi thread scaling (pool: %zu worker%s):\n",
                workers, workers == 1 ? "" : "s");
    const blas::GemmBlocking bk = blas::blocking_for(blas::active_machine());
    // Warm both element sizes' scratch up front: the float rows above may
    // have left per-worker float scratch warm while the double scratch for
    // this blocking is still cold (each element size owns its own buffers).
    blas::ensure_pack_capacity_all_workers<double>(bk);
    blas::ensure_pack_capacity_all_workers<float>(
        blas::blocking_for_f(blas::active_machine()));
    double base = 0.0;
    for (int t = 1; t <= int(workers); t *= 2) {
      blas::ScopedGemmThreads fan(t);
      const double sec = bench::time_problem(
          p,
          [&] {
            const blas::PackComb pa = blas::pack_comb(p.a.view());
            const blas::PackComb pb = blas::pack_comb(p.b.view());
            const blas::WriteDest dst =
                blas::write_dest(p.c.view(), 1.0, 0.0);
            blas::packed_gemm_multi(bk, p.m(), p.n(), p.k(), pa, pb, &dst,
                                    1);
          },
          reps);
      ScalePoint s;
      s.threads = t;
      s.mflops = mflops(msize, msize, msize, sec);
      if (t == 1) base = s.mflops;
      s.efficiency = base > 0.0 ? s.mflops / (double(t) * base) : 0.0;
      std::printf("  threads=%-3d %10.1f MFLOPS  efficiency %.2f\n", t,
                  s.mflops, s.efficiency);
      scaling.push_back(s);
    }
  }
  std::printf("\n");

  // ---- quadrant-combine bandwidth per kernel ------------------------
  {
    const index_t am = bench::pick<index_t>(1024, 2048);
    Rng rng(2);
    Matrix x = random_matrix(am, am, rng);
    Matrix y = random_matrix(am, am, rng);
    Matrix d(am, am);
    std::printf("quadrant add bandwidth, %d x %d:\n", int(am), int(am));
    for (const blas::KernelArch arch : blas::kAllKernelArches) {
      if (!blas::kernel_supported(arch)) continue;
      blas::ScopedKernel pin(arch);
      double best = 1e300;
      for (int r = 0; r < reps; ++r) {
        Timer timer;
        core::add(x.view(), y.view(), d.view());
        best = std::min(best, timer.seconds());
      }
      const double gbs = 3.0 * double(am) * double(am) * 8.0 / best * 1e-9;
      std::printf("  %-12s %8.2f GB/s\n", blas::active_kernel().name, gbs);
    }
  }
  std::printf("\n");

  // ---- machine-profile blockings (the paper's three machines) --------
  // Smaller shape: this section tracks the relative cost of the historical
  // c90/t3d blocking choices and the transposed-operand path, not peak rate.
  {
    const index_t pm = bench::pick<index_t>(384, 768);
    bench::Problem q(pm, pm, pm);
    blas::ScopedGemmThreads serial(1);
    std::printf("machine-profile DGEMM, m=n=k=%d:\n", int(pm));
    for (const blas::Machine mach :
         {blas::Machine::rs6000, blas::Machine::c90, blas::Machine::t3d}) {
      blas::ScopedMachine guard(mach);
      const double sec = time_kernel_dgemm(q, reps);
      std::printf("  %-8s %10.1f MFLOPS\n",
                  blas::machine_name(mach).c_str(),
                  mflops(pm, pm, pm, sec));
    }
    const double tsec = bench::time_problem(
        q,
        [&] {
          blas::dgemm(Trans::transpose, Trans::transpose, pm, pm, pm, 1.0,
                      q.a.data(), q.a.ld(), q.b.data(), q.b.ld(), 0.0,
                      q.c.data(), q.c.ld());
        },
        reps);
    std::printf("  %-8s %10.1f MFLOPS  (A^T * B^T)\n", "trans",
                mflops(pm, pm, pm, tsec));
  }
  std::printf("\n");

  // ---- machine-readable record --------------------------------------
  const char* json_env = std::getenv("STRASSEN_BENCH_JSON");
  const std::string json_path =
      json_env != nullptr ? json_env : "BENCH_kernels.json";
  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"shape\": {\"m\": %d, \"n\": %d, \"k\": %d},\n",
               int(msize), int(msize), int(msize));
  std::fprintf(f, "  \"pool_workers\": %zu,\n",
               parallel::global_pool().size());
  std::fprintf(f, "  \"bench_threads\": %zu,\n", bench::bench_threads());
  std::fprintf(f, "  \"kernels\": [\n");
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"arch\": \"%s\", "
                 "\"elem\": \"%s\", \"mflops_1t\": %.1f}%s\n",
                 kernels[i].name.c_str(), kernels[i].arch.c_str(),
                 kernels[i].elem.c_str(), kernels[i].mflops_1t,
                 i + 1 < kernels.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"best_kernel\": \"%s\",\n", best_name.c_str());
  std::fprintf(f, "  \"speedup_best_over_scalar\": %.3f,\n", speedup);
  std::fprintf(f, "  \"best_kernel_f32\": \"%s\",\n", best_f32_name.c_str());
  std::fprintf(f, "  \"speedup_f32_over_f64_best\": %.3f,\n", f32_over_f64);
  std::fprintf(f, "  \"thread_scaling\": [\n");
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    std::fprintf(f,
                 "    {\"threads\": %d, \"mflops\": %.1f, "
                 "\"efficiency\": %.3f}%s\n",
                 scaling[i].threads, scaling[i].mflops,
                 scaling[i].efficiency, i + 1 < scaling.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
