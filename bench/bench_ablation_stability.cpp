// Stability ablation, two stages:
//
//  1. error growth vs recursion depth (double): measured maximum error
//     against a long-double reference for the Winograd variant and the
//     original 1969 variant. Quantifies the Brent/Higham stability
//     discussion the paper's introduction relies on.
//
//  2. precision harness (both element types): Higham-style forward error
//     against a promoted reference, next to the speedup each schedule
//     buys over the plain GEMM of the same precision, for
//     C / STRASSEN1 / STRASSEN2 / FUSED in double and float. Winograd's
//     error constant is precision-independent; what changes is the
//     epsilon it multiplies, so the normalized error-vs-speed trade must
//     have the same shape in both precisions. Emits BENCH_precision.json
//     (path overridable via STRASSEN_BENCH_JSON).
#include <cstdio>
#include <iostream>
#include <string>
#include <type_traits>
#include <vector>

#include "bench_common.hpp"
#include "core/sgefmm.hpp"

using namespace strassen;

namespace {

// Promote-and-accumulate reference: entries widened to long double, the
// result rounded once to double. One definition serves both precisions.
template <class T>
Matrix promoted_product(const MatrixT<T>& a, const MatrixT<T>& b) {
  const index_t m = a.rows(), k = a.cols(), n = b.cols();
  Matrix c(m, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      long double sum = 0.0L;
      for (index_t p = 0; p < k; ++p) {
        sum += static_cast<long double>(a.view()(i, p)) *
               static_cast<long double>(b.view()(p, j));
      }
      c.view()(i, j) = static_cast<double>(sum);
    }
  }
  return c;
}

// Max |C - truth| with C in either precision, compared in double.
template <class T>
double forward_error(const Matrix& truth, const MatrixT<T>& got) {
  double err = 0.0;
  for (index_t j = 0; j < truth.cols(); ++j) {
    for (index_t i = 0; i < truth.rows(); ++i) {
      const double d =
          truth.view()(i, j) - static_cast<double>(got.view()(i, j));
      err = std::max(err, d < 0 ? -d : d);
    }
  }
  return err;
}

struct PrecisionRow {
  std::string elem;
  std::string scheme;
  double max_error;
  double error_vs_gemm;
  double seconds;
  double mflops;
  double speedup_vs_gemm;
};

template <class T>
double time_gemm_t(bench::ProblemT<T>& p, int reps) {
  return bench::time_problem(
      p,
      [&] {
        if constexpr (std::is_same_v<T, float>) {
          blas::sgemm(Trans::no, Trans::no, p.m(), p.n(), p.k(), 1.0f,
                      p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), 0.0f,
                      p.c.data(), p.c.ld());
        } else {
          blas::dgemm(Trans::no, Trans::no, p.m(), p.n(), p.k(), 1.0,
                      p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), 0.0,
                      p.c.data(), p.c.ld());
        }
      },
      reps);
}

template <class T>
double time_gefmm_t(bench::ProblemT<T>& p, core::GefmmConfigT<T> cfg,
                    ArenaT<T>& arena, int reps) {
  cfg.workspace = &arena;
  return bench::time_problem(
      p,
      [&] {
        int info;
        if constexpr (std::is_same_v<T, float>) {
          info = core::sgefmm(Trans::no, Trans::no, p.m(), p.n(), p.k(),
                              1.0f, p.a.data(), p.a.ld(), p.b.data(),
                              p.b.ld(), 0.0f, p.c.data(), p.c.ld(), cfg);
        } else {
          info = core::dgefmm(Trans::no, Trans::no, p.m(), p.n(), p.k(), 1.0,
                              p.a.data(), p.a.ld(), p.b.data(), p.b.ld(),
                              0.0, p.c.data(), p.c.ld(), cfg);
        }
        if (info != 0) std::abort();
      },
      reps);
}

// Runs the error-vs-speed harness for one element type; appends one row
// per schedule (timing leaves the schedule's product in p.c, so the same
// run yields both the time and the error).
template <class T>
void precision_rows(const char* elem, index_t n, int reps,
                    std::vector<PrecisionRow>& rows) {
  bench::ProblemT<T> p(n, n, n, /*seed=*/5151);
  const Matrix truth = promoted_product(p.a, p.b);
  const double flop = 2.0 * static_cast<double>(n) * n * n;

  const double t_gemm = time_gemm_t(p, reps);
  const double e_gemm = forward_error(truth, p.c);
  rows.push_back({elem, "C", e_gemm, 1.0, t_gemm, flop / t_gemm / 1e6, 1.0});

  const struct {
    const char* name;
    core::Scheme scheme;
  } kSchemes[] = {
      {"STRASSEN1", core::Scheme::strassen1},
      {"STRASSEN2", core::Scheme::strassen2},
      {"FUSED", core::Scheme::fused},
  };
  ArenaT<T> arena;
  for (const auto& s : kSchemes) {
    core::GefmmConfigT<T> cfg;
    cfg.cutoff = core::CutoffCriterion::paper_default(blas::Machine::rs6000);
    cfg.scheme = s.scheme;
    const double t = time_gefmm_t(p, cfg, arena, reps);
    const double e = forward_error(truth, p.c);
    rows.push_back({elem, s.name, e, e_gemm > 0 ? e / e_gemm : 0.0, t,
                    flop / t / 1e6, t_gemm / t});
  }
}

}  // namespace

int main() {
  bench::banner("error growth vs recursion depth + precision harness",
                "introduction's stability discussion (Brent, Higham); "
                "Kouya's per-precision Winograd accuracy study");

  // ---- stage 1: error vs recursion depth, double --------------------
  {
    const index_t n = bench::pick<index_t>(256, 512);
    Rng rng(5150);
    Matrix a = random_matrix(n, n, rng);
    Matrix b = random_matrix(n, n, rng);
    const Matrix truth = promoted_product(a, b);
    std::cout << "random " << n << "x" << n
              << " matrices, entries in [-1,1); "
              << "errors are max |C - C_longdouble|\n\n";

    auto error_at = [&](int depth, core::Scheme scheme) {
      Matrix c(n, n);
      fill(c.view(), 0.0);
      core::DgefmmConfig cfg;
      cfg.cutoff = core::CutoffCriterion::fixed_depth(depth);
      cfg.scheme = scheme;
      if (core::dgefmm(Trans::no, Trans::no, n, n, n, 1.0, a.data(), n,
                       b.data(), n, 0.0, c.data(), n, cfg) != 0) {
        std::abort();
      }
      return max_abs_diff(c.view(), truth.view());
    };

    TextTable t({"depth", "DGEFMM (Winograd)", "original variant",
                 "vs depth 0 (Winograd)"});
    const double base = error_at(0, core::Scheme::automatic);
    const int max_depth = bench::pick(4, 6);
    for (int d = 0; d <= max_depth; ++d) {
      const double w = error_at(d, core::Scheme::automatic);
      const double o = error_at(d, core::Scheme::original);
      t.add_row({fmt(static_cast<long long>(d)), fmt(w * 1e15, 2) + "e-15",
                 fmt(o * 1e15, 2) + "e-15", fmt(w / base, 1) + "x"});
    }
    t.print(std::cout);
    std::cout << "\nreproduced claim: error grows by a small constant "
                 "factor per level (Higham's normwise bound), supporting "
                 "the paper's position that Strassen is stable enough for "
                 "production use; depth 0 is conventional DGEMM.\n\n";
  }

  // ---- stage 2: forward error vs speed, both precisions -------------
  const index_t pn = bench::pick<index_t>(512, 1024);
  const int reps = 3;
  std::vector<PrecisionRow> rows;
  precision_rows<double>("f64", pn, reps, rows);
  precision_rows<float>("f32", pn, reps, rows);

  std::cout << "precision harness: " << pn << "x" << pn
            << ", forward error vs a promoted long-double reference, "
               "speedup vs the plain GEMM of the same precision\n\n";
  TextTable pt({"elem", "schedule", "max fwd error", "error vs GEMM",
                "MFLOPS", "speedup vs GEMM"});
  auto sci = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2e", v);
    return std::string(buf);
  };
  for (const PrecisionRow& r : rows) {
    pt.add_row({r.elem, r.scheme, sci(r.max_error),
                fmt(r.error_vs_gemm, 2) + "x", fmt(r.mflops, 1),
                fmt(r.speedup_vs_gemm, 2) + "x"});
  }
  pt.print(std::cout);
  std::cout << "\nreading: each Strassen schedule trades a small constant "
               "error-growth factor for speed, and the normalized factor "
               "is the same in f32 and f64 -- the instantiation changes "
               "the epsilon, not the algorithm's stability character.\n";

  // ---- machine-readable record --------------------------------------
  const char* json_env = std::getenv("STRASSEN_BENCH_JSON");
  const std::string json_path =
      json_env != nullptr ? json_env : "BENCH_precision.json";
  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"shape\": {\"m\": %d, \"n\": %d, \"k\": %d},\n",
               int(pn), int(pn), int(pn));
  std::fprintf(f, "  \"pool_workers\": %zu,\n",
               parallel::global_pool().size());
  std::fprintf(f, "  \"bench_threads\": %zu,\n", bench::bench_threads());
  std::fprintf(f, "  \"reps\": %d,\n", reps);
  std::fprintf(f, "  \"kernel_f64\": \"%s\",\n", blas::active_kernel().name);
  std::fprintf(f, "  \"kernel_f32\": \"%s\",\n",
               blas::active_kernel_f().name);
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const PrecisionRow& r = rows[i];
    std::fprintf(f,
                 "    {\"elem\": \"%s\", \"scheme\": \"%s\", "
                 "\"max_error\": %.6e, \"error_vs_gemm\": %.3f, "
                 "\"seconds\": %.6f, \"mflops\": %.1f, "
                 "\"speedup_vs_gemm\": %.3f}%s\n",
                 r.elem.c_str(), r.scheme.c_str(), r.max_error,
                 r.error_vs_gemm, r.seconds, r.mflops, r.speedup_vs_gemm,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
