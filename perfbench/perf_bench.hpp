// State of one perf_bench run, shared by the workloads (perf_bench.cpp) and
// the layer probes (probes.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "perf.hpp"
#include "tuning/persist.hpp"

namespace perf {

namespace tuning = strassen::tuning;

/// One f64 product shape of the large_gemm workload.
struct GemmShape {
  index_t m, k, n;
  double beta;
};

/// The paper's Figs. 2-6 regime: square, odd at every recursion level, and
/// the two eq.-15 rectangular aspect ratios.
inline constexpr GemmShape kLargeShapes[] = {
    {2048, 2048, 2048, 0.0},
    {2047, 2047, 2047, 1.0},
    {2048, 512, 2048, 0.0},
    {512, 2048, 1024, 1.0},
};

inline std::string shape_key(const GemmShape& s) {
  return std::to_string(s.m) + "x" + std::to_string(s.k) + "x" +
         std::to_string(s.n);
}

inline double gemm_flops(index_t m, index_t n, index_t k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

struct Run {
  Run(std::string w, std::uint64_t s, double secs, bool trace)
      : workload(std::move(w)), seed(s), seconds(secs), traced(trace),
        tracer(trace) {}

  std::string workload;
  std::uint64_t seed;
  double seconds;
  bool traced;
  Tracer tracer;

  Report e2e;    // end-to-end metrics (measured in every run)
  Report layer;  // per-layer metrics (reported by traced runs)

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double max_rel_err = 0;
  std::vector<std::string> errors;  // first few failure descriptions

  std::vector<tuning::TunedCriteria> tunes;  // one per set-up repetition
  std::vector<double> autotune_seconds;

  /// Counts one checked output; a residual above `tol` (or NaN) fails it.
  void check(double residual, double tol, const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    ++attempted;
    if (residual > max_rel_err) max_rel_err = residual;
    if (!(residual <= tol)) fail_locked(what + " residual " + std::to_string(residual));
  }
  /// Counts one operation that failed without producing an output.
  void fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    ++attempted;
    fail_locked(what);
  }
  /// Counts one operation refused by design (an overload rejection).
  void refused() {
    std::lock_guard<std::mutex> lock(mu);
    ++attempted;
  }

 private:
  void fail_locked(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
  std::mutex mu;  // the serving collector checks while the caller runs
};

/// Runs autotune_double with the benchmark's fixed sweep and installs the
/// result; records the criteria and the time it took.
void autotune_and_install(Run& run);

/// Layer probes of a traced run (see README.md, per-layer metrics).
void run_layer_probes(Run& run);

}  // namespace perf
