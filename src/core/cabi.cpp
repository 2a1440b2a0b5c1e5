#include "core/cabi.hpp"

#include <cctype>
#include <exception>
#include <new>
#include <type_traits>

#include "blas/gemm.hpp"
#include "blas/packed_loop.hpp"
#include "core/dgefmm.hpp"
#include "core/sgefmm.hpp"
#include "support/errors.hpp"

namespace {

using namespace strassen;

// Parses a BLAS trans character; returns false on an invalid value.
bool parse_trans(char ch, Trans& out) {
  switch (std::toupper(static_cast<unsigned char>(ch))) {
    case 'N':
      out = Trans::no;
      return true;
    case 'T':
      out = Trans::transpose;
      return true;
    case 'C':
      out = Trans::conj_transpose;
      return true;
    default:
      return false;
  }
}

// Per-thread binding state, one instance per element type. The 1996
// library kept one process-wide workspace and was not thread-safe; a
// thread_local arena gives the same reuse-across-calls behaviour while
// letting threaded programs call the bindings concurrently without sharing
// (or racing on) any state. The double and float bindings keep separate
// arenas -- the storage is typed -- and separate policy/limit knobs, so a
// program mixing precisions configures each independently.
template <class T>
struct BindingState {
  ArenaT<T> arena;
  core::FailurePolicy policy = core::FailurePolicy::fallback;
  std::int64_t workspace_limit = -1;  // elements; negative = unlimited
};

template <class T>
BindingState<T>& binding_state() {
  thread_local BindingState<T> state;
  return state;
}

// Maps an in-flight exception to its documented negative info code. C has
// not been written when any of these reach the boundary: under the strict
// policy the driver throws before its first store to C, and bad_alloc from
// the fallback's own machinery would fire in acquisition too.
int info_from_exception() {
  try {
    throw;
  } catch (const WorkspaceError&) {
    return STRASSEN_INFO_WORKSPACE;
  } catch (const std::bad_alloc&) {
    return STRASSEN_INFO_ALLOC;
  } catch (const Error&) {
    return STRASSEN_INFO_INTERNAL;
  } catch (...) {
    return STRASSEN_INFO_UNKNOWN;
  }
}

// The precision-generic binding body behind both C entry families.
template <class T>
int run(Trans ta, Trans tb, index_t m, index_t n, index_t k, T alpha,
        const T* a, index_t lda, const T* b, index_t ldb, T beta, T* c,
        index_t ldc, const core::CutoffCriterion& cutoff) noexcept {
  const auto gefmm = [](Trans fa, Trans fb, index_t fm, index_t fn,
                        index_t fk, T al, const T* fa_p, index_t flda,
                        const T* fb_p, index_t fldb, T be, T* fc_p,
                        index_t fldc, const core::GefmmConfigT<T>& cfg) {
    if constexpr (std::is_same_v<T, float>) {
      return core::sgefmm(fa, fb, fm, fn, fk, al, fa_p, flda, fb_p, fldb, be,
                          fc_p, fldc, cfg);
    } else {
      return core::dgefmm(fa, fb, fm, fn, fk, al, fa_p, flda, fb_p, fldb, be,
                          fc_p, fldc, cfg);
    }
  };
  try {
    BindingState<T>& state = binding_state<T>();
    core::GefmmConfigT<T> cfg;
    cfg.cutoff = cutoff;
    cfg.workspace = &state.arena;
    cfg.on_failure = state.policy;
    if (state.workspace_limit >= 0) {
      // Honour the configured cap before the driver would (re)grow the
      // arena.
      count_t need;
      if constexpr (std::is_same_v<T, float>) {
        need = core::sgefmm_workspace_floats(m, n, k, beta, cfg);
      } else {
        need = core::dgefmm_workspace_doubles(m, n, k, beta, cfg);
      }
      if (need > static_cast<count_t>(state.workspace_limit)) {
        if (state.policy == core::FailurePolicy::strict) {
          return STRASSEN_INFO_WORKSPACE;
        }
        // Fallback: run the same entry point with recursion disabled, which
        // keeps the argument checking but needs zero arena workspace.
        core::GefmmConfigT<T> plain;
        plain.cutoff = core::CutoffCriterion::never_recurse();
        return gefmm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
                     plain);
      }
    }
    return gefmm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, cfg);
  } catch (...) {
    return info_from_exception();
  }
}

void set_policy(char policy, core::FailurePolicy& out) {
  switch (std::toupper(static_cast<unsigned char>(policy))) {
    case 'S':
      out = core::FailurePolicy::strict;
      break;
    case 'F':
      out = core::FailurePolicy::fallback;
      break;
    default:
      break;
  }
}

}  // namespace

extern "C" {

int strassen_dgefmm(char transa, char transb, std::int64_t m, std::int64_t n,
                    std::int64_t k, double alpha, const double* a,
                    std::int64_t lda, const double* b, std::int64_t ldb,
                    double beta, double* c, std::int64_t ldc) {
  Trans ta, tb;
  if (!parse_trans(transa, ta)) return 1;
  if (!parse_trans(transb, tb)) return 2;
  return run<double>(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
                     core::CutoffCriterion::tuned());
}

int strassen_dgefmm_tuned(char transa, char transb, std::int64_t m,
                          std::int64_t n, std::int64_t k, double alpha,
                          const double* a, std::int64_t lda, const double* b,
                          std::int64_t ldb, double beta, double* c,
                          std::int64_t ldc, double tau, double tau_m,
                          double tau_k, double tau_n) {
  Trans ta, tb;
  if (!parse_trans(transa, ta)) return 1;
  if (!parse_trans(transb, tb)) return 2;
  return run<double>(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
                     core::CutoffCriterion::hybrid(tau, tau_m, tau_k, tau_n));
}

void dgefmm_(const char* transa, const char* transb, const std::int32_t* m,
             const std::int32_t* n, const std::int32_t* k,
             const double* alpha, const double* a, const std::int32_t* lda,
             const double* b, const std::int32_t* ldb, const double* beta,
             double* c, const std::int32_t* ldc, std::int32_t* info) {
  *info = static_cast<std::int32_t>(
      strassen_dgefmm(*transa, *transb, *m, *n, *k, *alpha, a, *lda, b, *ldb,
                      *beta, c, *ldc));
}

void strassen_dgefmm_set_failure_policy(char policy) {
  set_policy(policy, binding_state<double>().policy);
}

void strassen_dgefmm_set_workspace_limit(std::int64_t limit_doubles) {
  binding_state<double>().workspace_limit = limit_doubles;
}

void strassen_dgefmm_release_workspace(void) {
  Arena& arena = binding_state<double>().arena;
  arena.reset();
  arena = Arena();
  // The arena is only half the thread's retained workspace: the packed
  // GEMMs also warmed per-thread pack scratch, which would otherwise
  // survive as retained-memory growth on a long-lived serving thread.
  blas::release_pack_capacity<double>();
}

int strassen_sgefmm(char transa, char transb, std::int64_t m, std::int64_t n,
                    std::int64_t k, float alpha, const float* a,
                    std::int64_t lda, const float* b, std::int64_t ldb,
                    float beta, float* c, std::int64_t ldc) {
  Trans ta, tb;
  if (!parse_trans(transa, ta)) return 1;
  if (!parse_trans(transb, tb)) return 2;
  return run<float>(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
                    core::CutoffCriterion::tuned());
}

int strassen_sgefmm_tuned(char transa, char transb, std::int64_t m,
                          std::int64_t n, std::int64_t k, float alpha,
                          const float* a, std::int64_t lda, const float* b,
                          std::int64_t ldb, float beta, float* c,
                          std::int64_t ldc, double tau, double tau_m,
                          double tau_k, double tau_n) {
  Trans ta, tb;
  if (!parse_trans(transa, ta)) return 1;
  if (!parse_trans(transb, tb)) return 2;
  return run<float>(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
                    core::CutoffCriterion::hybrid(tau, tau_m, tau_k, tau_n));
}

void sgefmm_(const char* transa, const char* transb, const std::int32_t* m,
             const std::int32_t* n, const std::int32_t* k, const float* alpha,
             const float* a, const std::int32_t* lda, const float* b,
             const std::int32_t* ldb, const float* beta, float* c,
             const std::int32_t* ldc, std::int32_t* info) {
  *info = static_cast<std::int32_t>(
      strassen_sgefmm(*transa, *transb, *m, *n, *k, *alpha, a, *lda, b, *ldb,
                      *beta, c, *ldc));
}

void strassen_sgefmm_set_failure_policy(char policy) {
  set_policy(policy, binding_state<float>().policy);
}

void strassen_sgefmm_set_workspace_limit(std::int64_t limit_floats) {
  binding_state<float>().workspace_limit = limit_floats;
}

void strassen_sgefmm_release_workspace(void) {
  ArenaF& arena = binding_state<float>().arena;
  arena.reset();
  arena = ArenaF();
  blas::release_pack_capacity<float>();
}

}  // extern "C"
