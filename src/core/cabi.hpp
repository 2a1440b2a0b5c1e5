// C and Fortran-77 compatible entry points.
//
// The original DGEFMM was distributed as a library callable from C and
// Fortran in place of the BLAS DGEMM (the eigensolver experiment renames
// the call site and nothing else). This header provides the equivalent
// bindings for this reimplementation:
//
//  * strassen_dgefmm(...): plain C calling convention, value arguments,
//    returns the BLAS-style info code;
//  * dgefmm_(...): Fortran-77 convention (all arguments by pointer,
//    character dummies as char*, 32-bit INTEGERs), with XERBLA-style
//    behaviour expressed through the info return.
//
// Both take the library's tuned route (core/tuned_policy.hpp): the policy
// installed for the active kernel and the calling thread's GEMM thread
// budget picks the schedule and cutoffs, and without one the call is a
// single pooled DGEMM. A program gets Strassen by installing a measured
// policy (tuning::install_criteria, e.g. from an autotune_cli file) or by
// naming the eq.-15 parameters through strassen_dgefmm_tuned. Both use a
// reusable thread_local workspace arena, so concurrent callers never
// share state.
//
// Failure contract (DESIGN.md section 7): no exception ever crosses these
// extern "C" boundaries. By default the bindings run with the `fallback`
// failure policy -- when workspace cannot be acquired they degrade to the
// workspace-free DGEMM path and still return 0 with a correct product,
// which is what a drop-in DGEMM replacement must do. Under the `strict`
// policy (strassen_dgefmm_set_failure_policy('S')), and for failures even
// the fallback cannot absorb, the info return is negative:
//
//   info = 0                        success
//   info > 0                        1-based index of the first bad argument
//                                   (XERBLA convention: 1 transa, 2 transb,
//                                   3 m, 4 n, 5 k, 8 lda, 10 ldb, 13 ldc)
//   info = STRASSEN_INFO_WORKSPACE  workspace arena could not be reserved
//                                   or is over its configured limit
//   info = STRASSEN_INFO_ALLOC     memory allocation failed (bad_alloc)
//   info = STRASSEN_INFO_INTERNAL  another library error (see errors.hpp)
//   info = STRASSEN_INFO_UNKNOWN   unrecognised exception type
//
// The async serving entry points (serve/serve_cabi.hpp) extend the table
// with their terminal outcomes, reported by strassen_dgefmm_wait:
//
//   info = STRASSEN_INFO_REJECTED   refused at admission (queue full under
//                                   the reject policy, or the request's
//                                   exact workspace exceeds the budget)
//   info = STRASSEN_INFO_EXPIRED    deadline passed while still queued
//   info = STRASSEN_INFO_CANCELED   canceled before the first write to C
//   info = STRASSEN_INFO_BAD_HANDLE handle is unknown or already waited
//
// C is written if and only if info == 0 (argument errors and negative
// codes both leave beta*C semantics untouched).
#pragma once

#include <cstdint>

extern "C" {

/// Negative info codes for runtime failures (argument errors stay positive
/// per the XERBLA convention).
enum {
  STRASSEN_INFO_WORKSPACE = -1,
  STRASSEN_INFO_ALLOC = -2,
  STRASSEN_INFO_INTERNAL = -3,
  STRASSEN_INFO_UNKNOWN = -4,
  STRASSEN_INFO_REJECTED = -5,
  STRASSEN_INFO_EXPIRED = -6,
  STRASSEN_INFO_CANCELED = -7,
  STRASSEN_INFO_BAD_HANDLE = -8,
};

/// C binding. trans arguments are 'N'/'T'/'C' (case-insensitive).
/// Returns 0 on success, a positive bad-argument index, or a negative
/// STRASSEN_INFO_* failure code. Never throws.
[[nodiscard]] int strassen_dgefmm(char transa, char transb, std::int64_t m,
                                  std::int64_t n, std::int64_t k,
                                  double alpha, const double* a,
                                  std::int64_t lda, const double* b,
                                  std::int64_t ldb, double beta, double* c,
                                  std::int64_t ldc);

/// Same, with explicit hybrid-criterion parameters (eq. 15).
[[nodiscard]] int strassen_dgefmm_tuned(char transa, char transb,
                                        std::int64_t m, std::int64_t n,
                                        std::int64_t k, double alpha,
                                        const double* a, std::int64_t lda,
                                        const double* b, std::int64_t ldb,
                                        double beta, double* c,
                                        std::int64_t ldc, double tau,
                                        double tau_m, double tau_k,
                                        double tau_n);

/// Fortran-77 binding: CALL DGEFMM(TRANSA, TRANSB, M, N, K, ALPHA, A, LDA,
/// B, LDB, BETA, C, LDC, INFO). INTEGER arguments are 32-bit, everything
/// passes by reference, INFO receives the argument-check result or a
/// negative STRASSEN_INFO_* failure code. Never unwinds into Fortran.
void dgefmm_(const char* transa, const char* transb, const std::int32_t* m,
             const std::int32_t* n, const std::int32_t* k,
             const double* alpha, const double* a, const std::int32_t* lda,
             const double* b, const std::int32_t* ldb, const double* beta,
             double* c, const std::int32_t* ldc, std::int32_t* info);

/// Sets the calling thread's failure policy for the bindings above:
/// 'F'/'f' = fallback (default; degrade to plain DGEMM and succeed),
/// 'S'/'s' = strict (report negative info with C untouched).
/// Other characters are ignored.
void strassen_dgefmm_set_failure_policy(char policy);

/// Caps the calling thread's binding workspace at `limit_doubles` doubles;
/// a call whose predicted workspace exceeds the limit is treated as a
/// reservation failure (fallback degrades, strict reports
/// STRASSEN_INFO_WORKSPACE). Negative = unlimited (default).
void strassen_dgefmm_set_workspace_limit(std::int64_t limit_doubles);

/// Releases the calling thread's cached binding workspace: the arena *and*
/// the thread's packed-GEMM scratch (blas::release_pack_capacity), so a
/// long-lived thread that stops issuing double-precision GEMMs retains no
/// workspace memory at all. The next call simply re-acquires both.
void strassen_dgefmm_release_workspace(void);

/// Single-precision C binding: drop-in SGEMM replacement with the same
/// info-code contract as strassen_dgefmm. Uses its own thread_local float
/// workspace arena (double and float bindings never share storage) and its
/// own per-thread failure policy and workspace limit. Never throws.
[[nodiscard]] int strassen_sgefmm(char transa, char transb, std::int64_t m,
                                  std::int64_t n, std::int64_t k, float alpha,
                                  const float* a, std::int64_t lda,
                                  const float* b, std::int64_t ldb, float beta,
                                  float* c, std::int64_t ldc);

/// Same, with explicit hybrid-criterion parameters (eq. 15).
[[nodiscard]] int strassen_sgefmm_tuned(char transa, char transb,
                                        std::int64_t m, std::int64_t n,
                                        std::int64_t k, float alpha,
                                        const float* a, std::int64_t lda,
                                        const float* b, std::int64_t ldb,
                                        float beta, float* c, std::int64_t ldc,
                                        double tau, double tau_m, double tau_k,
                                        double tau_n);

/// Fortran-77 binding: CALL SGEFMM(TRANSA, TRANSB, M, N, K, ALPHA, A, LDA,
/// B, LDB, BETA, C, LDC, INFO) with REAL scalars/arrays. Same conventions
/// as dgefmm_.
void sgefmm_(const char* transa, const char* transb, const std::int32_t* m,
             const std::int32_t* n, const std::int32_t* k, const float* alpha,
             const float* a, const std::int32_t* lda, const float* b,
             const std::int32_t* ldb, const float* beta, float* c,
             const std::int32_t* ldc, std::int32_t* info);

/// Float twins of the per-thread binding controls. The limit is counted in
/// floats (elements, matching sgefmm_workspace_floats), not bytes. The
/// release also frees the thread's float packed-GEMM scratch, like its
/// double twin.
void strassen_sgefmm_set_failure_policy(char policy);
void strassen_sgefmm_set_workspace_limit(std::int64_t limit_floats);
void strassen_sgefmm_release_workspace(void);

}  // extern "C"
