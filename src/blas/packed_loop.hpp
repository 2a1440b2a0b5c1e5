// Reusable packed-GEMM loop skeleton (GotoBLAS/BLIS structure), opened up
// for operand-fused Strassen in the style of Huang et al., "Implementing
// Strassen's Algorithm with BLIS" (arXiv:1605.01078).
//
// The classic packed GEMM packs one A block, one B block, and writes one C
// tile. This skeleton generalizes both ends of the pipeline:
//
//  * packing forms a *linear combination* of up to kPackMaxTerms equally
//    shaped source operands (gamma0*X0 + gamma1*X1 + ...) in the same single
//    pass that reshapes the data into micro-panels -- so Strassen's S/T
//    operand sums cost no extra memory traffic and no temporaries;
//
//  * the micro-kernel epilogue scatters one register accumulator into up to
//    kPackMaxDests destinations with independent alpha/beta scalars -- so
//    Strassen's U accumulations ride the C write-back that a plain GEMM
//    performs anyway.
//
// With one term and one destination this *is* the library's packed DGEMM /
// SGEMM (gemm.cpp routes through here); the fused Winograd schedule in
// src/core/winograd_fused.cpp is the other client. Everything is templated
// on the element type: PackCombT<double>/WriteDestT<double> drive the
// double kernels, the float instantiations drive the float kernels, through
// one shared loop nest.
#pragma once

#include <cassert>

#include "blas/machine.hpp"
#include "support/config.hpp"
#include "support/matrix.hpp"

namespace strassen::blas {

/// Maximum number of gamma-weighted sources one packing pass may combine.
/// Two per fused Strassen level; 4 covers two fused levels.
inline constexpr int kPackMaxTerms = 4;

/// Maximum number of destinations one micro-tile write-back may scatter to.
/// Two per fused Strassen level; 4 covers two fused levels.
inline constexpr int kPackMaxDests = 4;

/// One gamma-weighted source operand of a packing linear combination.
/// Element (i, j) of the term contributes gamma * p[i*rs + j*cs], so a
/// transposed operand view needs no physical transpose (rs = ld, cs = 1).
template <class T>
struct PackTermT {
  const T* p = nullptr;
  index_t rs = 1;
  index_t cs = 0;
  T gamma = T(1);
};

using PackTerm = PackTermT<double>;
using PackTermF = PackTermT<float>;

/// A linear combination of up to kPackMaxTerms equally shaped operands.
template <class T>
struct PackCombT {
  PackTermT<T> term[kPackMaxTerms];
  int n = 0;

  void add(BasicView<const T> v, T gamma) {
    assert(n < kPackMaxTerms);
    term[n++] = PackTermT<T>{v.p, v.rs, v.cs, gamma};
  }
};

using PackComb = PackCombT<double>;
using PackCombF = PackCombT<float>;

/// Builds a single-term combination from a view (the plain-GEMM case).
inline PackComb pack_comb(ConstView v, double gamma = 1.0) {
  PackComb c;
  c.add(v, gamma);
  return c;
}
inline PackCombF pack_comb(ConstViewF v, float gamma = 1.0f) {
  PackCombF c;
  c.add(v, gamma);
  return c;
}

/// One write-back destination: a column-major C block with its own scalars.
/// On the first k-panel the block receives alpha*tile + beta*C (beta == 0
/// assigns, so NaNs in uninitialized C never propagate); later k-panels
/// accumulate alpha*tile on top.
template <class T>
struct WriteDestT {
  T* c = nullptr;
  index_t ldc = 0;
  T alpha = T(1);
  T beta = T(1);
};

using WriteDest = WriteDestT<double>;
using WriteDestF = WriteDestT<float>;

/// Builds a WriteDest from a column-major view.
inline WriteDest write_dest(MutView v, double alpha, double beta) {
  assert(v.col_major());
  return WriteDest{v.p, v.ld_col(), alpha, beta};
}
inline WriteDestF write_dest(MutViewF v, float alpha, float beta) {
  assert(v.col_major());
  return WriteDestF{v.p, v.ld_col(), alpha, beta};
}

/// The skeleton: for every destination d,
///   C_d <- alpha_d * (sum_i gamma_i op(A_i)) * (sum_j gamma_j op(B_j))
///          + beta_d * C_d
/// in a single pass of the Goto loop nest, where the A combination is
/// m x k, the B combination k x n, and every C_d is m x n column-major.
/// The destinations must not overlap one another or the sources.
///
/// When the calling thread's gemm_threads() setting and the problem shape
/// allow (see packed_gemm_threads), the call forks once over the global
/// thread pool. Each task owns a range of C columns (whole kGemmColUnit
/// runs) and runs the whole loop nest over it, packing the A blocks and B
/// slivers it reads into the scratch of the thread that executes it; only
/// a product too narrow to give every task a column unit splits its rows
/// (whole kGemmRowUnit runs) instead. No task reads another thread's
/// scratch, so tasks never synchronize. Splitting never changes the kc
/// order of any C element's arithmetic, so results are bitwise identical
/// for every thread count. Returns the number of tasks run: 1 for the
/// serial nest, 0 for an empty product.
template <class T>
int packed_gemm_multi(const GemmBlocking& bk, index_t m, index_t n, index_t k,
                      const PackCombT<T>& a, const PackCombT<T>& b,
                      const WriteDestT<T>* dst, int ndst);

/// Optional prepacked operand images for packed_gemm_multi. A non-null side
/// makes the loop nest stream micro-panels straight from the image (laid
/// out block-by-block as in blas/pack_operand.hpp, packed under the same
/// blocking and active kernel) and skip that side's packing pass and
/// scratch entirely. A streamed side's combination must be a single term
/// with gamma == 1 over the exact operand the image was packed from -- the
/// caller (gemm_view_prepacked, the fused panel cache) has already verified
/// the stamp; this layer only asserts the term shape.
template <class T>
struct PackedStreamsT {
  const T* a = nullptr;  ///< packed image of the full m x k op(A), or null
  const T* b = nullptr;  ///< packed image of the full k x n op(B), or null
};

using PackedStreams = PackedStreamsT<double>;
using PackedStreamsF = PackedStreamsT<float>;

/// packed_gemm_multi with prepacked-image streaming. Streamed panels are
/// byte-identical to what the skipped packing pass would have produced
/// (single-term gamma == 1 packing is a pure reshaping copy), so results
/// are bitwise identical to the non-streaming overload for every thread
/// count.
template <class T>
int packed_gemm_multi(const GemmBlocking& bk, index_t m, index_t n, index_t k,
                      const PackCombT<T>& a, const PackCombT<T>& b,
                      const WriteDestT<T>* dst, int ndst,
                      const PackedStreamsT<T>& streams);

/// Upper bound on the tasks one packed_gemm_multi call fans out.
inline constexpr int kMaxGemmTasks = 64;

/// Granularity of the column split: a multiple of every kernel's NR (6
/// and 8), so a range start never splits a micro-tile or a packed B
/// sliver. 24 columns leave a 512-wide product 22 units to share.
inline constexpr index_t kGemmColUnit = 24;

/// Granularity of the row split that products narrower than the budget's
/// worth of column units fall back to: a multiple of every kernel's MR.
inline constexpr index_t kGemmRowUnit = 64;

/// Least work (m*n*k) one fanned-out task gets: about 2 MFLOP, several
/// times a pool dispatch. Smaller products run serially (at 96^3 a
/// two-way split measured slower than one thread).
inline constexpr double kGemmMinTaskWork = 1 << 20;

/// The calling thread's intra-GEMM thread setting: 0 (default) resolves to
/// the global pool size, 1 forces the serial loop nest, larger values cap
/// the fan-out. Initialized per thread from STRASSEN_GEMM_THREADS. The
/// setting is thread-local on purpose: a pre-flight decision and the
/// compute it covers always agree, and tests/benches can pin a thread
/// count without racing other threads' GEMMs.
int gemm_threads();
void set_gemm_threads(int threads);

/// RAII switch of the calling thread's gemm_threads() setting.
class ScopedGemmThreads {
 public:
  explicit ScopedGemmThreads(int threads) : prev_(gemm_threads()) {
    set_gemm_threads(threads);
  }
  ScopedGemmThreads(const ScopedGemmThreads&) = delete;
  ScopedGemmThreads& operator=(const ScopedGemmThreads&) = delete;
  ~ScopedGemmThreads() { set_gemm_threads(prev_); }

 private:
  int prev_;
};

/// The calling thread's resolved intra-GEMM thread budget: the setting,
/// or the pool size (at most kMaxGemmTasks) when the setting is 0. Tuned
/// policies are keyed by this number. Constructs the pool on first use.
int gemm_thread_budget();

/// The budget an explicit core count resolves to: `threads` clamped to
/// [1, kMaxGemmTasks], or gemm_thread_budget() when 0. Autotune records
/// and the parallel driver consults policies under this one key.
int gemm_thread_budget(std::size_t threads);

/// Number of tasks packed_gemm_multi forks for this shape under the
/// calling thread's current setting: 1 when the setting forces serial or
/// the product is under two tasks' kGemmMinTaskWork, else
/// gemm_thread_budget() clamped to the work and to the units of the split
/// dimension (column units, or row units when there are more of those).
/// Fresh and prepacked operands fork alike. Deterministic in (setting,
/// pool size, shape); the GEFMM pre-flight uses it to decide whether pool
/// workers need warming.
int packed_gemm_threads(index_t m, index_t n, index_t k);

/// Pre-allocates the calling thread's packing scratch for blocking `bk`
/// and element type T (each element size has its own scratch, so warming
/// one never shrinks the other). The GEFMM driver calls this during its
/// pre-flight so the compute phase performs no allocation at all: packed
/// GEMM's only fallible operation is moved in front of the first write to
/// C, which the failure policy relies on (DESIGN.md section 7). Buffers
/// are sized with the kMaxMRT<T>/kMaxNRT<T> edge padding, so scratch
/// warmed for `bk` fits every kernel variant. May throw std::bad_alloc.
template <class T = double>
void ensure_pack_capacity(const GemmBlocking& bk);

/// ensure_pack_capacity for the calling thread *and* every global-pool
/// worker (each worker grows its own thread-local scratch via a pinned
/// pool task). Required before any compute that may fan a packed GEMM out
/// over the pool -- lazy first-touch allocation on a cold worker would
/// otherwise fire inside the ScopedSuspend no-fail region. Called from a
/// pool worker it degrades to the calling-thread warm (the outer parallel
/// driver has already warmed the pool). The pool-wide barrier runs once per
/// growth of the blocking, not once per call: a call whose pack sizes an
/// earlier successful warm already covered only warms the calling thread.
/// May throw std::bad_alloc or TaskError (fault injection); a failed warm
/// is retried in full by the next call.
template <class T = double>
void ensure_pack_capacity_all_workers(const GemmBlocking& bk);

/// Frees the calling thread's packing scratch for element type T. The
/// scratch is thread_local and normally lives until thread exit; a
/// long-lived server thread that has stopped issuing GEMMs (or a binding
/// releasing its cached workspace) calls this so warmed scratch is not
/// retained-memory growth. The next packed GEMM on this thread simply
/// re-warms. Must not be called from a pool worker
/// (ensure_pack_capacity_all_workers trusts that worker scratch only
/// grows).
template <class T = double>
void release_pack_capacity();

/// Elements currently retained by the calling thread's packing scratch for
/// element type T (A-pack + B-pack). Zero after release_pack_capacity;
/// the release-regression tests assert exactly that.
template <class T = double>
std::size_t pack_capacity_elements();

}  // namespace strassen::blas
