// Kernel-matrix suite for the SIMD micro-kernel dispatch layer and the
// intra-GEMM macro-loop parallelism (blas/kernels.hpp, blas/packed_loop.hpp).
//
// Three families of guarantees are pinned down here:
//
//  1. every compiled kernel variant (scalar, avx2, avx512) computes the
//     same products as the reference triple loop, including edge tiles
//     whose dimensions are not multiples of the register tile, multi-term
//     packing combinations, and multi-destination epilogues;
//
//  2. the one-fork column (or row) decomposition is bitwise deterministic:
//     the same problem run with 1 thread and with N threads produces
//     byte-for-byte identical C, for every kernel variant, fresh or
//     prepacked;
//
//  3. the worker pre-warm contract: a cold pool worker's pack scratch is a
//     real allocation (fault injection can make it fail during the
//     pre-flight), and once ensure_pack_capacity_all_workers has run, a
//     fanned-out packed GEMM performs no allocation at all -- so the
//     DESIGN.md section 7 no-fail region stays allocation-free under the
//     new threading. The pool-wide warm runs once per growth of the
//     blocking: a warmed blocking skips the barrier, a larger one or a
//     failed warm runs it again.
//
// Note on the STRASSEN_KERNEL environment override: the dispatcher reads
// it once, at the first active_kernel() call, so it cannot be probed from
// inside an already-running process. scripts/check.sh covers it instead by
// pushing the whole test suite through STRASSEN_KERNEL=scalar and =auto.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/kernels.hpp"
#include "blas/machine.hpp"
#include "blas/pack_operand.hpp"
#include "blas/packed_loop.hpp"
#include "blas/prefetch.hpp"
#include "core/add_kernels.hpp"
#include "core/dgefmm.hpp"
#include "core/gemm_backend.hpp"
#include "parallel/parallel_strassen.hpp"
#include "support/errors.hpp"
#include "support/faultinject.hpp"
#include "support/matrix.hpp"
#include "support/memadvise.hpp"
#include "support/random.hpp"
#include "support/thread_pool.hpp"

namespace strassen {
namespace {

namespace fi = faultinject;

using blas::KernelArch;

std::vector<KernelArch> supported_arches() {
  std::vector<KernelArch> out;
  for (const KernelArch arch : blas::kAllKernelArches) {
    if (blas::kernel_supported(arch)) out.push_back(arch);
  }
  return out;
}

void fill_nan(MutView v) {
  for (index_t j = 0; j < v.cols; ++j) {
    for (index_t i = 0; i < v.rows; ++i) {
      v.p[i * v.rs + j * v.cs] = std::nan("");
    }
  }
}

// ------------------------------------------------------------- dispatch

TEST(KernelDispatch, ScalarAlwaysCompiledAndSupported) {
  EXPECT_TRUE(blas::kernel_compiled(KernelArch::scalar));
  EXPECT_TRUE(blas::kernel_supported(KernelArch::scalar));
  ASSERT_NE(blas::kernel_info(KernelArch::scalar), nullptr);
}

TEST(KernelDispatch, CompiledTablesAreComplete) {
  for (const KernelArch arch : blas::kAllKernelArches) {
    SCOPED_TRACE(blas::kernel_arch_name(arch));
    const blas::KernelInfo* kv = blas::kernel_info(arch);
    EXPECT_EQ(kv != nullptr, blas::kernel_compiled(arch));
    if (kv == nullptr) continue;
    EXPECT_EQ(kv->arch, arch);
    EXPECT_GE(kv->mr, 1);
    EXPECT_GE(kv->nr, 1);
    EXPECT_LE(kv->mr, blas::kMaxMR);
    EXPECT_LE(kv->nr, blas::kMaxNR);
    // The name leads with the family so stats/bench output is greppable.
    ASSERT_NE(kv->name, nullptr);
    EXPECT_EQ(std::string(kv->name).rfind(blas::kernel_arch_name(arch), 0),
              0u);
    EXPECT_NE(kv->micro_kernel, nullptr);
    EXPECT_NE(kv->pack_a_comb, nullptr);
    EXPECT_NE(kv->pack_b_comb, nullptr);
    EXPECT_NE(kv->write_tile, nullptr);
    EXPECT_NE(kv->vadd, nullptr);
    EXPECT_NE(kv->vsub, nullptr);
    EXPECT_NE(kv->vaxpby, nullptr);
  }
}

TEST(KernelDispatch, BestSupportedIsTheLastSupportedInPreferenceOrder) {
  const KernelArch best = blas::best_supported_kernel();
  EXPECT_TRUE(blas::kernel_supported(best));
  // kAllKernelArches is ordered worst to best: nothing after `best` in that
  // order may be supported.
  bool past_best = false;
  for (const KernelArch arch : blas::kAllKernelArches) {
    if (past_best) {
      EXPECT_FALSE(blas::kernel_supported(arch));
    }
    if (arch == best) past_best = true;
  }
}

TEST(KernelDispatch, SetActiveKernelValidatesSupport) {
  const KernelArch prev = blas::active_kernel().arch;
  for (const KernelArch arch : blas::kAllKernelArches) {
    SCOPED_TRACE(blas::kernel_arch_name(arch));
    if (blas::kernel_supported(arch)) {
      blas::set_active_kernel(arch);
      EXPECT_EQ(blas::active_kernel().arch, arch);
    } else {
      EXPECT_THROW(blas::set_active_kernel(arch), std::invalid_argument);
    }
  }
  blas::set_active_kernel(prev);
}

TEST(KernelDispatch, ScopedKernelRestores) {
  const KernelArch prev = blas::active_kernel().arch;
  {
    blas::ScopedKernel pin(KernelArch::scalar);
    EXPECT_EQ(blas::active_kernel().arch, KernelArch::scalar);
  }
  EXPECT_EQ(blas::active_kernel().arch, prev);
}

TEST(KernelDispatch, KernelPinnedBackendRejectsUnsupportedAtCallTime) {
  // The GemmFn seam: construction never throws, the call validates.
  for (const KernelArch arch : blas::kAllKernelArches) {
    core::GemmFn fn = core::gemm_backend_dgemm_kernel(arch);
    Matrix a(4, 4), b(4, 4), c(4, 4);
    Rng rng(7);
    fill_random(a.view(), rng);
    fill_random(b.view(), rng);
    c.fill(0.0);
    if (blas::kernel_supported(arch)) {
      EXPECT_NO_THROW(fn(Trans::no, Trans::no, 4, 4, 4, 1.0, a.data(), 4,
                         b.data(), 4, 0.0, c.data(), 4));
    } else {
      EXPECT_THROW(fn(Trans::no, Trans::no, 4, 4, 4, 1.0, a.data(), 4,
                      b.data(), 4, 0.0, c.data(), 4),
                   std::invalid_argument);
    }
  }
}

// --------------------------------------------- correctness, every kernel

// Full DGEMM through the public entry point under each forced kernel, over
// shapes chosen to produce edge tiles for every register tile in the matrix
// (4x8, 8x6, 8x8): dimensions mod {4, 6, 8} hit every nonzero remainder.
TEST(KernelMatrix, DgemmMatchesReferenceUnderEveryKernel) {
  struct Shape {
    index_t m, n, k;
  };
  const Shape shapes[] = {{1, 1, 1},    {3, 2, 5},    {7, 6, 8},
                          {8, 8, 6},    {13, 11, 17}, {31, 33, 29},
                          {65, 66, 63}};
  Rng rng(42);
  for (const KernelArch arch : supported_arches()) {
    blas::ScopedKernel pin(arch);
    SCOPED_TRACE(blas::active_kernel().name);
    for (const Shape& s : shapes) {
      for (const Trans ta : {Trans::no, Trans::transpose}) {
        for (const Trans tb : {Trans::no, Trans::transpose}) {
          SCOPED_TRACE("m=" + std::to_string(s.m) + " n=" +
                       std::to_string(s.n) + " k=" + std::to_string(s.k));
          const index_t a_rows = is_trans(ta) ? s.k : s.m;
          const index_t a_cols = is_trans(ta) ? s.m : s.k;
          const index_t b_rows = is_trans(tb) ? s.n : s.k;
          const index_t b_cols = is_trans(tb) ? s.k : s.n;
          const index_t lda = a_rows + 3, ldb = b_rows + 1, ldc = s.m + 2;
          Matrix a(lda, a_cols), b(ldb, b_cols);
          Matrix c(ldc, s.n), c_ref(ldc, s.n);
          fill_random(a.view(), rng);
          fill_random(b.view(), rng);
          fill_random(c.view(), rng);
          copy(c.view(), c_ref.view());
          for (const double beta : {0.0, -0.5}) {
            blas::dgemm(ta, tb, s.m, s.n, s.k, 1.25, a.data(), lda, b.data(),
                        ldb, beta, c.data(), ldc);
            blas::gemm_reference(ta, tb, s.m, s.n, s.k, 1.25, a.data(), lda,
                                 b.data(), ldb, beta, c_ref.data(), ldc);
            const double tol = 1e-12 * (static_cast<double>(s.k) + 1.0);
            for (index_t j = 0; j < s.n; ++j) {
              for (index_t i = 0; i < ldc; ++i) {
                EXPECT_NEAR(c(i, j), c_ref(i, j), i < s.m ? tol : 0.0)
                    << "at (" << i << "," << j << ") beta=" << beta;
              }
            }
          }
        }
      }
    }
  }
}

// The packed skeleton directly, with a deliberately awkward blocking: mc,
// kc, nc none of which divide the problem or align with any register tile,
// so every macro iteration ends in a partial block and every micro panel in
// a partial tile. This exercises the kMaxMR/kMaxNR pack-padding contract
// for each variant (asan would catch an overflow of the padded buffers).
TEST(KernelMatrix, PackedSkeletonEdgeTilesUnderEveryKernel) {
  const blas::GemmBlocking bk{20, 7, 13};
  const index_t m = 53, k = 23, n = 31;
  Rng rng(77);
  Matrix a = random_matrix(m, k, rng);
  Matrix b = random_matrix(k, n, rng);
  for (const KernelArch arch : supported_arches()) {
    blas::ScopedKernel pin(arch);
    SCOPED_TRACE(blas::active_kernel().name);
    Matrix c(m, n), c_ref(m, n);
    fill_random(c.view(), rng);
    copy(c.view(), c_ref.view());
    const blas::PackComb pa = blas::pack_comb(a.view());
    const blas::PackComb pb = blas::pack_comb(b.view());
    const blas::WriteDest dst = blas::write_dest(c.view(), 1.5, -0.25);
    blas::packed_gemm_multi(bk, m, n, k, pa, pb, &dst, 1);
    blas::gemm_reference(Trans::no, Trans::no, m, n, k, 1.5, a.data(),
                         a.ld(), b.data(), b.ld(), -0.25, c_ref.data(),
                         c_ref.ld());
    EXPECT_LE(max_abs_diff(c.view(), c_ref.view()),
              1e-12 * (static_cast<double>(k) + 1.0));
  }
}

// Fused-path surface: linear-combination packing (including a transposed
// term, so the strided gather runs) and a two-destination epilogue whose
// beta is applied on the first k-panel only (k spans several kc panels).
// Destination 0 starts as NaN: beta == 0 must assign, never accumulate.
TEST(KernelMatrix, MultiTermMultiDestUnderEveryKernel) {
  const blas::GemmBlocking bk{24, 10, 18};
  const index_t m = 37, k = 29, n = 21;
  Rng rng(99);
  Matrix a1 = random_matrix(m, k, rng);
  Matrix a2t = random_matrix(k, m, rng);  // used through a transposed view
  Matrix b1 = random_matrix(k, n, rng);
  Matrix b2 = random_matrix(k, n, rng);
  Matrix c1_0 = random_matrix(m, n, rng);

  // Reference: P = (A1 - A2t^T) * (0.5*B1 + 2*B2), then the two epilogues.
  Matrix acomb(m, k), bcomb(k, n), p(m, n);
  for (index_t j = 0; j < k; ++j) {
    for (index_t i = 0; i < m; ++i) {
      acomb(i, j) = a1(i, j) - a2t(j, i);
    }
  }
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < k; ++i) {
      bcomb(i, j) = 0.5 * b1(i, j) + 2.0 * b2(i, j);
    }
  }
  p.fill(0.0);
  blas::gemm_reference(Trans::no, Trans::no, m, n, k, 1.0, acomb.data(),
                       acomb.ld(), bcomb.data(), bcomb.ld(), 0.0, p.data(),
                       p.ld());

  for (const KernelArch arch : supported_arches()) {
    blas::ScopedKernel pin(arch);
    SCOPED_TRACE(blas::active_kernel().name);
    Matrix c0(m, n), c1(m, n);
    fill_nan(c0.view());
    copy(c1_0.view(), c1.view());
    blas::PackComb pa;
    pa.add(a1.view(), 1.0);
    pa.add(make_op_view(Trans::transpose, a2t.data(), k, m, a2t.ld()), -1.0);
    blas::PackComb pb;
    pb.add(b1.view(), 0.5);
    pb.add(b2.view(), 2.0);
    const blas::WriteDest dst[2] = {
        blas::write_dest(c0.view(), 1.0, 0.0),
        blas::write_dest(c1.view(), -2.0, 0.5),
    };
    blas::packed_gemm_multi(bk, m, n, k, pa, pb, dst, 2);
    const double tol = 1e-11 * (static_cast<double>(k) + 1.0);
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = 0; i < m; ++i) {
        EXPECT_NEAR(c0(i, j), p(i, j), tol) << "dest 0 (" << i << "," << j
                                            << ")";
        EXPECT_NEAR(c1(i, j), -2.0 * p(i, j) + 0.5 * c1_0(i, j), tol)
            << "dest 1 (" << i << "," << j << ")";
      }
    }
  }
}

// ------------------------------------------------- float kernel matrix

// The float dispatch table mirrors the double one: every compiled arch has
// a float variant with its own (wider) register tile, and the active float
// kernel always tracks the active double arch.
TEST(KernelMatrixF, FloatTablesAreCompleteAndTrackTheActiveArch) {
  for (const KernelArch arch : blas::kAllKernelArches) {
    SCOPED_TRACE(blas::kernel_arch_name(arch));
    const blas::KernelInfoF* kv = blas::kernel_info_f(arch);
    EXPECT_EQ(kv != nullptr, blas::kernel_compiled(arch));
    if (kv == nullptr) continue;
    EXPECT_EQ(kv->arch, arch);
    EXPECT_GE(kv->mr, 1);
    EXPECT_GE(kv->nr, 1);
    EXPECT_LE(kv->mr, blas::kMaxMRT<float>);
    EXPECT_LE(kv->nr, blas::kMaxNRT<float>);
    ASSERT_NE(kv->name, nullptr);
    EXPECT_EQ(std::string(kv->name).rfind(blas::kernel_arch_name(arch), 0),
              0u);
    EXPECT_NE(kv->micro_kernel, nullptr);
    EXPECT_NE(kv->pack_a_comb, nullptr);
    EXPECT_NE(kv->pack_b_comb, nullptr);
    EXPECT_NE(kv->write_tile, nullptr);
  }
  for (const KernelArch arch : supported_arches()) {
    blas::ScopedKernel pin(arch);
    EXPECT_EQ(blas::active_kernel_f().arch, arch);
    EXPECT_EQ(blas::active_kernel_t<float>().arch, arch);
  }
}

// Full SGEMM through the public entry under each forced kernel; the shapes
// hit every nonzero remainder of the float register tiles (8x8, 16x6,
// 16x8), so each variant's edge paths run.
TEST(KernelMatrixF, SgemmMatchesReferenceUnderEveryKernel) {
  struct Shape {
    index_t m, n, k;
  };
  const Shape shapes[] = {{1, 1, 1},    {3, 2, 5},    {7, 6, 8},
                          {17, 9, 13},  {16, 8, 6},   {33, 31, 29},
                          {65, 66, 63}};
  Rng rng(43);
  for (const KernelArch arch : supported_arches()) {
    blas::ScopedKernel pin(arch);
    SCOPED_TRACE(blas::active_kernel_f().name);
    for (const Shape& s : shapes) {
      for (const Trans ta : {Trans::no, Trans::transpose}) {
        for (const Trans tb : {Trans::no, Trans::transpose}) {
          SCOPED_TRACE("m=" + std::to_string(s.m) + " n=" +
                       std::to_string(s.n) + " k=" + std::to_string(s.k));
          const index_t a_rows = is_trans(ta) ? s.k : s.m;
          const index_t a_cols = is_trans(ta) ? s.m : s.k;
          const index_t b_rows = is_trans(tb) ? s.n : s.k;
          const index_t b_cols = is_trans(tb) ? s.k : s.n;
          const index_t lda = a_rows + 3, ldb = b_rows + 1, ldc = s.m + 2;
          MatrixF a(lda, a_cols), b(ldb, b_cols);
          MatrixF c(ldc, s.n), c_ref(ldc, s.n);
          fill_random(a.view(), rng);
          fill_random(b.view(), rng);
          fill_random(c.view(), rng);
          copy(c.view(), c_ref.view());
          for (const float beta : {0.0f, -0.5f}) {
            blas::sgemm(ta, tb, s.m, s.n, s.k, 1.25f, a.data(), lda,
                        b.data(), ldb, beta, c.data(), ldc);
            blas::gemm_reference(ta, tb, s.m, s.n, s.k, 1.25f, a.data(), lda,
                                 b.data(), ldb, beta, c_ref.data(), ldc);
            const float tol = 1e-5f * (static_cast<float>(s.k) + 1.0f);
            for (index_t j = 0; j < s.n; ++j) {
              for (index_t i = 0; i < ldc; ++i) {
                EXPECT_NEAR(c(i, j), c_ref(i, j), i < s.m ? tol : 0.0f)
                    << "at (" << i << "," << j << ") beta=" << beta;
              }
            }
          }
        }
      }
    }
  }
}

// Float packed skeleton with an awkward blocking: every macro iteration
// ends in a partial block and every micro panel in a partial tile of the
// 16-wide float tiles (asan guards the kMaxMRT<float> pack padding).
TEST(KernelMatrixF, PackedSkeletonEdgeTilesUnderEveryKernel) {
  const blas::GemmBlocking bk{20, 7, 13};
  const index_t m = 53, k = 23, n = 31;
  Rng rng(78);
  MatrixF a = random_matrix_f(m, k, rng);
  MatrixF b = random_matrix_f(k, n, rng);
  for (const KernelArch arch : supported_arches()) {
    blas::ScopedKernel pin(arch);
    SCOPED_TRACE(blas::active_kernel_f().name);
    MatrixF c(m, n), c_ref(m, n);
    fill_random(c.view(), rng);
    copy(c.view(), c_ref.view());
    const blas::PackCombF pa = blas::pack_comb(a.view());
    const blas::PackCombF pb = blas::pack_comb(b.view());
    const blas::WriteDestF dst = blas::write_dest(c.view(), 1.5f, -0.25f);
    blas::packed_gemm_multi(bk, m, n, k, pa, pb, &dst, 1);
    blas::gemm_reference(Trans::no, Trans::no, m, n, k, 1.5f, a.data(),
                         a.ld(), b.data(), b.ld(), -0.25f, c_ref.data(),
                         c_ref.ld());
    EXPECT_LE(max_abs_diff(c.view(), c_ref.view()),
              1e-5 * (static_cast<double>(k) + 1.0));
  }
}

// Float linear-combination packing and multi-destination epilogue: the
// fused Winograd surface sgefmm leans on.
TEST(KernelMatrixF, MultiTermMultiDestUnderEveryKernel) {
  const blas::GemmBlocking bk{24, 10, 18};
  const index_t m = 37, k = 29, n = 21;
  Rng rng(100);
  MatrixF a1 = random_matrix_f(m, k, rng);
  MatrixF a2t = random_matrix_f(k, m, rng);  // used through a transposed view
  MatrixF b1 = random_matrix_f(k, n, rng);
  MatrixF b2 = random_matrix_f(k, n, rng);
  MatrixF c1_0 = random_matrix_f(m, n, rng);

  // Reference: P = (A1 - A2t^T) * (0.5*B1 + 2*B2), then the two epilogues.
  MatrixF acomb(m, k), bcomb(k, n), p(m, n);
  for (index_t j = 0; j < k; ++j) {
    for (index_t i = 0; i < m; ++i) {
      acomb(i, j) = a1(i, j) - a2t(j, i);
    }
  }
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < k; ++i) {
      bcomb(i, j) = 0.5f * b1(i, j) + 2.0f * b2(i, j);
    }
  }
  p.fill(0.0f);
  blas::gemm_reference(Trans::no, Trans::no, m, n, k, 1.0f, acomb.data(),
                       acomb.ld(), bcomb.data(), bcomb.ld(), 0.0f, p.data(),
                       p.ld());

  for (const KernelArch arch : supported_arches()) {
    blas::ScopedKernel pin(arch);
    SCOPED_TRACE(blas::active_kernel_f().name);
    MatrixF c0(m, n), c1(m, n);
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = 0; i < m; ++i) c0(i, j) = std::nanf("");
    }
    copy(c1_0.view(), c1.view());
    blas::PackCombF pa;
    pa.add(a1.view(), 1.0f);
    pa.add(make_op_view(Trans::transpose, a2t.data(), k, m, a2t.ld()),
           -1.0f);
    blas::PackCombF pb;
    pb.add(b1.view(), 0.5f);
    pb.add(b2.view(), 2.0f);
    const blas::WriteDestF dst[2] = {
        blas::write_dest(c0.view(), 1.0f, 0.0f),
        blas::write_dest(c1.view(), -2.0f, 0.5f),
    };
    blas::packed_gemm_multi(bk, m, n, k, pa, pb, dst, 2);
    const float tol = 1e-4f * (static_cast<float>(k) + 1.0f);
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = 0; i < m; ++i) {
        EXPECT_NEAR(c0(i, j), p(i, j), tol) << "dest 0 (" << i << "," << j
                                            << ")";
        EXPECT_NEAR(c1(i, j), -2.0f * p(i, j) + 0.5f * c1_0(i, j), tol)
            << "dest 1 (" << i << "," << j << ")";
      }
    }
  }
}

// Bitwise determinism of the fanned-out float skeleton, per kernel.
TEST(KernelMatrixF, ParallelPackedSgemmBitwiseEqualsSerialUnderEveryKernel) {
  const blas::GemmBlocking bk{24, 16, 32};
  const index_t m = 200, k = 192, n = 128;  // 9 mc blocks, 6 column units
  Rng rng(1002);
  MatrixF a = random_matrix_f(m, k, rng);
  MatrixF b = random_matrix_f(k, n, rng);
  MatrixF c0 = random_matrix_f(m, n, rng);
  for (const KernelArch arch : supported_arches()) {
    blas::ScopedKernel pin(arch);
    SCOPED_TRACE(blas::active_kernel_f().name);
    const blas::PackCombF pa = blas::pack_comb(a.view());
    const blas::PackCombF pb = blas::pack_comb(b.view());

    MatrixF serial(m, n);
    copy(c0.view(), serial.view());
    {
      blas::ScopedGemmThreads one(1);
      const blas::WriteDestF dst = blas::write_dest(serial.view(), 1.0f,
                                                    0.5f);
      blas::packed_gemm_multi(bk, m, n, k, pa, pb, &dst, 1);
    }
    for (const int threads : {2, 5, 9}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      MatrixF par(m, n);
      copy(c0.view(), par.view());
      blas::ScopedGemmThreads fan(threads);
      ASSERT_GT(blas::packed_gemm_threads(m, n, k), 1);
      const blas::WriteDestF dst = blas::write_dest(par.view(), 1.0f, 0.5f);
      blas::packed_gemm_multi(bk, m, n, k, pa, pb, &dst, 1);
      EXPECT_EQ(std::memcmp(par.data(), serial.data(),
                            sizeof(float) * static_cast<std::size_t>(m) *
                                static_cast<std::size_t>(n)),
                0);
    }
  }
}

// ------------------------------------------------ parallel determinism

// The load-bearing reproducibility claim: the ic partition is a pure
// function of (m, mc, ntasks) and the pc loop is sequential, so every
// thread count yields byte-for-byte the same C. Checked for every kernel
// and several fan-out widths against the forced-serial run.
TEST(KernelMatrix, ParallelPackedGemmBitwiseEqualsSerialUnderEveryKernel) {
  const blas::GemmBlocking bk{24, 16, 32};
  const index_t m = 200, k = 192, n = 128;  // 9 mc blocks, 6 column units
  Rng rng(1001);
  Matrix a = random_matrix(m, k, rng);
  Matrix b = random_matrix(k, n, rng);
  Matrix c0 = random_matrix(m, n, rng);
  for (const KernelArch arch : supported_arches()) {
    blas::ScopedKernel pin(arch);
    SCOPED_TRACE(blas::active_kernel().name);
    const blas::PackComb pa = blas::pack_comb(a.view());
    const blas::PackComb pb = blas::pack_comb(b.view());

    Matrix serial(m, n);
    copy(c0.view(), serial.view());
    {
      blas::ScopedGemmThreads one(1);
      const blas::WriteDest dst = blas::write_dest(serial.view(), 1.0, 0.5);
      blas::packed_gemm_multi(bk, m, n, k, pa, pb, &dst, 1);
    }
    Matrix c_ref(m, n);
    copy(c0.view(), c_ref.view());
    blas::gemm_reference(Trans::no, Trans::no, m, n, k, 1.0, a.data(),
                         a.ld(), b.data(), b.ld(), 0.5, c_ref.data(),
                         c_ref.ld());
    EXPECT_LE(max_abs_diff(serial.view(), c_ref.view()),
              1e-12 * (static_cast<double>(k) + 1.0));

    for (const int threads : {2, 5, 9}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      Matrix par(m, n);
      copy(c0.view(), par.view());
      blas::ScopedGemmThreads fan(threads);
      ASSERT_GT(blas::packed_gemm_threads(m, n, k), 1);
      const blas::WriteDest dst = blas::write_dest(par.view(), 1.0, 0.5);
      blas::packed_gemm_multi(bk, m, n, k, pa, pb, &dst, 1);
      EXPECT_EQ(std::memcmp(par.data(), serial.data(),
                            sizeof(double) * static_cast<std::size_t>(m) *
                                static_cast<std::size_t>(n)),
                0);
    }
  }
}

// Rows of the same 1-vs-N matrix on the machine blocking. The narrow rows
// take the row fallback at the wider thread counts, whose ranges split mc
// blocks: m = 200 is one mc block, 512 and 2047 end mid-block. A prepacked
// A is streamed under the same partition; both must equal the serial
// fresh-packing run byte for byte.
template <class T>
void fan_out_rows_bitwise_equal_serial() {
  struct Row {
    index_t m, n, k;
  };
  const Row rows[] = {{200, 128, 192}, {512, 96, 128}, {2047, 48, 64}};
  const T alpha = T(1.25), beta = T(0.5);
  Rng rng(1003);
  for (const KernelArch arch : supported_arches()) {
    blas::ScopedKernel pin(arch);
    SCOPED_TRACE(blas::active_kernel_t<T>().name);
    for (const Row& r : rows) {
      SCOPED_TRACE("m=" + std::to_string(r.m));
      MatrixT<T> a(r.m, r.k), b(r.k, r.n), c0(r.m, r.n);
      fill_random(a.view(), rng);
      fill_random(b.view(), rng);
      fill_random(c0.view(), rng);
      const BasicView<const T> av = a.view(), bv = b.view();
      const std::size_t bytes =
          sizeof(T) * static_cast<std::size_t>(r.m * r.n);
      MatrixT<T> serial(r.m, r.n), par(r.m, r.n);
      copy(c0.view(), serial.view());
      {
        blas::ScopedGemmThreads one(1);
        blas::gemm_view(alpha, av, bv, beta, serial.view());
      }
      const blas::PackedOperandT<T> pa = blas::gefmm_pack_a<T>(av);
      for (const int threads : {2, 4, 9}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        blas::ScopedGemmThreads fan(threads);
        ASSERT_GT(blas::packed_gemm_threads(r.m, r.n, r.k), 1);
        copy(c0.view(), par.view());
        blas::gemm_view(alpha, av, bv, beta, par.view());
        EXPECT_EQ(std::memcmp(par.data(), serial.data(), bytes), 0)
            << "fresh A";
        copy(c0.view(), par.view());
        ASSERT_TRUE(blas::gemm_view_prepacked(alpha, av, bv, beta,
                                              par.view(), &pa, nullptr));
        EXPECT_EQ(std::memcmp(par.data(), serial.data(), bytes), 0)
            << "prepacked A";
      }
    }
  }
}

TEST(KernelMatrix, RowFanOutInsideMcBlocksBitwiseEqualsSerial) {
  fan_out_rows_bitwise_equal_serial<double>();
}

TEST(KernelMatrixF, RowFanOutInsideMcBlocksBitwiseEqualsSerial) {
  fan_out_rows_bitwise_equal_serial<float>();
}

TEST(GemmThreads, SettingClampsAndScopesRestore) {
  const int prev = blas::gemm_threads();
  blas::set_gemm_threads(-3);
  EXPECT_EQ(blas::gemm_threads(), 0);  // clamped into [0, kMaxGemmTasks]
  blas::set_gemm_threads(blas::kMaxGemmTasks + 100);
  EXPECT_EQ(blas::gemm_threads(), blas::kMaxGemmTasks);
  {
    blas::ScopedGemmThreads guard(3);
    EXPECT_EQ(blas::gemm_threads(), 3);
  }
  EXPECT_EQ(blas::gemm_threads(), blas::kMaxGemmTasks);
  blas::set_gemm_threads(prev);
}

TEST(GemmThreads, ResolutionIsDeterministicInShapeAndSetting) {
  const index_t row = blas::kGemmRowUnit, col = blas::kGemmColUnit;
  const index_t big = 512;  // n = k = 512: work never limits the fan-out
  {
    blas::ScopedGemmThreads one(1);
    EXPECT_EQ(blas::packed_gemm_threads(1000, big, big), 1);
    EXPECT_EQ(blas::gemm_thread_budget(), 1);
  }
  blas::ScopedGemmThreads four(4);
  EXPECT_EQ(blas::gemm_thread_budget(), 4);
  // An empty product: always serial.
  EXPECT_EQ(blas::packed_gemm_threads(1000, 0, big), 1);
  EXPECT_EQ(blas::packed_gemm_threads(0, big, big), 1);
  // At most one row unit with a wide n splits by columns: skinny products
  // use the whole budget.
  EXPECT_EQ(blas::packed_gemm_threads(row, big, big), 4);
  EXPECT_EQ(blas::packed_gemm_threads(1, 8 * big, 2 * big), 4);
  // Clamped to the column-unit count when the columns outnumber the rows
  // (m = 64, k = 2048 leaves work for four tasks)...
  EXPECT_EQ(blas::packed_gemm_threads(row, col, 4 * big), 1);
  EXPECT_EQ(blas::packed_gemm_threads(row, col + 1, 4 * big), 2);
  EXPECT_EQ(blas::packed_gemm_threads(row, 3 * col, 4 * big), 3);
  // ...and to the row-unit count when n is one column unit (the row
  // fallback), independent of the mc blocking.
  EXPECT_EQ(blas::packed_gemm_threads(row + 1, col, 8 * big), 2);
  EXPECT_EQ(blas::packed_gemm_threads(3 * row, col, 8 * big), 3);
  EXPECT_EQ(blas::packed_gemm_threads(3 * row + 1, col, 8 * big), 4);
  // Clamped to the work: under two tasks' worth stays serial, and each
  // task gets at least kGemmMinTaskWork.
  EXPECT_EQ(blas::packed_gemm_threads(96, 96, 96), 1);
  EXPECT_EQ(blas::packed_gemm_threads(128, 128, 128), 2);
  EXPECT_EQ(blas::packed_gemm_threads(1000, 64, 48), 2);
  // The setting caps the fan-out.
  EXPECT_EQ(blas::packed_gemm_threads(3200, big, big), 4);
  // Auto (0) resolves to the pool size, bounded by kMaxGemmTasks.
  blas::set_gemm_threads(0);
  const int resolved = blas::packed_gemm_threads(3200, big, big);
  EXPECT_GE(resolved, 1);
  EXPECT_LE(resolved, blas::kMaxGemmTasks);
  EXPECT_EQ(resolved, std::min(blas::gemm_thread_budget(), 3200 / 64));
}

// The column-split table: skinny and narrow products on the machine
// blocking with k = 700 (more than one kc panel). Each row runs fresh
// operands, a prepacked A, a prepacked B, or the fused two-term,
// two-destination shape at several thread counts; a row forks whenever
// the work floor allows (by columns, or by rows when n is too narrow),
// and C matches the one-thread run byte for byte.
enum class SplitOperands { fresh, prepacked_a, prepacked_b, fused };

template <class T>
void column_split_bitwise_table(SplitOperands ops) {
  const index_t k = 700, m_max = 200, n_max = 2047;
  Rng rng(1004);
  MatrixT<T> a0(m_max, k), a1(m_max, k), b0(k, n_max), b1(k, n_max);
  MatrixT<T> c_init(m_max, n_max);
  for (MatrixT<T>* x : {&a0, &a1, &b0, &b1, &c_init}) {
    fill_random(x->view(), rng);
  }
  const bool prepacked =
      ops == SplitOperands::prepacked_a || ops == SplitOperands::prepacked_b;
  const int ndst = ops == SplitOperands::fused ? 2 : 1;
  for (const KernelArch arch : supported_arches()) {
    blas::ScopedKernel pin(arch);
    SCOPED_TRACE(blas::active_kernel_t<T>().name);
    const blas::GemmBlocking bk =
        blas::blocking_for_t<T>(blas::active_machine());
    for (const index_t m : {1, 8, 16, 64, 100, 200}) {
      for (const index_t n : {8, 63, 520, 2047}) {
        SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n));
        const BasicView<const T> av = a0.view().block(0, 0, m, k);
        const BasicView<const T> bv = b0.view().block(0, 0, k, n);
        blas::PackCombT<T> pa, pb;
        pa.add(av, T(1));
        pb.add(bv, T(1));
        if (ops == SplitOperands::fused) {
          pa.add(a1.view().block(0, 0, m, k), T(-0.5));
          pb.add(b1.view().block(0, 0, k, n), T(2));
        }
        const blas::PackedOperandT<T> ha =
            ops == SplitOperands::prepacked_a ? blas::gefmm_pack_a<T>(av)
                                              : blas::PackedOperandT<T>();
        const blas::PackedOperandT<T> hb =
            ops == SplitOperands::prepacked_b ? blas::gefmm_pack_b<T>(bv)
                                              : blas::PackedOperandT<T>();
        const std::size_t bytes = sizeof(T) * static_cast<std::size_t>(m * n);
        const bool can_fork = static_cast<double>(m * n * k) >=
                              2 * blas::kGemmMinTaskWork;
        for (const T beta : {T(0), T(1)}) {
          SCOPED_TRACE(beta == T(0) ? "beta=0" : "beta=1");
          // Runs the row into c[0..ndst); returns the tasks forked, or 0
          // for the prepacked entry point, which does not report them.
          auto run = [&](MatrixT<T>* c) {
            for (int d = 0; d < ndst; ++d) {
              c[d] = MatrixT<T>(m, n);
              copy(c_init.view().block(0, 0, m, n), c[d].view());
            }
            if (prepacked) {
              EXPECT_TRUE(blas::gemm_view_prepacked(
                  T(1.5), av, bv, beta, c[0].view(),
                  ops == SplitOperands::prepacked_a ? &ha : nullptr,
                  ops == SplitOperands::prepacked_b ? &hb : nullptr));
              return 0;
            }
            const blas::WriteDestT<T> dst[2] = {
                blas::write_dest(c[0].view(), T(1.5), beta),
                blas::write_dest(c[ndst - 1].view(), T(-1), beta)};
            return blas::packed_gemm_multi(bk, m, n, k, pa, pb, dst, ndst);
          };
          MatrixT<T> serial[2], par[2];
          {
            blas::ScopedGemmThreads one(1);
            EXPECT_EQ(run(serial), prepacked ? 0 : 1);
          }
          for (const int threads : {2, 3, 4, 7}) {
            SCOPED_TRACE("threads=" + std::to_string(threads));
            blas::ScopedGemmThreads fan(threads);
            const int resolved = blas::packed_gemm_threads(m, n, k);
            EXPECT_EQ(resolved > 1, can_fork);
            const int forked = run(par);
            if (!prepacked) {
              EXPECT_EQ(forked, resolved);
            }
            for (int d = 0; d < ndst; ++d) {
              EXPECT_EQ(std::memcmp(par[d].data(), serial[d].data(), bytes),
                        0)
                  << "dest " << d;
            }
          }
        }
      }
    }
  }
}

TEST(KernelMatrix, ColumnSplitFreshBitwiseEqualsSerial) {
  column_split_bitwise_table<double>(SplitOperands::fresh);
}
TEST(KernelMatrix, ColumnSplitPrepackedABitwiseEqualsSerial) {
  column_split_bitwise_table<double>(SplitOperands::prepacked_a);
}
TEST(KernelMatrix, ColumnSplitPrepackedBBitwiseEqualsSerial) {
  column_split_bitwise_table<double>(SplitOperands::prepacked_b);
}
TEST(KernelMatrix, ColumnSplitFusedBitwiseEqualsSerial) {
  column_split_bitwise_table<double>(SplitOperands::fused);
}
TEST(KernelMatrixF, ColumnSplitFreshBitwiseEqualsSerial) {
  column_split_bitwise_table<float>(SplitOperands::fresh);
}
TEST(KernelMatrixF, ColumnSplitPrepackedABitwiseEqualsSerial) {
  column_split_bitwise_table<float>(SplitOperands::prepacked_a);
}
TEST(KernelMatrixF, ColumnSplitPrepackedBBitwiseEqualsSerial) {
  column_split_bitwise_table<float>(SplitOperands::prepacked_b);
}
TEST(KernelMatrixF, ColumnSplitFusedBitwiseEqualsSerial) {
  column_split_bitwise_table<float>(SplitOperands::fused);
}

// ------------------------------------------------------- stats plumbing

TEST(KernelStats, DgefmmRecordsKernelAndThreads) {
  const index_t m = 96, n = 96, k = 96;
  Rng rng(5);
  Matrix a = random_matrix(m, k, rng);
  Matrix b = random_matrix(k, n, rng);
  Matrix c(m, n);
  c.fill(0.0);
  core::DgefmmStats stats;
  Arena arena;
  core::DgefmmConfig cfg;
  cfg.workspace = &arena;
  cfg.stats = &stats;
  ASSERT_EQ(core::dgefmm(Trans::no, Trans::no, m, n, k, 1.0, a.data(), m,
                         b.data(), k, 0.0, c.data(), m, cfg),
            0);
  ASSERT_NE(stats.kernel, nullptr);
  EXPECT_STREQ(stats.kernel, blas::active_kernel().name);
  EXPECT_GE(stats.gemm_threads, 1);
}

TEST(KernelStats, FannedOutDgefmmRecordsThreadsGreaterThanOne) {
  // m spans many row units, so a setting of 3 must resolve to >= 2.
  const index_t m = 2100, n = 48, k = 48;
  Rng rng(6);
  Matrix a = random_matrix(m, k, rng);
  Matrix b = random_matrix(k, n, rng);
  Matrix c(m, n);
  c.fill(0.0);
  core::DgefmmStats stats;
  Arena arena;
  core::DgefmmConfig cfg;
  cfg.workspace = &arena;
  cfg.stats = &stats;
  blas::ScopedGemmThreads fan(3);
  ASSERT_EQ(core::dgefmm(Trans::no, Trans::no, m, n, k, 1.0, a.data(), m,
                         b.data(), k, 0.0, c.data(), m, cfg),
            0);
  EXPECT_GE(stats.gemm_threads, 2);
  Matrix c_ref(m, n);
  c_ref.fill(0.0);
  blas::gemm_reference(Trans::no, Trans::no, m, n, k, 1.0, a.data(), m,
                       b.data(), k, 0.0, c_ref.data(), m);
  EXPECT_LE(max_abs_diff(c.view(), c_ref.view()),
            1e-11 * (static_cast<double>(k) + 1.0));
}

// stats.gemm_threads is the number of tasks the call's one GEMM forks,
// with a prepacked A too: 512^3 on four threads splits by columns four
// ways, and a one-column-unit product falls back to four row ranges. The
// same streamed nest run directly reports the tasks it forked and writes
// the same bytes.
TEST(KernelStats, PrepackedADgefmmRecordsTheTasksItForks) {
  struct Row {
    index_t m, n, k;
  };
  const Row rows[] = {{512, 512, 512}, {2048, blas::kGemmColUnit, 512}};
  Rng rng(7);
  blas::ScopedGemmThreads four(4);
  for (const Row& r : rows) {
    SCOPED_TRACE("m=" + std::to_string(r.m) + " n=" + std::to_string(r.n));
    Matrix a = random_matrix(r.m, r.k, rng);
    Matrix b = random_matrix(r.k, r.n, rng);
    const blas::PackedOperand pa = blas::gefmm_pack_a<double>(a.view());
    Matrix c(r.m, r.n), direct(r.m, r.n);
    core::DgefmmStats stats;
    core::DgefmmConfig cfg;
    cfg.cutoff = core::CutoffCriterion::never_recurse();
    cfg.stats = &stats;
    cfg.packed_a = &pa;
    ASSERT_EQ(core::dgefmm(Trans::no, Trans::no, r.m, r.n, r.k, 1.0,
                           a.data(), r.m, b.data(), r.k, 0.0, c.data(), r.m,
                           cfg),
              0);
    EXPECT_GT(stats.pack_hits, 0u) << "the handle must have streamed";
    const blas::WriteDest dst = blas::write_dest(direct.view(), 1.0, 0.0);
    const int forked = blas::packed_gemm_multi(
        blas::blocking_for(blas::active_machine()), r.m, r.n, r.k,
        blas::pack_comb(a.view()), blas::pack_comb(b.view()), &dst, 1,
        blas::PackedStreams{pa.data(), nullptr});
    EXPECT_EQ(forked, 4);
    EXPECT_EQ(stats.gemm_threads, forked);
    EXPECT_EQ(std::memcmp(c.data(), direct.data(),
                          sizeof(double) * static_cast<std::size_t>(r.m) *
                              static_cast<std::size_t>(r.n)),
              0);
  }
}

// ------------------------------------------------- quadrant combines

// The Strassen quadrant adds route through the active kernel's vector
// helpers on unit-stride columns; transposed operands take the strided
// fallback. Both paths must agree with the elementwise definition for
// every kernel, including lengths that end in a SIMD tail.
TEST(KernelMatrix, QuadrantCombinesMatchElementwiseUnderEveryKernel) {
  const index_t m = 19, n = 3;  // odd length: exercises vector tails
  Rng rng(2024);
  Matrix x = random_matrix(m, n, rng);
  Matrix y = random_matrix(m, n, rng);
  Matrix xt = random_matrix(n, m, rng);  // transposed operand source
  const ConstView xtv = make_op_view(Trans::transpose, xt.data(), n, m,
                                     xt.ld());
  for (const KernelArch arch : supported_arches()) {
    blas::ScopedKernel pin(arch);
    SCOPED_TRACE(blas::active_kernel().name);
    for (const bool strided : {false, true}) {
      SCOPED_TRACE(strided ? "strided" : "unit-stride");
      const ConstView xv = strided ? xtv : ConstView(x.view());
      auto xat = [&](index_t i, index_t j) {
        return strided ? xt(j, i) : x(i, j);
      };
      Matrix d(m, n);

      core::add(xv, y.view(), d.view());
      for (index_t j = 0; j < n; ++j) {
        for (index_t i = 0; i < m; ++i) {
          EXPECT_DOUBLE_EQ(d(i, j), xat(i, j) + y(i, j));
        }
      }
      core::sub(xv, y.view(), d.view());
      for (index_t j = 0; j < n; ++j) {
        for (index_t i = 0; i < m; ++i) {
          EXPECT_DOUBLE_EQ(d(i, j), xat(i, j) - y(i, j));
        }
      }
      copy(y.view(), d.view());
      core::add_inplace(d.view(), xv);
      for (index_t j = 0; j < n; ++j) {
        for (index_t i = 0; i < m; ++i) {
          EXPECT_DOUBLE_EQ(d(i, j), y(i, j) + xat(i, j));
        }
      }
      copy(y.view(), d.view());
      core::sub_inplace(d.view(), xv);
      for (index_t j = 0; j < n; ++j) {
        for (index_t i = 0; i < m; ++i) {
          EXPECT_DOUBLE_EQ(d(i, j), y(i, j) - xat(i, j));
        }
      }
      copy(y.view(), d.view());
      core::rsub_inplace(d.view(), xv);
      for (index_t j = 0; j < n; ++j) {
        for (index_t i = 0; i < m; ++i) {
          EXPECT_DOUBLE_EQ(d(i, j), xat(i, j) - y(i, j));
        }
      }
      // copy_into and axpby with beta == 0 must tolerate NaN destinations.
      fill_nan(d.view());
      core::copy_into(xv, d.view());
      for (index_t j = 0; j < n; ++j) {
        for (index_t i = 0; i < m; ++i) {
          EXPECT_DOUBLE_EQ(d(i, j), xat(i, j));
        }
      }
      fill_nan(d.view());
      core::axpby(3.0, xv, 0.0, d.view());
      for (index_t j = 0; j < n; ++j) {
        for (index_t i = 0; i < m; ++i) {
          EXPECT_DOUBLE_EQ(d(i, j), 3.0 * xat(i, j));
        }
      }
      copy(y.view(), d.view());
      core::axpy(2.5, xv, d.view());
      for (index_t j = 0; j < n; ++j) {
        for (index_t i = 0; i < m; ++i) {
          EXPECT_DOUBLE_EQ(d(i, j), y(i, j) + 2.5 * xat(i, j));
        }
      }
      copy(y.view(), d.view());
      core::axpby(2.0, xv, -0.5, d.view());
      for (index_t j = 0; j < n; ++j) {
        for (index_t i = 0; i < m; ++i) {
          EXPECT_DOUBLE_EQ(d(i, j), 2.0 * xat(i, j) - 0.5 * y(i, j));
        }
      }
    }
  }
}

// ------------------------------------- worker warm-up, fault injection

// Every test leaves the process-global injector disarmed.
class KernelWarm : public ::testing::Test {
 protected:
  void TearDown() override { fi::disarm(); }
};

// A blocking no earlier warm in this process has covered, whatever ran
// before: larger than any cache-derived one (mc/kc/nc clamp to at most
// 1024/512/8192), with kc growing on every call so both pack sizes exceed
// those of every blocking handed out before. The all-worker warm skips
// blockings it has already proved, so each test that needs cold workers
// takes its own.
blas::GemmBlocking cold_blocking() {
  static index_t calls = 0;
  ++calls;
  return blas::GemmBlocking{1048, 520 + 8 * calls, 8200};
}

TEST_F(KernelWarm, ColdWorkerScratchIsARealAllocation) {
  // Warm the calling thread first so the only cold scratch left belongs to
  // pool workers; then a single armed buffer_alloc fault must surface from
  // the pre-flight warm as std::bad_alloc -- proving the warm reaches the
  // workers and that skipping it would leave a live allocation site for
  // the no-fail compute region to trip over.
  const blas::GemmBlocking bk = cold_blocking();
  blas::ensure_pack_capacity(bk);
  fi::arm(1, fi::Site::buffer_alloc);
  EXPECT_THROW(blas::ensure_pack_capacity_all_workers(bk), std::bad_alloc);
  fi::disarm();

  // The warm is idempotent: once it has succeeded, re-running it performs
  // no allocation at all (an armed fault stays armed).
  EXPECT_NO_THROW(blas::ensure_pack_capacity_all_workers(bk));
  fi::arm(1, fi::Site::buffer_alloc);
  EXPECT_NO_THROW(blas::ensure_pack_capacity_all_workers(bk));
  EXPECT_TRUE(fi::armed());
}

TEST_F(KernelWarm, FloatScratchIsSeparateFromDouble) {
  // Each element size owns its own pack scratch: warming the double side
  // must not satisfy the float side. A fresh cold blocking guarantees both
  // sides are cold for it here, regardless of what earlier tests warmed.
  const blas::GemmBlocking bk = cold_blocking();
  blas::ensure_pack_capacity<double>(bk);
  blas::ensure_pack_capacity_all_workers<double>(bk);
  // Double side fully warm; the float warm must still be a real allocation.
  fi::arm(1, fi::Site::buffer_alloc);
  EXPECT_THROW(blas::ensure_pack_capacity<float>(bk), std::bad_alloc);
  fi::disarm();
  EXPECT_NO_THROW(blas::ensure_pack_capacity_all_workers<float>(bk));
  // Both sides warm: neither re-warm allocates.
  fi::arm(1, fi::Site::buffer_alloc);
  EXPECT_NO_THROW(blas::ensure_pack_capacity_all_workers<double>(bk));
  EXPECT_NO_THROW(blas::ensure_pack_capacity_all_workers<float>(bk));
  EXPECT_TRUE(fi::armed());
}

TEST_F(KernelWarm, PinnedWarmTaskFaultSurfacesAsTaskError) {
  // The per-worker warm tasks run through the instrumented pool entry, so
  // a task-start fault during the pre-flight surfaces as the typed
  // TaskError (and never as a crash inside the compute phase).
  fi::arm(1, fi::Site::pool_task);
  EXPECT_THROW(blas::ensure_pack_capacity_all_workers(cold_blocking()),
               TaskError);
}

TEST_F(KernelWarm, WarmedBlockingSkipsTheBarrier) {
  // After a successful all-worker warm, a call that needs no more scratch
  // (the same blocking or a smaller one) runs no pool task and allocates
  // nothing: armed faults at both sites stay armed.
  const blas::GemmBlocking bk = cold_blocking();
  blas::ensure_pack_capacity_all_workers(bk);
  const blas::GemmBlocking smaller{bk.mc / 2, bk.kc / 2, bk.nc / 2};
  for (const fi::Site site : {fi::Site::pool_task, fi::Site::buffer_alloc}) {
    SCOPED_TRACE(fi::site_name(site));
    fi::arm(1, site);
    EXPECT_NO_THROW(blas::ensure_pack_capacity_all_workers(bk));
    EXPECT_NO_THROW(blas::ensure_pack_capacity_all_workers(smaller));
    EXPECT_TRUE(fi::armed()) << "no barrier may have run";
    fi::disarm();
  }
}

TEST_F(KernelWarm, LargerBlockingRunsTheBarrierAgain) {
  const blas::GemmBlocking bk = cold_blocking();
  blas::ensure_pack_capacity_all_workers(bk);
  const blas::GemmBlocking larger = cold_blocking();
  ASSERT_GT(larger.kc, bk.kc);
  fi::arm(1, fi::Site::pool_task);
  EXPECT_THROW(blas::ensure_pack_capacity_all_workers(larger), TaskError);
}

TEST_F(KernelWarm, FailedWarmIsRetried) {
  // A warm that failed proved nothing: the next call runs the barrier
  // again (an armed pool_task fault fires a second time), and only a
  // successful warm lets later calls skip it.
  const blas::GemmBlocking bk = cold_blocking();
  fi::arm(1, fi::Site::pool_task);
  EXPECT_THROW(blas::ensure_pack_capacity_all_workers(bk), TaskError);
  fi::arm(1, fi::Site::pool_task);
  EXPECT_THROW(blas::ensure_pack_capacity_all_workers(bk), TaskError);
  fi::disarm();
  EXPECT_NO_THROW(blas::ensure_pack_capacity_all_workers(bk));
  fi::arm(1, fi::Site::pool_task);
  EXPECT_NO_THROW(blas::ensure_pack_capacity_all_workers(bk));
  EXPECT_TRUE(fi::armed());
}

TEST_F(KernelWarm, WarmedFanOutComputeAllocatesNothing) {
  // A column split, a skinny column split and a row fallback.
  struct Row {
    index_t m, n, k;
  };
  const Row rows[] = {{300, 64, 160}, {16, 1024, 1024}, {300, 16, 1024}};
  const blas::GemmBlocking bk{32, 24, 48};
  blas::ensure_pack_capacity_all_workers(bk);
  Rng rng(31);
  blas::ScopedGemmThreads fan(6);
  for (const Row& r : rows) {
    SCOPED_TRACE("m=" + std::to_string(r.m) + " n=" + std::to_string(r.n));
    Matrix a = random_matrix(r.m, r.k, rng);
    Matrix b = random_matrix(r.k, r.n, rng);
    Matrix c(r.m, r.n);
    c.fill(0.0);
    fi::arm(1, fi::Site::buffer_alloc);
    const blas::PackComb pa = blas::pack_comb(a.view());
    const blas::PackComb pb = blas::pack_comb(b.view());
    const blas::WriteDest dst = blas::write_dest(c.view(), 1.0, 0.0);
    EXPECT_GT(blas::packed_gemm_multi(bk, r.m, r.n, r.k, pa, pb, &dst, 1), 1);
    // No task -- caller or worker -- constructed a buffer: the fault is
    // still pending, which is exactly the "no allocation inside the
    // no-fail region" property the DESIGN.md section 7 contract needs.
    EXPECT_TRUE(fi::armed());
    fi::disarm();
    Matrix c_ref(r.m, r.n);
    c_ref.fill(0.0);
    blas::gemm_reference(Trans::no, Trans::no, r.m, r.n, r.k, 1.0, a.data(),
                         a.ld(), b.data(), b.ld(), 0.0, c_ref.data(),
                         c_ref.ld());
    EXPECT_LE(max_abs_diff(c.view(), c_ref.view()),
              1e-12 * (static_cast<double>(r.k) + 1.0));
  }
}

TEST_F(KernelWarm, StrictPolicySweepWithFanOutLeavesCUntouched) {
  // Outcome-based sweep through the parallel driver pre-flight: fail the
  // Nth acquisition (any site) for every N until a run completes clean.
  // Strict policy means each faulted run throws with C byte-identical.
  const index_t m = 2100, n = 48, k = 48;
  Rng rng(67);
  Matrix a = random_matrix(m, k, rng);
  Matrix b = random_matrix(k, n, rng);
  Matrix c0 = random_matrix(m, n, rng);
  Matrix c(m, n);
  const std::size_t c_bytes =
      sizeof(double) * static_cast<std::size_t>(m) *
      static_cast<std::size_t>(n);
  blas::ScopedGemmThreads fan(4);
  Arena arena;
  bool completed_clean = false;
  for (long countdown = 1; countdown <= 200 && !completed_clean;
       ++countdown) {
    SCOPED_TRACE("countdown=" + std::to_string(countdown));
    copy(c0.view(), c.view());
    core::DgefmmConfig cfg;
    cfg.workspace = &arena;
    cfg.on_failure = core::FailurePolicy::strict;
    fi::arm(countdown, fi::Site::any);
    try {
      ASSERT_EQ(core::dgefmm(Trans::no, Trans::no, m, n, k, 1.0, a.data(),
                             m, b.data(), k, 0.75, c.data(), m, cfg),
                0);
      if (fi::armed()) {
        // The countdown outlived every fallible acquisition: a clean run.
        completed_clean = true;
      } else {
        ADD_FAILURE() << "strict run completed although a fault fired";
        break;
      }
    } catch (const std::exception&) {
      EXPECT_FALSE(fi::armed());  // the throw must come from the injection
      EXPECT_EQ(std::memcmp(c.data(), c0.data(), c_bytes), 0)
          << "strict failure left C modified";
    }
    fi::disarm();
  }
  EXPECT_TRUE(completed_clean) << "sweep never reached a clean run";
}

// ---------------------------------------------------- composability

// Product-level tasks (parallel_strassen) and intra-GEMM fan-out compose:
// the same call is bitwise deterministic across gemm-thread settings and
// numerically matches the reference.
TEST(KernelMatrix, ParallelStrassenComposesWithIntraGemmFanOut) {
  const index_t m = 704, k = 160, n = 160;
  Rng rng(404);
  Matrix a = random_matrix(m, k, rng);
  Matrix b = random_matrix(k, n, rng);
  Matrix c0 = random_matrix(m, n, rng);

  auto run = [&](int gemm_threads, Matrix& c) {
    copy(c0.view(), c.view());
    blas::ScopedGemmThreads fan(gemm_threads);
    parallel::ParallelDgefmmConfig cfg;
    cfg.scheme = core::Scheme::fused;
    ASSERT_EQ(parallel::dgefmm_parallel(Trans::no, Trans::no, m, n, k, 1.0,
                                        a.data(), m, b.data(), k, 0.5,
                                        c.data(), m, cfg),
              0);
  };
  Matrix serial(m, n), fanned(m, n);
  run(1, serial);
  run(4, fanned);
  EXPECT_EQ(std::memcmp(serial.data(), fanned.data(),
                        sizeof(double) * static_cast<std::size_t>(m) *
                            static_cast<std::size_t>(n)),
            0);

  Matrix c_ref(m, n);
  copy(c0.view(), c_ref.view());
  blas::gemm_reference(Trans::no, Trans::no, m, n, k, 1.0, a.data(), m,
                       b.data(), k, 0.5, c_ref.data(), m);
  EXPECT_LE(max_abs_diff(fanned.view(), c_ref.view()),
            1e-9 * (static_cast<double>(k) + 1.0));
}

// ------------------------------ memory-system knobs: bitwise invisibility

// Pack prefetch and huge-page advice are pure memory-system hints; under
// every kernel, every knob combination must produce bitwise-identical C
// for both the plain packed DGEMM and the fused Strassen schedule (the
// paths whose pack loops carry the prefetch inserts). A prefetch that
// perturbed a value or a combine order would show up here as a single
// differing bit.
TEST(KernelMatrix, PrefetchAndHugePageKnobsAreBitwiseInvisible) {
  const index_t m = 96, n = 88, k = 72;
  Rng rng(4242);
  Matrix a = random_matrix(m, k, rng);
  Matrix b = random_matrix(k, n, rng);
  Matrix c0 = random_matrix(m, n, rng);
  const std::size_t bytes =
      sizeof(double) * static_cast<std::size_t>(m) *
      static_cast<std::size_t>(n);

  for (const KernelArch arch : supported_arches()) {
    blas::ScopedKernel pin(arch);
    SCOPED_TRACE(blas::active_kernel().name);

    const auto run_gemm = [&](bool pf, bool huge, Matrix& c) {
      blas::ScopedPackPrefetch prefetch(pf);
      ScopedHugePages hp(huge);
      copy(c0.view(), c.view());
      blas::dgemm(Trans::no, Trans::no, m, n, k, 1.25, a.data(), a.ld(),
                  b.data(), b.ld(), -0.5, c.data(), c.ld());
    };
    const auto run_fused = [&](bool pf, bool huge, Matrix& c) {
      blas::ScopedPackPrefetch prefetch(pf);
      ScopedHugePages hp(huge);
      copy(c0.view(), c.view());
      core::DgefmmConfig cfg;
      cfg.cutoff = core::CutoffCriterion::square_simple(24);
      cfg.scheme = core::Scheme::fused;
      ASSERT_EQ(core::dgefmm(Trans::no, Trans::no, m, n, k, 1.25, a.data(),
                             a.ld(), b.data(), b.ld(), -0.5, c.data(),
                             c.ld(), cfg),
                0);
    };

    Matrix gemm_base(m, n), fused_base(m, n), other(m, n);
    run_gemm(false, false, gemm_base);
    run_fused(false, false, fused_base);
    for (const bool pf : {false, true}) {
      for (const bool huge : {false, true}) {
        SCOPED_TRACE(std::string("prefetch=") + (pf ? "on" : "off") +
                     " hugepages=" + (huge ? "on" : "off"));
        run_gemm(pf, huge, other);
        EXPECT_EQ(std::memcmp(gemm_base.data(), other.data(), bytes), 0);
        run_fused(pf, huge, other);
        EXPECT_EQ(std::memcmp(fused_base.data(), other.data(), bytes), 0);
      }
    }
  }
}

// Float twin: the prefetch inserts live in the templated pack kernels, so
// the f32 instantiations carry them too.
TEST(KernelMatrixF, PrefetchKnobIsBitwiseInvisible) {
  const index_t m = 80, n = 64, k = 56;
  Rng rng(4343);
  MatrixF a = random_matrix_f(m, k, rng);
  MatrixF b = random_matrix_f(k, n, rng);
  MatrixF c0 = random_matrix_f(m, n, rng);
  const std::size_t bytes =
      sizeof(float) * static_cast<std::size_t>(m) *
      static_cast<std::size_t>(n);
  for (const KernelArch arch : supported_arches()) {
    blas::ScopedKernel pin(arch);
    SCOPED_TRACE(blas::active_kernel_f().name);
    const auto run = [&](bool pf, MatrixF& c) {
      blas::ScopedPackPrefetch prefetch(pf);
      copy(c0.view(), c.view());
      blas::sgemm(Trans::no, Trans::no, m, n, k, 1.25f, a.data(), a.ld(),
                  b.data(), b.ld(), -0.5f, c.data(), c.ld());
    };
    MatrixF base(m, n), other(m, n);
    run(false, base);
    run(true, other);
    EXPECT_EQ(std::memcmp(base.data(), other.data(), bytes), 0);
  }
}

}  // namespace
}  // namespace strassen
