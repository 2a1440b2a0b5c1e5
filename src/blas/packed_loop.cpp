#include "blas/packed_loop.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdlib>

#include "blas/kernels.hpp"
#include "blas/pack_operand.hpp"
#include "support/aligned_buffer.hpp"
#include "support/thread_pool.hpp"

namespace strassen::blas {

static_assert(kGemmRowUnit % kMaxMRT<double> == 0 &&
              kGemmRowUnit % kMaxMRT<float> == 0);
static_assert(kGemmColUnit % kMaxNRT<double> == 0 &&
              kGemmColUnit % kMaxNRT<float> == 0);

namespace {

// Pack-buffer sizes in elements for a blocking. Padding uses the
// kMaxMRT<T> / kMaxNRT<T> bounds rather than the active kernel's MR/NR so
// scratch warmed for a blocking fits every kernel variant: the worst-case
// edge panel rounds mc up to a multiple of MR (< mc + MR <= mc + kMaxMR),
// likewise for nc.
template <class T>
std::size_t a_pack_elems(const GemmBlocking& bk) {
  return static_cast<std::size_t>(bk.mc + kMaxMRT<T>) *
         static_cast<std::size_t>(bk.kc);
}

template <class T>
std::size_t b_pack_elems(const GemmBlocking& bk) {
  return static_cast<std::size_t>(bk.kc) *
         static_cast<std::size_t>(bk.nc + kMaxNRT<T>);
}

// Per-thread packing buffers, one set per element type. These belong to the
// GEMM implementation (the vendor BLAS on the paper's machines has the same
// kind of internal scratch) and are deliberately *not* drawn from the
// Strassen workspace arena: Table 1 counts Strassen temporaries, not BLAS
// internals. The fused schedule inherits this accounting: its operand sums
// live here, inside buffers a plain GEMM call of the same blocking already
// needs.
//
// Under intra-GEMM parallelism every task packs A and B into the scratch
// of the thread that executes it, so the GEFMM pre-flight must warm the pool
// workers too (ensure_pack_capacity_all_workers) before the no-fail region.
template <class T>
struct PackBuffersT {
  AlignedBufferT<T> a_pack;
  AlignedBufferT<T> b_pack;
  void ensure(std::size_t a_need, std::size_t b_need) {
    if (a_pack.size() < a_need) a_pack = AlignedBufferT<T>(a_need);
    if (b_pack.size() < b_need) b_pack = AlignedBufferT<T>(b_need);
  }
};

template <class T>
PackBuffersT<T>& pack_buffers() {
  thread_local PackBuffersT<T> bufs;
  return bufs;
}

// The largest pack sizes a successful all-worker warm has proved for
// element type T. Every worker still holds at least this much: the global
// pool is never rebuilt, PackBuffersT::ensure only grows, and workers never
// release their scratch. A failed warm records nothing.
template <class T>
struct WorkersWarmT {
  std::atomic<std::size_t> a_pack{0};
  std::atomic<std::size_t> b_pack{0};
};

template <class T>
WorkersWarmT<T>& workers_warm() {
  static WorkersWarmT<T> warm;
  return warm;
}

int gemm_threads_env_default() {
  const char* env = std::getenv("STRASSEN_GEMM_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || v < 0) return 0;
  return static_cast<int>(std::min<long>(v, kMaxGemmTasks));
}

int& gemm_threads_slot() {
  static const int env_default = gemm_threads_env_default();
  thread_local int setting = env_default;
  return setting;
}

// Everything one packed_gemm_multi call shares across its tasks. Lives on
// the submitting thread's stack; tasks read it while the submitter blocks
// in run_batch_nofail.
template <class T>
struct GemmArgsT {
  const KernelInfoT<T>* kv;
  const GemmBlocking* bk;
  index_t m, n, k;
  const PackCombT<T>* a;
  const PackCombT<T>* b;
  const WriteDestT<T>* dst;
  int ndst;
  const PackedStreamsT<T>* streams;
};

// One task: the block rows [i0, i1) x columns [j0, j1) of every C_d.
template <class T>
struct GemmTaskT {
  const GemmArgsT<T>* g;
  index_t i0, i1, j0, j1;
};

// Runs the whole jc/pc/ic/jr/ir nest over one task's block, packing the A
// blocks and B slivers it reads into the *executing* thread's scratch.
// Blocks follow the call's mc/nc grid clipped to the task's range, so a
// streamed image is addressed at its closed-form block offset plus whole
// MR panels / NR slivers. Range bounds are multiples of the active
// kernel's MR (rows) or NR (columns) except at m and n, so tasks write
// disjoint C and every C element gets the same micro-kernel arithmetic
// (the same packed A row, B column and kc order) however C is split.
template <class T>
void run_block(const GemmTaskT<T>& t) {
  const GemmArgsT<T>& g = *t.g;
  const KernelInfoT<T>& kv = *g.kv;
  const GemmBlocking& bk = *g.bk;
  const T* a_img = g.streams->a;
  const T* b_img = g.streams->b;
  PackBuffersT<T>& bufs = pack_buffers<T>();
  bufs.ensure(a_img != nullptr ? 0 : a_pack_elems<T>(bk),
              b_img != nullptr ? 0 : b_pack_elems<T>(bk));  // warmed: no-op
  alignas(kBufferAlignment) T acc[kMaxMRT<T> * kMaxNRT<T>];
  PackTermT<T> terms[kPackMaxTerms];

  for (index_t jc = t.j0; jc < t.j1;) {
    const index_t jg = jc - jc % bk.nc;  // first column of jc's nc block
    const index_t jc_end = std::min(t.j1, jg + bk.nc);
    const index_t nc = jc_end - jc;
    const index_t nc_panels = (nc + kv.nr - 1) / kv.nr;
    for (index_t pc = 0; pc < g.k; pc += bk.kc) {
      const index_t kc = std::min(bk.kc, g.k - pc);
      const bool first_panel = (pc == 0);
      const T* b_block = b_img;
      if (b_img != nullptr) {
        b_block += packed_b_offset(bk, kv.nr, g.k, g.n, jg, pc) +
                   (jc - jg) * kc;
      } else {
        for (int s = 0; s < g.b->n; ++s) {
          terms[s] = g.b->term[s];
          terms[s].p += pc * terms[s].rs + jc * terms[s].cs;
        }
        kv.pack_b_comb(terms, g.b->n, kc, nc, bufs.b_pack.data());
        b_block = bufs.b_pack.data();
      }
      for (index_t ic = t.i0; ic < t.i1;) {
        const index_t ig = ic - ic % bk.mc;  // first row of ic's mc block
        const index_t ic_end = std::min(t.i1, ig + bk.mc);
        const index_t mc = ic_end - ic;
        const T* a_block = a_img;
        if (a_img != nullptr) {
          a_block += packed_a_offset(bk, kv.mr, g.m, g.k, ig, pc) +
                     (ic - ig) * kc;
        } else {
          for (int s = 0; s < g.a->n; ++s) {
            terms[s] = g.a->term[s];
            terms[s].p += ic * terms[s].rs + pc * terms[s].cs;
          }
          kv.pack_a_comb(terms, g.a->n, mc, kc, bufs.a_pack.data());
          a_block = bufs.a_pack.data();
        }
        const index_t mc_panels = (mc + kv.mr - 1) / kv.mr;
        for (index_t jr = 0; jr < nc_panels; ++jr) {
          const T* bp = b_block + jr * (kv.nr * kc);
          const index_t cols = std::min(kv.nr, nc - jr * kv.nr);
          for (index_t ir = 0; ir < mc_panels; ++ir) {
            const T* ap = a_block + ir * (kv.mr * kc);
            const index_t rows = std::min(kv.mr, mc - ir * kv.mr);
            kv.micro_kernel(kc, ap, bp, acc);
            for (int d = 0; d < g.ndst; ++d) {
              const WriteDestT<T>& w = g.dst[d];
              kv.write_tile(acc, rows, cols, w.alpha,
                            first_panel ? w.beta : T(1),
                            w.c + (ic + ir * kv.mr) +
                                (jc + jr * kv.nr) * w.ldc,
                            w.ldc);
            }
          }
        }
        ic = ic_end;
      }
    }
    jc = jc_end;
  }
}

// One fanned-out task (raw thread-pool task).
template <class T>
void run_task(void* arg) {
  run_block(*static_cast<const GemmTaskT<T>*>(arg));
}

}  // namespace

int gemm_threads() { return gemm_threads_slot(); }

void set_gemm_threads(int threads) {
  gemm_threads_slot() = std::clamp(threads, 0, kMaxGemmTasks);
}

int gemm_thread_budget() {
  const int setting = gemm_threads();
  if (setting != 0) return setting;
  return static_cast<int>(std::clamp<std::size_t>(
      parallel::global_pool().size(), 1, kMaxGemmTasks));
}

int gemm_thread_budget(std::size_t threads) {
  if (threads == 0) return gemm_thread_budget();
  return static_cast<int>(
      std::min<std::size_t>(threads, static_cast<std::size_t>(kMaxGemmTasks)));
}

int packed_gemm_threads(index_t m, index_t n, index_t k) {
  if (gemm_threads() == 1) return 1;
  // Under two tasks' work: serial. Checked before the budget so small
  // problems never construct the pool (the lazy construction is fallible
  // and belongs in a pre-flight).
  const double work = static_cast<double>(m) * static_cast<double>(n) *
                      static_cast<double>(k);
  if (work < 2 * kGemmMinTaskWork) return 1;
  const index_t by_work = static_cast<index_t>(work / kGemmMinTaskWork);
  const index_t want =
      std::min(static_cast<index_t>(gemm_thread_budget()), by_work);
  const index_t col_units = (n + kGemmColUnit - 1) / kGemmColUnit;
  const index_t row_units = (m + kGemmRowUnit - 1) / kGemmRowUnit;
  return static_cast<int>(std::min(want, std::max(col_units, row_units)));
}

template <class T>
int packed_gemm_multi(const GemmBlocking& bk, index_t m, index_t n,
                      index_t k, const PackCombT<T>& a, const PackCombT<T>& b,
                      const WriteDestT<T>* dst, int ndst) {
  return packed_gemm_multi(bk, m, n, k, a, b, dst, ndst,
                           PackedStreamsT<T>{});
}

template <class T>
int packed_gemm_multi(const GemmBlocking& bk, index_t m, index_t n,
                      index_t k, const PackCombT<T>& a, const PackCombT<T>& b,
                      const WriteDestT<T>* dst, int ndst,
                      const PackedStreamsT<T>& streams) {
  assert(a.n >= 1 && a.n <= kPackMaxTerms);
  assert(b.n >= 1 && b.n <= kPackMaxTerms);
  assert(ndst >= 1 && ndst <= kPackMaxDests);
  // A streamed side is a single gamma == 1 term by contract (the image is a
  // pure reshaping copy of exactly one operand).
  assert(streams.a == nullptr || (a.n == 1 && a.term[0].gamma == T(1)));
  assert(streams.b == nullptr || (b.n == 1 && b.term[0].gamma == T(1)));
  if (m == 0 || n == 0 || k == 0) return 0;

  const KernelInfoT<T>& kv = active_kernel_t<T>();
  assert(kv.mr <= kMaxMRT<T> && kv.nr <= kMaxNRT<T>);
  assert(kGemmRowUnit % kv.mr == 0 && kGemmColUnit % kv.nr == 0);
  // A streamed image is addressed in whole panels from its block starts.
  assert(streams.a == nullptr || bk.mc % kv.mr == 0);
  assert(streams.b == nullptr || bk.nc % kv.nr == 0);
  const GemmArgsT<T> g{&kv, &bk, m, n, k, &a, &b, dst, ndst, &streams};
  const index_t ntasks = packed_gemm_threads(m, n, k);
  if (ntasks <= 1) {
    run_block(GemmTaskT<T>{&g, 0, m, 0, n});
    return 1;
  }
  // One fork per call over equal runs of column units; only a product too
  // narrow for ntasks column units splits its rows instead. The partition
  // is a function of (m, n, ntasks) alone, never of pool scheduling.
  const bool by_cols = (n + kGemmColUnit - 1) / kGemmColUnit >= ntasks;
  const index_t extent = by_cols ? n : m;
  const index_t unit = by_cols ? kGemmColUnit : kGemmRowUnit;
  const index_t units = (extent + unit - 1) / unit;
  GemmTaskT<T> tasks[kMaxGemmTasks];
  parallel::ThreadPool::RawTask raw[kMaxGemmTasks];
  for (index_t t = 0; t < ntasks; ++t) {
    const index_t lo = t * units / ntasks * unit;
    const index_t hi = std::min(extent, (t + 1) * units / ntasks * unit);
    tasks[t] = by_cols ? GemmTaskT<T>{&g, 0, m, lo, hi}
                       : GemmTaskT<T>{&g, lo, hi, 0, n};
    raw[t] = parallel::ThreadPool::RawTask{&run_task<T>, &tasks[t]};
  }
  parallel::global_pool().run_batch_nofail(raw,
                                           static_cast<std::size_t>(ntasks));
  return static_cast<int>(ntasks);
}

template int packed_gemm_multi<double>(const GemmBlocking&, index_t, index_t,
                                       index_t, const PackCombT<double>&,
                                       const PackCombT<double>&,
                                       const WriteDestT<double>*, int);
template int packed_gemm_multi<float>(const GemmBlocking&, index_t, index_t,
                                      index_t, const PackCombT<float>&,
                                      const PackCombT<float>&,
                                      const WriteDestT<float>*, int);
template int packed_gemm_multi<double>(const GemmBlocking&, index_t, index_t,
                                       index_t, const PackCombT<double>&,
                                       const PackCombT<double>&,
                                       const WriteDestT<double>*, int,
                                       const PackedStreamsT<double>&);
template int packed_gemm_multi<float>(const GemmBlocking&, index_t, index_t,
                                      index_t, const PackCombT<float>&,
                                      const PackCombT<float>&,
                                      const WriteDestT<float>*, int,
                                      const PackedStreamsT<float>&);

template <class T>
void ensure_pack_capacity(const GemmBlocking& bk) {
  pack_buffers<T>().ensure(a_pack_elems<T>(bk), b_pack_elems<T>(bk));
}

template void ensure_pack_capacity<double>(const GemmBlocking&);
template void ensure_pack_capacity<float>(const GemmBlocking&);

template <class T>
void ensure_pack_capacity_all_workers(const GemmBlocking& bk) {
  ensure_pack_capacity<T>(bk);
  parallel::ThreadPool& pool = parallel::global_pool();
  if (pool.on_worker_thread()) return;  // the outer driver warmed the pool
  // Skip the pool-wide barrier when an earlier warm already covered this
  // blocking: a per-call barrier costs more than a small pooled GEMM.
  const std::size_t a_need = a_pack_elems<T>(bk);
  const std::size_t b_need = b_pack_elems<T>(bk);
  WorkersWarmT<T>& warm = workers_warm<T>();
  if (a_need <= warm.a_pack.load() && b_need <= warm.b_pack.load()) {
    return;
  }
  pool.run_on_each_worker(
      [&bk](std::size_t) { ensure_pack_capacity<T>(bk); });
  // Every size ever stored was proved by a successful warm, so a racing
  // caller can at worst lower the record and cost a later call a barrier.
  warm.a_pack.store(std::max(a_need, warm.a_pack.load()));
  warm.b_pack.store(std::max(b_need, warm.b_pack.load()));
}

template void ensure_pack_capacity_all_workers<double>(const GemmBlocking&);
template void ensure_pack_capacity_all_workers<float>(const GemmBlocking&);

template <class T>
void release_pack_capacity() {
  PackBuffersT<T>& bufs = pack_buffers<T>();
  bufs.a_pack = AlignedBufferT<T>();
  bufs.b_pack = AlignedBufferT<T>();
}

template void release_pack_capacity<double>();
template void release_pack_capacity<float>();

template <class T>
std::size_t pack_capacity_elements() {
  const PackBuffersT<T>& bufs = pack_buffers<T>();
  return bufs.a_pack.size() + bufs.b_pack.size();
}

template std::size_t pack_capacity_elements<double>();
template std::size_t pack_capacity_elements<float>();

}  // namespace strassen::blas
