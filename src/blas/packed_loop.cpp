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
// Under intra-GEMM parallelism every task packs A into the scratch of the
// thread that executes it, so the GEFMM pre-flight must warm the pool
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

// Everything one (jc, pc) iteration shares across its ic tasks. Lives on
// the submitting thread's stack; tasks read it while the submitter blocks
// in run_batch_nofail.
template <class T>
struct PanelArgsT {
  const KernelInfoT<T>* kv;
  const GemmBlocking* bk;
  const PackCombT<T>* a;
  const T* b_pack;
  const WriteDestT<T>* dst;
  int ndst;
  index_t jc, pc, nc, kc;
  bool first_panel;
  /// Prepacked op(A) image (null: pack fresh into thread scratch). The
  /// closed-form block offsets need the full operand shape, carried here.
  const T* a_img;
  index_t m_total, k_total;
};

// Runs the mc blocks covering rows [ic0, ic1) of the current (jc, pc)
// iteration, packing each A block into the *executing* thread's scratch.
// The range bounds are multiples of the active kernel's MR (except
// ic1 == m), so distinct ranges touch disjoint C rows, and every C element
// gets the same micro-kernel arithmetic (the same packed A row, B panel
// and kc order) regardless of how the ranges are split.
template <class T>
void run_ic_range(const PanelArgsT<T>& g, index_t ic0, index_t ic1) {
  const KernelInfoT<T>& kv = *g.kv;
  const GemmBlocking& bk = *g.bk;
  T* a_pack = nullptr;
  if (g.a_img == nullptr) {
    PackBuffersT<T>& bufs = pack_buffers<T>();
    bufs.ensure(a_pack_elems<T>(bk), 0);  // no-op on a warmed thread
    a_pack = bufs.a_pack.data();
  }

  alignas(kBufferAlignment) T acc[kMaxMRT<T> * kMaxNRT<T>];
  PackTermT<T> a_terms[kPackMaxTerms];
  const index_t kc = g.kc;
  const index_t nc = g.nc;
  const index_t nc_panels = (nc + kv.nr - 1) / kv.nr;
  for (index_t ic = ic0; ic < ic1; ic += bk.mc) {
    const index_t mc = (ic1 - ic < bk.mc) ? (ic1 - ic) : bk.mc;
    const T* a_block;
    if (g.a_img != nullptr) {
      a_block = g.a_img +
                packed_a_offset(bk, kv.mr, g.m_total, g.k_total, ic, g.pc);
    } else {
      for (int s = 0; s < g.a->n; ++s) {
        a_terms[s] = g.a->term[s];
        a_terms[s].p += ic * g.a->term[s].rs + g.pc * g.a->term[s].cs;
      }
      kv.pack_a_comb(a_terms, g.a->n, mc, kc, a_pack);
      a_block = a_pack;
    }
    const index_t mc_panels = (mc + kv.mr - 1) / kv.mr;
    for (index_t jr = 0; jr < nc_panels; ++jr) {
      const T* bp = g.b_pack + jr * (kv.nr * kc);
      const index_t cols =
          (nc - jr * kv.nr < kv.nr) ? (nc - jr * kv.nr) : kv.nr;
      for (index_t ir = 0; ir < mc_panels; ++ir) {
        const T* ap = a_block + ir * (kv.mr * kc);
        const index_t rows =
            (mc - ir * kv.mr < kv.mr) ? (mc - ir * kv.mr) : kv.mr;
        kv.micro_kernel(kc, ap, bp, acc);
        for (int d = 0; d < g.ndst; ++d) {
          kv.write_tile(acc, rows, cols, g.dst[d].alpha,
                        g.first_panel ? g.dst[d].beta : T(1),
                        g.dst[d].c + (ic + ir * kv.mr) +
                            (g.jc + jr * kv.nr) * g.dst[d].ldc,
                        g.dst[d].ldc);
        }
      }
    }
  }
}

// One fanned-out slice of the ic loop (raw thread-pool task).
template <class T>
struct IcTaskT {
  const PanelArgsT<T>* g;
  index_t ic0, ic1;
};

template <class T>
void run_ic_task(void* arg) {
  const IcTaskT<T>* t = static_cast<const IcTaskT<T>*>(arg);
  run_ic_range(*t->g, t->ic0, t->ic1);
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
  // Fewer than two row units or two tasks' work: serial. Checked before
  // the budget so small problems never construct the pool (the lazy
  // construction is fallible and belongs in a pre-flight).
  const double work = static_cast<double>(m) * static_cast<double>(n) *
                      static_cast<double>(k);
  if (m <= kGemmRowUnit || work < 2 * kGemmMinTaskWork) return 1;
  const index_t units = (m + kGemmRowUnit - 1) / kGemmRowUnit;
  const index_t by_work = static_cast<index_t>(work / kGemmMinTaskWork);
  return static_cast<int>(
      std::min({static_cast<index_t>(gemm_thread_budget()), units, by_work}));
}

template <class T>
void packed_gemm_multi(const GemmBlocking& bk, index_t m, index_t n,
                       index_t k, const PackCombT<T>& a,
                       const PackCombT<T>& b, const WriteDestT<T>* dst,
                       int ndst) {
  packed_gemm_multi(bk, m, n, k, a, b, dst, ndst, PackedStreamsT<T>{});
}

template <class T>
void packed_gemm_multi(const GemmBlocking& bk, index_t m, index_t n,
                       index_t k, const PackCombT<T>& a,
                       const PackCombT<T>& b, const WriteDestT<T>* dst,
                       int ndst, const PackedStreamsT<T>& streams) {
  assert(a.n >= 1 && a.n <= kPackMaxTerms);
  assert(b.n >= 1 && b.n <= kPackMaxTerms);
  assert(ndst >= 1 && ndst <= kPackMaxDests);
  // A streamed side is a single gamma == 1 term by contract (the image is a
  // pure reshaping copy of exactly one operand).
  assert(streams.a == nullptr || (a.n == 1 && a.term[0].gamma == T(1)));
  assert(streams.b == nullptr || (b.n == 1 && b.term[0].gamma == T(1)));
  if (m == 0 || n == 0 || k == 0) return;

  const KernelInfoT<T>& kv = active_kernel_t<T>();
  assert(kv.mr <= kMaxMRT<T> && kv.nr <= kMaxNRT<T>);
  assert(kGemmRowUnit % kv.mr == 0);
  // Fan the ic loop out over contiguous row ranges split by (m, mc,
  // ntasks) alone, so partitioning never depends on pool scheduling.
  // Fresh packing splits into equal runs of kGemmRowUnit rows; a streamed A
  // image splits into whole mc blocks, the only starts its closed-form
  // offsets address.
  const index_t unit = streams.a != nullptr ? bk.mc : kGemmRowUnit;
  const index_t units = (m + unit - 1) / unit;
  const index_t ntasks =
      std::min<index_t>(packed_gemm_threads(m, n, k), units);

  PackBuffersT<T>& bufs = pack_buffers<T>();
  bufs.ensure(streams.a != nullptr ? 0 : a_pack_elems<T>(bk),
              streams.b != nullptr ? 0 : b_pack_elems<T>(bk));
  T* b_pack = bufs.b_pack.data();

  PackTermT<T> b_terms[kPackMaxTerms];

  for (index_t jc = 0; jc < n; jc += bk.nc) {
    const index_t nc = (n - jc < bk.nc) ? (n - jc) : bk.nc;
    for (index_t pc = 0; pc < k; pc += bk.kc) {
      const index_t kc = (k - pc < bk.kc) ? (k - pc) : bk.kc;
      const bool first_panel = (pc == 0);
      const T* b_block;
      if (streams.b != nullptr) {
        b_block = streams.b + packed_b_offset(bk, kv.nr, k, n, jc, pc);
      } else {
        for (int s = 0; s < b.n; ++s) {
          b_terms[s] = b.term[s];
          b_terms[s].p += pc * b.term[s].rs + jc * b.term[s].cs;
        }
        kv.pack_b_comb(b_terms, b.n, kc, nc, b_pack);
        b_block = b_pack;
      }
      const PanelArgsT<T> g{&kv, &bk,      &a, b_block, dst,
                            ndst, jc,      pc, nc,     kc,
                            first_panel, streams.a, m, k};
      if (ntasks <= 1) {
        run_ic_range(g, 0, m);
        continue;
      }
      // Workers read this (jc, pc)'s packed B from the submitter's
      // scratch, which stays pinned while we block below.
      IcTaskT<T> tasks[kMaxGemmTasks];
      parallel::ThreadPool::RawTask raw[kMaxGemmTasks];
      for (index_t t = 0; t < ntasks; ++t) {
        const index_t ic0 = t * units / ntasks * unit;
        const index_t ic1 = std::min(m, (t + 1) * units / ntasks * unit);
        tasks[t] = IcTaskT<T>{&g, ic0, ic1};
        raw[t] = parallel::ThreadPool::RawTask{&run_ic_task<T>, &tasks[t]};
      }
      parallel::global_pool().run_batch_nofail(
          raw, static_cast<std::size_t>(ntasks));
    }
  }
}

template void packed_gemm_multi<double>(const GemmBlocking&, index_t,
                                        index_t, index_t,
                                        const PackCombT<double>&,
                                        const PackCombT<double>&,
                                        const WriteDestT<double>*, int);
template void packed_gemm_multi<float>(const GemmBlocking&, index_t, index_t,
                                       index_t, const PackCombT<float>&,
                                       const PackCombT<float>&,
                                       const WriteDestT<float>*, int);
template void packed_gemm_multi<double>(const GemmBlocking&, index_t,
                                        index_t, index_t,
                                        const PackCombT<double>&,
                                        const PackCombT<double>&,
                                        const WriteDestT<double>*, int,
                                        const PackedStreamsT<double>&);
template void packed_gemm_multi<float>(const GemmBlocking&, index_t, index_t,
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
