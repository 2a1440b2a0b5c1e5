#include "core/tuned_policy.hpp"

#include <atomic>
#include <cmath>
#include <cstring>

#include "blas/kernels.hpp"

namespace strassen::core {

namespace {

// Fixed ring of static slots per element type: core's allocation discipline
// forbids heap allocation, and a ring lets a reader holding yesterday's
// pointer survive a fresh install (slot reuse needs kSlots installs in
// between, and installs are rare configuration actions by contract).
constexpr unsigned kSlots = 16;

struct Registry {
  TunedPolicy slots[kSlots];
  std::atomic<unsigned> next{0};
  std::atomic<const TunedPolicy*> active{nullptr};
};

Registry g_registry_f64;
Registry g_registry_f32;

template <class T>
Registry& registry() {
  if constexpr (sizeof(T) == sizeof(float)) {
    return g_registry_f32;
  } else {
    return g_registry_f64;
  }
}

void install(Registry& r, const TunedPolicy& policy) {
  const unsigned i =
      r.next.fetch_add(1, std::memory_order_relaxed) % kSlots;  // relaxed: counter
  r.slots[i] = policy;
  // Release pairs with the consult-side acquire: a reader that sees the
  // pointer sees the fully-written slot.
  r.active.store(&r.slots[i], std::memory_order_release);
}

}  // namespace

template <class T>
void install_tuned_policy(const TunedPolicy& policy) {
  install(registry<T>(), policy);
}

template <class T>
void clear_tuned_policy() {
  registry<T>().active.store(nullptr, std::memory_order_release);
}

template <class T>
const TunedPolicy* tuned_policy() {
  const TunedPolicy* p =
      registry<T>().active.load(std::memory_order_acquire);
  if (p == nullptr) return nullptr;
  // Hard miss on kernel change: the crossovers were measured against the
  // stamped kernel's GEMM speed and say nothing about any other. An empty
  // stamp (a policy that skipped stamping) misses too.
  const char* active_name = blas::active_kernel_t<T>().name;
  if (std::strcmp(p->kernel, active_name) != 0) return nullptr;
  return p;
}

template void install_tuned_policy<double>(const TunedPolicy&);
template void install_tuned_policy<float>(const TunedPolicy&);
template void clear_tuned_policy<double>();
template void clear_tuned_policy<float>();
template const TunedPolicy* tuned_policy<double>();
template const TunedPolicy* tuned_policy<float>();

TunedPath tuned_path_for(const TunedPolicy& policy, index_t m, index_t k,
                         index_t n, int workers) {
  // Equivalent order: the cube edge of a square problem with the same
  // operation count, so one threshold covers rectangular shapes.
  const double s = std::cbrt(static_cast<double>(m) * static_cast<double>(k) *
                             static_cast<double>(n));
  if (policy.tau_fused <= 0 || s <= policy.tau_fused) return TunedPath::gemm;
  if (workers > 1 && policy.tau_dag > 0 && s > policy.tau_dag) {
    return TunedPath::dag;
  }
  // Hybrid outranks the fused thresholds: once the classic recursion wins,
  // it wins for every larger size (its depth grows with the problem while
  // the fused schedules stay capped at two levels). Within that regime a
  // second measured crossover picks the recursion variant: past tau_s2 the
  // forced STRASSEN2 schedule beats the automatic hybrid (the m = 4096
  // regression this threshold exists for -- "hybrid" there was the
  // measured-worst recursion while STRASSEN2 won).
  if (policy.tau_hybrid > 0 && s > policy.tau_hybrid) {
    if (policy.tau_s2 > 0 && s > policy.tau_s2) return TunedPath::strassen2;
    return TunedPath::hybrid;
  }
  if (policy.tau_fused2 > 0 && s > policy.tau_fused2) {
    return TunedPath::fused_l2;
  }
  return TunedPath::fused_l1;
}

}  // namespace strassen::core
