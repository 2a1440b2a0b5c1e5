#include "support/faultinject.hpp"

#include <atomic>

namespace strassen::faultinject {

namespace {

// `g_active` is the disarmed fast path; the countdown itself is only
// touched while armed. fetch_sub makes the one-shot exact under
// concurrency: with several threads racing past the hook, exactly one
// observes the transition through 1.
std::atomic<bool> g_active{false};
std::atomic<long> g_countdown{0};
std::atomic<long> g_armed_with{0};
std::atomic<int> g_site{static_cast<int>(Site::any)};
std::atomic<long> g_injected{0};

#ifdef NDEBUG
std::atomic<bool> g_guards{false};
#else
std::atomic<bool> g_guards{true};
#endif

thread_local int t_suspend_depth = 0;

}  // namespace

const char* site_name(Site s) {
  switch (s) {
    case Site::arena_alloc:
      return "arena-alloc";
    case Site::arena_reserve:
      return "arena-reserve";
    case Site::buffer_alloc:
      return "buffer-alloc";
    case Site::pool_task:
      return "pool-task";
    case Site::any:
      return "any";
  }
  return "?";
}

void arm(long countdown, Site site) {
  if (countdown < 1) countdown = 1;
  g_site.store(static_cast<int>(site),
               std::memory_order_relaxed);  // relaxed: injector
  g_countdown.store(countdown, std::memory_order_relaxed);  // relaxed: injector
  g_armed_with.store(countdown, std::memory_order_relaxed);  // relaxed: injector
  g_active.store(true, std::memory_order_release);
}

void disarm() {
  g_active.store(false, std::memory_order_relaxed);  // relaxed: injector
  g_countdown.store(0, std::memory_order_relaxed);   // relaxed: injector
}

bool armed() {
  return g_active.load(std::memory_order_relaxed) &&      // relaxed: injector
         g_countdown.load(std::memory_order_relaxed) > 0;  // relaxed: injector
}

long injected_total() {
  return g_injected.load(std::memory_order_relaxed);  // relaxed: injector
}

long consumed() {
  return g_armed_with.load(std::memory_order_relaxed) -  // relaxed: injector
         g_countdown.load(std::memory_order_relaxed);    // relaxed: injector
}

bool should_fail(Site site) {
  if (!g_active.load(std::memory_order_acquire)) return false;
  if (t_suspend_depth > 0) return false;
  const Site armed_site = static_cast<Site>(
      g_site.load(std::memory_order_relaxed));  // relaxed: injector
  if (armed_site != Site::any && armed_site != site) return false;
  const long c = g_countdown.fetch_sub(1, std::memory_order_acq_rel);
  if (c == 1) {
    g_injected.fetch_add(1, std::memory_order_relaxed);  // relaxed: injector
    g_active.store(false, std::memory_order_relaxed);    // relaxed: injector
    return true;
  }
  return false;
}

ScopedSuspend::ScopedSuspend() { ++t_suspend_depth; }
ScopedSuspend::~ScopedSuspend() { --t_suspend_depth; }

bool suspended() { return t_suspend_depth > 0; }

void set_arena_guards(bool on) {
  g_guards.store(on, std::memory_order_relaxed);  // relaxed: injector
}

bool arena_guards() {
  return g_guards.load(std::memory_order_relaxed);  // relaxed: injector
}

}  // namespace strassen::faultinject
