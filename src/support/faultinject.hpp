// Deterministic fault injection for the library's failure contract.
//
// A drop-in DGEMM replacement must also *fail* like DGEMM: running out of
// workspace has to surface as a typed error (or a silent degradation to the
// workspace-free DGEMM path), never as a crash or a half-written C. This
// module provides the test harness that proves it: a one-shot countdown
// that makes the Nth resource acquisition fail, compiled permanently into
// the library's fallible operations:
//
//  * Arena::alloc / Arena::reserve (support/arena.hpp),
//  * AlignedBuffer construction (support/aligned_buffer.hpp),
//  * ThreadPool task bodies (support/thread_pool.cpp).
//
// Disarmed cost is one relaxed atomic load per hook, so the hooks stay in
// release builds and the fault-sweep tests run against the production code
// paths. The countdown is process-global and thread-safe: when parallel
// tasks race to the Nth acquisition, exactly one fires.
//
// The module also owns the switch for the arena's debug guards (canary
// words behind every live allocation plus poisoning of released ranges);
// see support/arena.hpp for the layout.
#pragma once

namespace strassen::faultinject {

/// Instrumented operation classes. `any` is a wildcard used when arming.
enum class Site : int {
  arena_alloc = 0,   ///< Arena::alloc (exercised via the driver's probe)
  arena_reserve = 1, ///< Arena::reserve (workspace acquisition)
  buffer_alloc = 2,  ///< AlignedBuffer construction (any matrix/arena/pack)
  pool_task = 3,     ///< ThreadPool task body entry
  any = 4,           ///< wildcard: match every site
};

/// Human-readable site name for test diagnostics.
const char* site_name(Site s);

/// Arms the one-shot countdown: the `countdown`-th subsequent hook check at
/// `site` (with Site::any, at any site) simulates a failure, then the
/// harness disarms itself. countdown >= 1.
void arm(long countdown, Site site = Site::any);

/// Disarms without firing.
void disarm();

/// True while armed and not yet fired.
bool armed();

/// Number of faults fired since process start.
long injected_total();

/// Hook checks the countdown has consumed since the last arm(): eligible
/// checks only (matching site, calling thread not suspended). Arming with
/// a countdown no call can reach and reading this before disarm() counts
/// the acquisitions of one clean call, which is how the fault sweeps size
/// themselves.
long consumed();

/// Hook called by instrumented code: true when the caller must simulate a
/// failure now. The caller throws its natural error type (WorkspaceError,
/// std::bad_alloc, TaskError) so injected failures are indistinguishable
/// from real ones.
bool should_fail(Site site);

/// RAII suppression of fault injection on the calling thread. The DGEFMM
/// driver holds one across its compute phase: every fallible acquisition
/// happens up front (reserve + probe + pack-buffer warm-up), so the
/// schedules run in a no-fail region and the strict failure policy can
/// guarantee C is untouched whenever a fault fires.
class ScopedSuspend {
 public:
  ScopedSuspend();
  ScopedSuspend(const ScopedSuspend&) = delete;
  ScopedSuspend& operator=(const ScopedSuspend&) = delete;
  ~ScopedSuspend();
};

/// True while the calling thread holds at least one ScopedSuspend. The
/// thread pool consults this at batch submission so a no-fail region
/// travels with the batch: tasks submitted from inside a suspend run under
/// a suspend on their executing thread too.
bool suspended();

/// Enables/disables the arena debug guards (canary + poison; see
/// support/arena.hpp). Default: on when NDEBUG is not defined.
void set_arena_guards(bool on);
bool arena_guards();

}  // namespace strassen::faultinject
