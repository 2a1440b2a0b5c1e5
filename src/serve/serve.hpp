// Robust async serving front-end for the GEFMM verticals (DESIGN.md §12).
//
// The library's entry points are synchronous: the caller owns the thread,
// the workspace, and the failure policy of one call at a time. A long-lived
// service multiplexing many callers needs more -- bounded memory under
// concurrent mixed-shape load, bounded queueing, deadlines, cancellation,
// and a degradation story when the machine is saturated. This module is
// that front-end, built from guarantees the lower layers already prove:
//
//  * Every request's route is resolved once, at admission, and the worker
//    runs exactly that route. A default request takes the library's one
//    tuned route (core::resolve_tuned, as strassen_dgefmm and
//    a tuned dgefmm_parallel do): one pooled GEMM without a tuned policy
//    for the active kernel and thread budget, otherwise the schedule the
//    policy picks, the task DAG included when prefer_parallel is set. A
//    request that names a cutoff recurses on the task DAG or the serial
//    driver, as that cutoff decides.
//
//  * Admission control is *exact*, not heuristic. Every request's peak
//    workspace is the price of its resolved route, from the same predictors
//    the drivers obey (core::workspace_doubles / parallel
//    plan_dag().workspace and the float twins; 0 for one GEMM), and all
//    serving workspace is carved from one budgeted
//    ArenaPoolT (support/arena_pool.hpp) whose invariant
//    in_use + cached <= budget holds under a single mutex. A request that
//    can never fit the budget is rejected (or shed) up front; one that
//    cannot fit *right now* waits for leases to return. The service
//    therefore cannot OOM through workspace, by construction.
//
//  * The submission queue is bounded (ServeOptions::queue_cap) with three
//    backpressure policies: `block` makes submit() wait for a slot,
//    `reject` completes the ticket exceptionally (AdmissionError), and
//    `shed` degrades the overflowing request to the workspace-free plain
//    GEMM baseline on the submitting thread -- the PR 2 fallback path as a
//    load-shedding valve, recorded in ServingStats::shed.
//
//  * Deadlines and cancellation are honored only while C is untouched. A
//    request whose deadline passes while it is still queued completes
//    exceptionally (DeadlineError) with C bit-identical; once running, it
//    runs to completion. cancel() is cooperative: queued requests are
//    swept by the watchdog, running task-DAG requests check the token at
//    node boundaries and abort (CanceledError) only if the cancel wins the
//    race against the first combine's write to C.
//
//  * Every terminal outcome is a typed, queryable state on the ticket --
//    never an exception on a serving thread -- and the queue keeps
//    counters plus p50/p99 latency reservoirs merged with the drivers'
//    DgefmmStats.
//
// The whole front-end is element-generic like the verticals underneath:
// QueueT<double> (Queue) serves dgefmm requests, QueueT<float> (QueueF)
// sgefmm requests, with separately typed budgets. The exception-free C ABI
// lives in serve/serve_cabi.hpp.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>

#include "core/types.hpp"
#include "support/config.hpp"

namespace strassen::serve {

/// What submit() does when the bounded queue is full (and when a request's
/// exact workspace need exceeds the pool budget outright).
enum class OverflowPolicy {
  block,   ///< submit() waits for a queue slot (or the deadline/cancel)
  reject,  ///< the ticket completes exceptionally with AdmissionError
  shed,    ///< degrade to the workspace-free plain GEMM on the submitting
           ///< thread and record the shed (correct product, no queueing)
};

/// Human-readable policy name for reports and the C-ABI env knob.
constexpr const char* overflow_policy_name(OverflowPolicy p) {
  switch (p) {
    case OverflowPolicy::block:
      return "block";
    case OverflowPolicy::reject:
      return "reject";
    case OverflowPolicy::shed:
      return "shed";
  }
  return "?";
}

/// Parses "block"/"reject"/"shed" (exact, lowercase). Returns false and
/// leaves `out` untouched on anything else.
bool parse_overflow_policy(const char* text, OverflowPolicy& out);

/// Lifecycle of one submitted request. Terminal states are everything
/// except queued/running; a ticket in a terminal state never changes again.
enum class RequestStatus {
  queued,     ///< admitted, waiting for a worker (or for workspace)
  running,    ///< a serving worker is executing the GEFMM call
  completed,  ///< C holds the correct product (info() == 0; possibly via a
              ///< recorded degradation -- see TicketT::degraded)
  rejected,   ///< refused at admission (queue full under `reject`, or the
              ///< exact workspace need exceeds the budget); C untouched
  expired,    ///< the deadline passed while still queued; C untouched
  canceled,   ///< cancel() was honored before the first write to C
  failed,     ///< a bad argument (positive info) or a strict-policy typed
              ///< failure (negative info); C untouched either way
};

/// Human-readable status name for diagnostics.
constexpr const char* request_status_name(RequestStatus s) {
  switch (s) {
    case RequestStatus::queued:
      return "queued";
    case RequestStatus::running:
      return "running";
    case RequestStatus::completed:
      return "completed";
    case RequestStatus::rejected:
      return "rejected";
    case RequestStatus::expired:
      return "expired";
    case RequestStatus::canceled:
      return "canceled";
    case RequestStatus::failed:
      return "failed";
  }
  return "?";
}

/// Serving clock. Deadlines are steady-clock instants so they are immune
/// to wall-clock adjustments on a long-lived server.
using Clock = std::chrono::steady_clock;

/// Deadline value meaning "no deadline".
inline constexpr Clock::time_point kNoDeadline = Clock::time_point::max();

/// TicketT::info() value while the request has not reached a terminal
/// state. Terminal values follow the C-ABI convention (core/cabi.hpp):
/// 0 success, positive bad-argument index, negative STRASSEN_INFO_* code.
inline constexpr int kInfoPending = -1000;

/// One C <- alpha*op(A)*op(B) + beta*C request. The A/B/C storage is
/// caller-owned and must stay valid (and, for C, unaliased by other
/// requests) until the ticket reaches a terminal state.
template <class T>
struct GemmRequestT {
  Trans transa = Trans::no;
  Trans transb = Trans::no;
  index_t m = 0;
  index_t n = 0;
  index_t k = 0;
  T alpha = T(1);
  const T* a = nullptr;
  index_t lda = 1;
  const T* b = nullptr;
  index_t ldb = 1;
  T beta = T(0);
  T* c = nullptr;
  index_t ldc = 1;
  /// Cutoff and schedule, as in GefmmConfigT. The default tuned()
  /// criterion resolves the route at admission through core::resolve_tuned
  /// under the submitting thread's GEMM thread budget, and the run is
  /// pinned to that budget: one pooled GEMM when no policy for the active
  /// kernel and budget is installed, else the policy's schedule and
  /// cutoffs (`scheme` is then ignored). An explicit cutoff decides the
  /// execution path itself: shapes it sends straight to GEMM run the
  /// serial driver even when prefer_parallel is set.
  core::CutoffCriterion cutoff = core::CutoffCriterion::tuned();
  core::Scheme scheme = core::Scheme::automatic;
  /// Per-request failure policy for acquisition failures *inside* the
  /// admitted run (injected faults, allocator failure within budget):
  /// strict completes the ticket as failed with the typed error and C
  /// untouched; fallback degrades to the workspace-free GEMM and records a
  /// shed. Admission outcomes (reject/expire/cancel) are independent of
  /// this knob.
  core::FailurePolicy on_failure = core::FailurePolicy::strict;
  /// Let the request run on the task-DAG parallel driver: with an explicit
  /// cutoff whenever the shape supports recursion, on the tuned route when
  /// the policy's DAG crossover picks it. False keeps every request on the
  /// serial driver. The admission predictor prices whichever path will
  /// actually run.
  bool prefer_parallel = true;
  /// Steady-clock deadline; kNoDeadline disables it. Only enforced while
  /// the request is queued -- a request that started computing finishes.
  Clock::time_point deadline = kNoDeadline;
  /// Optional prepacked image of op(B) (blas/pack_operand.hpp), shared
  /// across many requests against the same weights. Borrowed: the handle
  /// (and the source matrix it stamps) must outlive the ticket's terminal
  /// state. Consulted exactly as GefmmConfigT::packed_b -- only where the
  /// admitted run reduces to a single top-level packed GEMM, which is the
  /// skinny-shape serving hot path; the task-DAG driver ignores it. The
  /// handle lives in caller memory, so admission pricing is unchanged: the
  /// streamed path draws no workspace, and a hard miss (kernel or source
  /// mismatch) re-packs fresh inside the same priced lease.
  const blas::PackedOperandT<T>* packed_b = nullptr;
};

using GemmRequest = GemmRequestT<double>;
using GemmRequestF = GemmRequestT<float>;

/// Queue construction options (element-type independent; the budget is
/// counted in elements of the queue's type).
struct ServeOptions {
  /// Bounded submission-queue capacity (clamped to >= 1).
  std::size_t queue_cap = 256;
  /// Backpressure policy when the queue is full or a request can never fit
  /// the budget.
  OverflowPolicy policy = OverflowPolicy::block;
  /// Workspace budget in elements for the queue's ArenaPoolT; 0 means
  /// effectively unlimited (admission never fails on memory).
  std::size_t budget_elements = 0;
  /// Serving worker threads (clamped to [1, 64]). Workers execute requests
  /// FIFO; the GEFMM calls underneath fan out onto the shared thread pool.
  int workers = 2;
  /// Completion-latency reservoir size per queue (clamped to >= 16).
  std::size_t latency_reservoir = 4096;
  /// Watchdog sweep period: the granularity at which queued requests are
  /// expired/canceled and blocked submitters re-check their deadlines.
  std::chrono::milliseconds watchdog_period{2};
};

/// Snapshot of a queue's serving statistics. Counters are cumulative since
/// construction; an inline shed is both a `shed` and a `completed` (it
/// produced a correct product), and a fallback degradation inside an
/// admitted run likewise counts in both.
struct ServingStats {
  std::size_t queue_depth = 0;       ///< requests waiting right now
  std::size_t peak_queue_depth = 0;  ///< high-water mark of queue_depth
  count_t submitted = 0;  ///< submit() calls observed
  count_t admitted = 0;   ///< requests that entered the bounded queue
  count_t completed = 0;  ///< terminal completed (info == 0)
  count_t rejected = 0;   ///< terminal rejected at admission
  count_t shed = 0;       ///< degradations to the workspace-free GEMM
                          ///< (inline admission sheds + in-run fallbacks)
  count_t expired = 0;    ///< terminal expired while queued
  count_t canceled = 0;   ///< terminal canceled before the first C write
  count_t failed = 0;     ///< terminal failed (bad argument or strict error)
  std::size_t budget_elements = 0;  ///< pool budget (elements)
  std::size_t pool_in_use = 0;      ///< elements currently leased
  std::size_t pool_cached = 0;      ///< elements retained for reuse
  std::size_t pool_peak = 0;        ///< peak in_use + cached (<= budget)
  std::size_t latency_samples = 0;  ///< completions in the reservoir window
  double p50_ms = 0.0;              ///< median submit-to-complete latency
  double p99_ms = 0.0;              ///< tail latency over the reservoir
  double max_ms = 0.0;              ///< slowest completion in the reservoir
  core::DgefmmStats gefmm;          ///< merged driver stats of admitted runs
};

namespace detail {
template <class T>
struct RequestStateT;
template <class T>
class QueueImplT;
}  // namespace detail

/// Handle to one submitted request: a future over the shared request
/// state. Move-only; destroying a ticket never cancels or blocks (the
/// request keeps running and the queue keeps its accounting).
template <class T>
class TicketT {
 public:
  TicketT();
  TicketT(TicketT&& other) noexcept;
  TicketT& operator=(TicketT&& other) noexcept;
  TicketT(const TicketT&) = delete;
  TicketT& operator=(const TicketT&) = delete;
  ~TicketT();

  /// True when the ticket refers to a request (default-constructed and
  /// moved-from tickets are invalid; every submit() returns a valid one).
  bool valid() const;

  /// Current lifecycle state (terminal states never change again).
  RequestStatus status() const;

  /// True once the request reached a terminal state.
  bool done() const;

  /// Requests cooperative cancellation. Honored only while C is untouched:
  /// queued requests complete as canceled; a running task-DAG request
  /// aborts at the next node boundary if no combine has written C yet;
  /// otherwise the request completes normally. Idempotent, never blocks.
  void cancel();

  /// Blocks until the terminal state and returns its info code: 0 success,
  /// positive bad-argument index, or a negative STRASSEN_INFO_* code
  /// (core/cabi.hpp; rejected/expired/canceled map to the serving codes).
  int wait();

  /// Terminal info code, or kInfoPending before the terminal state.
  int info() const;

  /// wait(), then rethrows the typed error of a non-success outcome
  /// (AdmissionError / DeadlineError / CanceledError / the stored driver
  /// exception; a positive bad-argument info throws plain Error).
  void get();

  /// True when the result was produced by the workspace-free degradation
  /// path (an inline shed or a recorded in-run fallback). Meaningful once
  /// done().
  bool degraded() const;

  /// Driver statistics of the admitted run (zero for inline sheds and
  /// non-completed outcomes). Meaningful once done().
  core::DgefmmStats stats() const;

  /// Submit-to-terminal latency in milliseconds. Meaningful once done().
  double latency_ms() const;

 private:
  friend class detail::QueueImplT<T>;
  explicit TicketT(std::shared_ptr<detail::RequestStateT<T>> state);

  std::shared_ptr<detail::RequestStateT<T>> state_;
};

using Ticket = TicketT<double>;
using TicketF = TicketT<float>;

/// Bounded async submission queue over the GEFMM verticals for element
/// type T. Owns its serving workers and watchdog; all public methods are
/// thread-safe. Destruction drains: accepted requests finish (or expire /
/// cancel) before the destructor returns, so tickets outliving the queue
/// are always terminal.
template <class T>
class QueueT {
 public:
  explicit QueueT(ServeOptions options = ServeOptions{});
  QueueT(const QueueT&) = delete;
  QueueT& operator=(const QueueT&) = delete;
  ~QueueT();

  /// Submits one request and returns its ticket (always valid). Admission
  /// control runs on the calling thread: argument validation via a
  /// zero-work driver call, exact workspace pricing, then the bounded
  /// queue per the overflow policy -- so submit() may block (policy
  /// `block`), run a shed GEMM inline (policy `shed`), or hand back an
  /// already-terminal ticket (rejected / expired / bad argument). Failure
  /// is reported through the ticket, never thrown, except std::bad_alloc
  /// for the ticket state itself.
  [[nodiscard]] TicketT<T> submit(const GemmRequestT<T>& request);

  /// Snapshot of the queue's counters, gauges, and latency percentiles.
  ServingStats stats() const;

  /// The options the queue was built with (after clamping).
  const ServeOptions& options() const;

  /// Stops accepting new requests, drains the queue (every accepted
  /// request reaches a terminal state), and joins the serving threads.
  /// Idempotent; called by the destructor.
  void shutdown();

 private:
  std::unique_ptr<detail::QueueImplT<T>> impl_;
};

using Queue = QueueT<double>;
using QueueF = QueueT<float>;

extern template class TicketT<double>;
extern template class TicketT<float>;
extern template class QueueT<double>;
extern template class QueueT<float>;

}  // namespace strassen::serve
