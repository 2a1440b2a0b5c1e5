#include "serve/serve.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <limits>
#include <mutex>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/packed_loop.hpp"
#include "core/cabi.hpp"
#include "core/dgefmm.hpp"
#include "core/sgefmm.hpp"
#include "core/tuned_policy.hpp"
#include "core/workspace.hpp"
#include "parallel/parallel_strassen.hpp"
#include "parallel/task_dag.hpp"
#include "support/arena_pool.hpp"
#include "support/errors.hpp"
#include "support/stats.hpp"

namespace strassen::serve {

bool parse_overflow_policy(const char* text, OverflowPolicy& out) {
  if (text == nullptr) return false;
  if (std::strcmp(text, "block") == 0) {
    out = OverflowPolicy::block;
    return true;
  }
  if (std::strcmp(text, "reject") == 0) {
    out = OverflowPolicy::reject;
    return true;
  }
  if (std::strcmp(text, "shed") == 0) {
    out = OverflowPolicy::shed;
    return true;
  }
  return false;
}

namespace detail {

// Shared state of one request: the submitter, the serving threads, and
// every ticket clone of the future observe it under its own mutex. The
// queue transitions it to exactly one terminal state (the popper, sweeper,
// or submitter that owns the request at that moment), so a request is
// never completed twice.
template <class T>
struct RequestStateT {
  GemmRequestT<T> req;
  std::size_t need = 0;  // exact workspace price of the chosen path
  bool use_dag = false;  // task-DAG driver vs. serial driver
  // The route resolved at admission: explicit cutoff, scheme and fused
  // levels that the driver runs as priced (never the tuned criterion).
  core::GefmmConfigT<T> route;
  const char* tuned_path = nullptr;  // the tuned route's path, else null
  int budget = 0;  // GEMM thread budget a tuned route was resolved under
                   // (0: no policy was installed, nothing to pin)
  std::atomic<bool> cancel{false};
  Clock::time_point submitted_at{};

  std::mutex mu;
  std::condition_variable cv;
  RequestStatus status = RequestStatus::queued;
  int info = kInfoPending;
  std::exception_ptr error;
  core::DgefmmStats run_stats;
  bool degraded = false;
  double latency_ms = 0.0;
};

template <class T>
class QueueImplT;

// Runs one admitted request on a serving worker: the entry checks, the
// memory wait (the run's only fallible acquisition), then the dispatch
// into the driver. strassen_lint checks this function like the gefmm
// drivers' own pre-flights: every fallible call precedes dispatch_request,
// the first point at which C may be written.
template <class T>
void execute_request(QueueImplT<T>& q,
                     const std::shared_ptr<RequestStateT<T>>& st);

template <class T>
class QueueImplT {
 public:
  explicit QueueImplT(ServeOptions opt)
      : opt_(sanitize(opt)),
        pool_(opt_.budget_elements == 0 ? kUnlimited : opt_.budget_elements),
        reservoir_(opt_.latency_reservoir, 0.0) {
    workers_.reserve(static_cast<std::size_t>(opt_.workers));
    for (int i = 0; i < opt_.workers; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }

  ~QueueImplT() { shutdown(); }

  const ServeOptions& options() const { return opt_; }

  TicketT<T> submit(const GemmRequestT<T>& req) {
    auto st = std::make_shared<RequestStateT<T>>();
    st->req = req;
    st->submitted_at = Clock::now();
    {
      std::lock_guard<std::mutex> guard(stats_mu_);
      ++counters_.submitted;
    }
    // 1. BLAS argument check via a zero-work driver call: alpha == 0 with
    // beta == 1 quick-returns inside the driver after validation, touching
    // neither C nor any workspace.
    const int bad = validate(req);
    if (bad != 0) {
      complete(st, RequestStatus::failed, bad, nullptr);
      return TicketT<T>(st);
    }
    // 2. Exact workspace pricing of the path that will actually run.
    plan_request(*st);
    // 3. Budget feasibility: a need beyond the whole budget can never be
    // satisfied by waiting for leases to return.
    if (st->need > pool_.budget()) {
      if (opt_.policy == OverflowPolicy::shed) {
        run_shed(st);
        return TicketT<T>(st);
      }
      complete_rejected(st,
                        "predicted workspace (" + std::to_string(st->need) +
                            " elements) exceeds the serving budget (" +
                            std::to_string(pool_.budget()) + ")");
      return TicketT<T>(st);
    }
    // 4. Bounded-queue admission per the overflow policy.
    std::unique_lock<std::mutex> lock(mu_);
    while (!stopping_ && queue_.size() >= opt_.queue_cap) {
      if (opt_.policy == OverflowPolicy::reject) {
        lock.unlock();  // handoff: complete outside mu_
        complete_rejected(st, "submission queue is full");
        return TicketT<T>(st);
      }
      if (opt_.policy == OverflowPolicy::shed) {
        lock.unlock();  // handoff: run the shed kernel outside mu_
        run_shed(st);
        return TicketT<T>(st);
      }
      // block: wait for a slot, honoring cancellation and the deadline.
      if (st->cancel.load(std::memory_order_relaxed)) {  // relaxed: cancel-token
        lock.unlock();  // handoff: complete outside mu_
        complete_canceled(st);
        return TicketT<T>(st);
      }
      if (Clock::now() >= st->req.deadline) {
        lock.unlock();  // handoff: complete outside mu_
        complete_expired(st);
        return TicketT<T>(st);
      }
      space_cv_.wait_for(lock, opt_.watchdog_period);
    }
    if (stopping_) {
      lock.unlock();  // handoff: complete outside mu_
      complete_rejected(st, "queue is shutting down");
      return TicketT<T>(st);
    }
    queue_.push_back(st);
    const std::size_t depth = queue_.size();
    lock.unlock();  // handoff: stats counters live under stats_mu_, not mu_
    {
      std::lock_guard<std::mutex> guard(stats_mu_);
      ++counters_.admitted;
      if (depth > counters_.peak_depth) counters_.peak_depth = depth;
    }
    queue_cv_.notify_one();
    return TicketT<T>(st);
  }

  ServingStats stats() const {
    ServingStats out;
    {
      std::lock_guard<std::mutex> lock(mu_);
      out.queue_depth = queue_.size();
    }
    std::vector<double> sample;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      out.peak_queue_depth = counters_.peak_depth;
      out.submitted = counters_.submitted;
      out.admitted = counters_.admitted;
      out.completed = counters_.completed;
      out.rejected = counters_.rejected;
      out.shed = counters_.shed;
      out.expired = counters_.expired;
      out.canceled = counters_.canceled;
      out.failed = counters_.failed;
      out.gefmm = gefmm_;
      const std::size_t n = std::min(samples_total_, reservoir_.size());
      sample.assign(reservoir_.begin(),
                    reservoir_.begin() + static_cast<std::ptrdiff_t>(n));
      out.latency_samples = n;
    }
    out.budget_elements = opt_.budget_elements;
    out.pool_in_use = pool_.in_use();
    out.pool_cached = pool_.cached();
    out.pool_peak = pool_.peak_total();
    if (!sample.empty()) {
      out.max_ms = *std::max_element(sample.begin(), sample.end());
      out.p50_ms = percentile(sample, 50.0);
      out.p99_ms = percentile(std::move(sample), 99.0);
    }
    return out;
  }

  void shutdown() {
    std::call_once(shutdown_once_, [this] {
      {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
      }
      queue_cv_.notify_all();
      space_cv_.notify_all();
      watch_cv_.notify_all();
      for (std::thread& t : workers_) t.join();
      watchdog_.join();
    });
  }

  // --- internals shared with execute_request -------------------------------

  // Maps a captured exception to its documented C-ABI info code.
  static int info_of(const std::exception_ptr& err) {
    try {
      std::rethrow_exception(err);
    } catch (const CanceledError&) {
      return STRASSEN_INFO_CANCELED;
    } catch (const DeadlineError&) {
      return STRASSEN_INFO_EXPIRED;
    } catch (const AdmissionError&) {
      return STRASSEN_INFO_REJECTED;
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

  // Transitions a request to its terminal state, wakes its waiters, and
  // updates the serving counters and the latency reservoir. Never called
  // with mu_ held.
  void complete(const std::shared_ptr<RequestStateT<T>>& st,
                RequestStatus status, int info, std::exception_ptr error,
                bool degraded = false,
                const core::DgefmmStats* run_stats = nullptr) {
    const double ms = std::chrono::duration<double, std::milli>(
                          Clock::now() - st->submitted_at)
                          .count();
    // Account first, publish second: once wait() returns, the serving
    // counters already include this request's terminal state.
    {
      std::lock_guard<std::mutex> guard(stats_mu_);
      switch (status) {
        case RequestStatus::completed:
          ++counters_.completed;
          if (degraded) ++counters_.shed;
          reservoir_[samples_total_ % reservoir_.size()] = ms;
          ++samples_total_;
          break;
        case RequestStatus::rejected:
          ++counters_.rejected;
          break;
        case RequestStatus::expired:
          ++counters_.expired;
          break;
        case RequestStatus::canceled:
          ++counters_.canceled;
          break;
        case RequestStatus::failed:
          ++counters_.failed;
          break;
        case RequestStatus::queued:
        case RequestStatus::running:
          break;  // not terminal; unreachable
      }
      if (run_stats != nullptr) gefmm_.merge_from(*run_stats);
    }
    {
      std::lock_guard<std::mutex> guard(st->mu);
      st->status = status;
      st->info = info;
      st->error = std::move(error);
      st->degraded = degraded;
      if (run_stats != nullptr) st->run_stats = *run_stats;
      st->latency_ms = ms;
    }
    st->cv.notify_all();
  }

  void complete_rejected(const std::shared_ptr<RequestStateT<T>>& st,
                         const std::string& why) {
    complete(st, RequestStatus::rejected, STRASSEN_INFO_REJECTED,
             std::make_exception_ptr(AdmissionError(why)));
  }

  void complete_expired(const std::shared_ptr<RequestStateT<T>>& st) {
    complete(st, RequestStatus::expired, STRASSEN_INFO_EXPIRED,
             std::make_exception_ptr(DeadlineError(
                 "deadline passed while the request was still queued")));
  }

  void complete_canceled(const std::shared_ptr<RequestStateT<T>>& st) {
    complete(st, RequestStatus::canceled, STRASSEN_INFO_CANCELED,
             std::make_exception_ptr(CanceledError(
                 "request canceled before the first write to C")));
  }

  // The load-shedding valve: one workspace-free plain GEMM over the whole
  // problem (the same degraded path as FailurePolicy::fallback), forced
  // serial so shedding never claims pool workers from admitted runs. Runs
  // on the calling thread and records the shed.
  void run_shed(const std::shared_ptr<RequestStateT<T>>& st) {
    const GemmRequestT<T>& r = st->req;
    {
      blas::ScopedGemmThreads serial_gemm(1);
      if constexpr (std::is_same_v<T, float>) {
        blas::sgemm(r.transa, r.transb, r.m, r.n, r.k, r.alpha, r.a, r.lda,
                    r.b, r.ldb, r.beta, r.c, r.ldc);
      } else {
        blas::dgemm(r.transa, r.transb, r.m, r.n, r.k, r.alpha, r.a, r.lda,
                    r.b, r.ldb, r.beta, r.c, r.ldc);
      }
    }
    complete(st, RequestStatus::completed, 0, nullptr, /*degraded=*/true);
  }

  ServeOptions opt_;
  ArenaPoolT<T> pool_;
  mutable std::mutex mu_;             // queue_, stopping_
  std::condition_variable queue_cv_;  // workers: new work / shutdown
  std::condition_variable space_cv_;  // block-policy submitters
  std::condition_variable mem_cv_;    // memory waiters (leases returned)
  std::condition_variable watch_cv_;  // watchdog (shutdown only; the
                                      // watchdog otherwise wakes on its
                                      // period, so it never steals a
                                      // worker's queue_cv_ wakeup)
  std::deque<std::shared_ptr<RequestStateT<T>>> queue_;
  bool stopping_ = false;

 private:
  // Effectively-unlimited budget: large enough that in_use + need never
  // overflows size_t arithmetic in the pool.
  static constexpr std::size_t kUnlimited =
      std::numeric_limits<std::size_t>::max() / 4;

  static ServeOptions sanitize(ServeOptions o) {
    o.queue_cap = std::max<std::size_t>(o.queue_cap, 1);
    o.workers = std::clamp(o.workers, 1, 64);
    o.latency_reservoir = std::max<std::size_t>(o.latency_reservoir, 16);
    o.watchdog_period =
        std::max(o.watchdog_period, std::chrono::milliseconds(1));
    return o;
  }

  // BLAS argument checking without work (see submit step 1). Returns the
  // positive bad-argument index or 0.
  static int validate(const GemmRequestT<T>& req) {
    core::GefmmConfigT<T> plain;
    plain.cutoff = req.cutoff;
    if constexpr (std::is_same_v<T, float>) {
      return core::sgefmm(req.transa, req.transb, req.m, req.n, req.k, T(0),
                          req.a, req.lda, req.b, req.ldb, T(1), req.c,
                          req.ldc, plain);
    } else {
      return core::dgefmm(req.transa, req.transb, req.m, req.n, req.k, T(0),
                          req.a, req.lda, req.b, req.ldb, T(1), req.c,
                          req.ldc, plain);
    }
  }

  // Resolves the route once, at admission, and prices it with the exact
  // predictors, so the carved lease is an exactly-sized borrowed arena the
  // run cannot exceed. A tuned request takes the one tuned route
  // (core::resolve_tuned, the DAG a candidate iff prefer_parallel) under
  // the submitting thread's GEMM budget; an explicit cutoff keeps the
  // DAG-or-serial choice. Either way the DAG decision mirrors
  // gefmm_parallel_t's serial fallback: degenerate shapes and
  // cutoff-stopped problems run (and are priced as) the serial driver.
  void plan_request(RequestStateT<T>& st) const {
    const GemmRequestT<T>& r = st.req;
    st.route.cutoff = r.cutoff;
    st.route.scheme = r.scheme;
    bool dag_candidate = r.prefer_parallel;
    if (r.cutoff.kind == core::CutoffKind::tuned) {
      st.budget =
          core::tuned_policy<T>() != nullptr ? blas::gemm_thread_budget() : 0;
      const core::TunedPath path = core::resolve_tuned<T>(
          r.m, r.k, r.n, r.beta, st.budget, r.prefer_parallel, st.route);
      st.tuned_path = core::tuned_path_name(path);
      dag_candidate = path == core::TunedPath::dag;
    }
    st.use_dag = dag_candidate && r.m >= 2 && r.k >= 2 && r.n >= 2 &&
                 r.alpha != T(0) && !st.route.cutoff.stop(r.m, r.k, r.n, 0);
    if (st.use_dag) {
      parallel::ParallelGefmmConfigT<T> cfg;
      cfg.cutoff = st.route.cutoff;
      cfg.scheme = st.route.scheme;
      st.need = static_cast<std::size_t>(
          parallel::plan_dag<T>(r.m, r.n, r.k, cfg).workspace);
      return;
    }
    count_t need;
    if constexpr (std::is_same_v<T, float>) {
      need = core::workspace_floats(r.m, r.n, r.k, r.beta, st.route);
    } else {
      need = core::workspace_doubles(r.m, r.n, r.k, r.beta, st.route);
    }
    st.need = static_cast<std::size_t>(need);
  }

  void worker_loop() {
    for (;;) {
      std::shared_ptr<RequestStateT<T>> st;
      {
        std::unique_lock<std::mutex> lock(mu_);
        queue_cv_.wait(lock,
                       [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping and drained
        st = queue_.front();
        queue_.pop_front();
      }
      space_cv_.notify_one();
      execute_request(*this, st);
    }
  }

  // Sweeps queued requests whose deadline passed or whose cancel token was
  // set, completing them exceptionally without consuming a worker slot.
  void watchdog_loop() {
    std::vector<std::shared_ptr<RequestStateT<T>>> expired;
    std::vector<std::shared_ptr<RequestStateT<T>>> canceled;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        watch_cv_.wait_for(lock, opt_.watchdog_period);
        if (stopping_ && queue_.empty()) return;
        const Clock::time_point now = Clock::now();
        for (auto it = queue_.begin(); it != queue_.end();) {
          if ((*it)->cancel.load(
                  std::memory_order_relaxed)) {  // relaxed: cancel-token
            canceled.push_back(*it);
            it = queue_.erase(it);
          } else if (now >= (*it)->req.deadline) {
            expired.push_back(*it);
            it = queue_.erase(it);
          } else {
            ++it;
          }
        }
      }
      if (!expired.empty() || !canceled.empty()) space_cv_.notify_all();
      for (const auto& st : canceled) complete_canceled(st);
      for (const auto& st : expired) complete_expired(st);
      canceled.clear();
      expired.clear();
    }
  }

  struct Counters {
    count_t submitted = 0;
    count_t admitted = 0;
    count_t completed = 0;
    count_t rejected = 0;
    count_t shed = 0;
    count_t expired = 0;
    count_t canceled = 0;
    count_t failed = 0;
    std::size_t peak_depth = 0;
  };

  mutable std::mutex stats_mu_;  // counters_, reservoir_, gefmm_
  Counters counters_;
  std::vector<double> reservoir_;  // completion-latency ring (ms)
  std::size_t samples_total_ = 0;
  core::DgefmmStats gefmm_;
  std::once_flag shutdown_once_;
  std::vector<std::thread> workers_;
  std::thread watchdog_;
};

// One admitted run: builds the driver configuration over the borrowed
// lease arena and calls the vertical the admission pricing assumed, with
// the route resolved there. plan_dag is a pure function of the shape, the
// route and the never-rebuilt pool's size, so the driver re-derives exactly
// the priced reservation; the cancel token rides into the task DAG, which
// checks it at every node boundary. A tuned route runs under the GEMM
// budget it was resolved for.
template <class T>
int dispatch_request(const RequestStateT<T>& st, ArenaT<T>& workspace,
                     core::DgefmmStats* run_stats,
                     const std::atomic<bool>* cancel) {
  const GemmRequestT<T>& req = st.req;
  std::optional<blas::ScopedGemmThreads> keyed;
  if (st.budget > 0) keyed.emplace(st.budget);
  run_stats->tuned_path = st.tuned_path;
  if (st.use_dag) {
    parallel::ParallelGefmmConfigT<T> cfg;
    cfg.cutoff = st.route.cutoff;
    cfg.scheme = st.route.scheme;
    cfg.workspace = &workspace;
    cfg.on_failure = req.on_failure;
    cfg.stats = run_stats;
    cfg.cancel = cancel;
    if constexpr (std::is_same_v<T, float>) {
      return parallel::sgefmm_parallel(req.transa, req.transb, req.m, req.n,
                                       req.k, req.alpha, req.a, req.lda,
                                       req.b, req.ldb, req.beta, req.c,
                                       req.ldc, cfg);
    } else {
      return parallel::dgefmm_parallel(req.transa, req.transb, req.m, req.n,
                                       req.k, req.alpha, req.a, req.lda,
                                       req.b, req.ldb, req.beta, req.c,
                                       req.ldc, cfg);
    }
  }
  core::GefmmConfigT<T> cfg = st.route;
  cfg.packed_b = req.packed_b;
  cfg.workspace = &workspace;
  cfg.on_failure = req.on_failure;
  cfg.stats = run_stats;
  if constexpr (std::is_same_v<T, float>) {
    return core::sgefmm(req.transa, req.transb, req.m, req.n, req.k,
                        req.alpha, req.a, req.lda, req.b, req.ldb, req.beta,
                        req.c, req.ldc, cfg);
  } else {
    return core::dgefmm(req.transa, req.transb, req.m, req.n, req.k,
                        req.alpha, req.a, req.lda, req.b, req.ldb, req.beta,
                        req.c, req.ldc, cfg);
  }
}

template <class T>
void execute_request(QueueImplT<T>& q,
                     const std::shared_ptr<RequestStateT<T>>& st) {
  // Entry checks: the request was queued until this moment, so honoring a
  // cancel or an expired deadline here still leaves C untouched.
  if (st->cancel.load(std::memory_order_relaxed)) {  // relaxed: cancel-token
    q.complete_canceled(st);
    return;
  }
  if (Clock::now() >= st->req.deadline) {
    q.complete_expired(st);
    return;
  }
  // Memory wait: carve the exactly-priced lease from the budgeted pool,
  // waiting for other requests' leases to return when it does not fit
  // right now. This is the run's only fallible acquisition; a throw here
  // (allocator failure within budget, or an injected buffer fault) routes
  // through the request's failure policy with C untouched.
  PoolLeaseT<T> lease;
  {
    std::unique_lock<std::mutex> lock(q.mu_);
    for (;;) {
      if (st->cancel.load(std::memory_order_relaxed)) {  // relaxed: cancel-token
        lock.unlock();  // handoff: complete outside mu_
        q.complete_canceled(st);
        return;
      }
      if (Clock::now() >= st->req.deadline) {
        // Waiting for workspace is still "queued": C untouched.
        lock.unlock();  // handoff: complete outside mu_
        q.complete_expired(st);
        return;
      }
      try {
        lease = q.pool_.try_acquire(st->need);
      } catch (...) {
        std::exception_ptr err = std::current_exception();
        lock.unlock();  // handoff: route the failure outside mu_
        if (st->req.on_failure == core::FailurePolicy::fallback) {
          q.run_shed(st);
          return;
        }
        const int code = QueueImplT<T>::info_of(err);
        q.complete(st, RequestStatus::failed, code, std::move(err));
        return;
      }
      if (lease) break;
      q.mem_cv_.wait_for(lock, q.opt_.watchdog_period);
    }
  }
  {
    std::lock_guard<std::mutex> guard(st->mu);
    st->status = RequestStatus::running;
  }
  core::DgefmmStats run_stats;
  int info = 0;
  try {
    info = dispatch_request<T>(*st, lease.arena(), &run_stats, &st->cancel);
  } catch (...) {
    lease.release();
    q.mem_cv_.notify_all();
    std::exception_ptr err = std::current_exception();
    const int code = QueueImplT<T>::info_of(err);
    q.complete(st,
               code == STRASSEN_INFO_CANCELED ? RequestStatus::canceled
                                              : RequestStatus::failed,
               code, std::move(err), /*degraded=*/false, &run_stats);
    return;
  }
  lease.release();
  q.mem_cv_.notify_all();
  // A recorded fallback inside the run means the driver degraded it to the
  // workspace-free path; surface it as a shed in the serving stats.
  const bool degraded = run_stats.fallbacks > 0;
  q.complete(st, RequestStatus::completed, info, nullptr, degraded,
             &run_stats);
}

}  // namespace detail

template <class T>
TicketT<T>::TicketT() = default;

template <class T>
TicketT<T>::TicketT(std::shared_ptr<detail::RequestStateT<T>> state)
    : state_(std::move(state)) {}

template <class T>
TicketT<T>::TicketT(TicketT&& other) noexcept = default;

template <class T>
TicketT<T>& TicketT<T>::operator=(TicketT&& other) noexcept = default;

template <class T>
TicketT<T>::~TicketT() = default;

template <class T>
bool TicketT<T>::valid() const {
  return state_ != nullptr;
}

template <class T>
RequestStatus TicketT<T>::status() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->status;
}

template <class T>
bool TicketT<T>::done() const {
  const RequestStatus s = status();
  return s != RequestStatus::queued && s != RequestStatus::running;
}

template <class T>
void TicketT<T>::cancel() {
  state_->cancel.store(true, std::memory_order_relaxed);  // relaxed: cancel-token
}

template <class T>
int TicketT<T>::wait() {
  detail::RequestStateT<T>& st = *state_;
  std::unique_lock<std::mutex> lock(st.mu);
  st.cv.wait(lock, [&st] {
    return st.status != RequestStatus::queued &&
           st.status != RequestStatus::running;
  });
  return st.info;
}

template <class T>
int TicketT<T>::info() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->info;
}

template <class T>
void TicketT<T>::get() {
  const int code = wait();
  if (code == 0) return;
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    err = state_->error;
  }
  if (err) std::rethrow_exception(err);
  throw Error("gefmm argument " + std::to_string(code) + " is invalid");
}

template <class T>
bool TicketT<T>::degraded() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->degraded;
}

template <class T>
core::DgefmmStats TicketT<T>::stats() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->run_stats;
}

template <class T>
double TicketT<T>::latency_ms() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->latency_ms;
}

template <class T>
QueueT<T>::QueueT(ServeOptions options)
    : impl_(std::make_unique<detail::QueueImplT<T>>(options)) {}

template <class T>
QueueT<T>::~QueueT() = default;  // the impl destructor drains and joins

template <class T>
TicketT<T> QueueT<T>::submit(const GemmRequestT<T>& request) {
  return impl_->submit(request);
}

template <class T>
ServingStats QueueT<T>::stats() const {
  return impl_->stats();
}

template <class T>
const ServeOptions& QueueT<T>::options() const {
  return impl_->options();
}

template <class T>
void QueueT<T>::shutdown() {
  impl_->shutdown();
}

template class TicketT<double>;
template class TicketT<float>;
template class QueueT<double>;
template class QueueT<float>;

}  // namespace strassen::serve
