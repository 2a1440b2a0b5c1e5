#include "support/thread_pool.hpp"

#include <algorithm>
#include <cassert>
#include <optional>

#include "support/errors.hpp"
#include "support/faultinject.hpp"

namespace strassen::parallel {

namespace {

// Identifies the pool (if any) whose worker the current thread is.
thread_local const ThreadPool* t_worker_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  pinned_.resize(threads);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

bool ThreadPool::on_worker_thread() const { return t_worker_pool == this; }

// Claims one task under mu_, unlinking batches whose tasks have all been
// claimed (their submitters keep waiting on `remaining`, which outlives the
// queue membership). With raw_only, function batches are skipped: a thread
// waiting inside run_batch_nofail may hold per-thread pack scratch that a
// recursing std::function task would clobber.
ThreadPool::Batch* ThreadPool::claim_locked(bool raw_only,
                                            std::size_t* index) {
  Batch* prev = nullptr;
  Batch* b = head_;
  while (b != nullptr) {
    if (b->next >= b->count) {
      Batch* done = b;
      b = b->next_batch;
      if (prev != nullptr) {
        prev->next_batch = b;
      } else {
        head_ = b;
      }
      if (done == tail_) tail_ = prev;
      done->next_batch = nullptr;
      continue;
    }
    if (raw_only && b->raw == nullptr) {
      prev = b;
      b = b->next_batch;
      continue;
    }
    *index = b->next++;
    return b;
  }
  return nullptr;
}

// True exactly when claim_locked(raw_only, ...) would return a task right
// now: the predicate the CV waits re-check without mutating the FIFO.
bool ThreadPool::claimable_locked(bool raw_only) const {
  for (const Batch* b = head_; b != nullptr; b = b->next_batch) {
    if (b->next >= b->count) continue;
    if (raw_only && b->raw == nullptr) continue;
    return true;
  }
  return false;
}

// Runs one claimed task (mu_ not held). A nofail batch extends the
// submitter's fault-injection suspend onto this thread for the task's
// duration, which also suppresses the pool_task injection hook -- exactly
// the semantics the no-fail compute region requires.
void ThreadPool::execute(Batch* batch, std::size_t index) {
  std::exception_ptr err;
  try {
    std::optional<faultinject::ScopedSuspend> suspend;
    if (batch->nofail) suspend.emplace();
    if (faultinject::should_fail(faultinject::Site::pool_task)) {
      throw TaskError("fault injection: thread-pool task failed to start");
    }
    if (batch->raw != nullptr) {
      batch->raw[index].fn(batch->raw[index].arg);
    } else {
      batch->fns[index]();
    }
  } catch (...) {
    err = std::current_exception();
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (err && !batch->first_error) batch->first_error = err;
  if (--batch->remaining == 0) cv_.notify_all();
}

// Links the stack-resident batch into the FIFO and wakes the workers.
void ThreadPool::link_batch(Batch& batch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tail_ != nullptr) {
    tail_->next_batch = &batch;
  } else {
    head_ = &batch;
  }
  tail_ = &batch;
  cv_.notify_all();
}

// Waits for a linked batch to drain, help-executing queued tasks
// meanwhile. Progress never depends on other threads: when nobody else
// claims this batch's tasks, the loop claims and runs them itself.
void ThreadPool::wait_batch(Batch& batch, bool help_functions) {
  std::unique_lock<std::mutex> lock(mu_);
  while (batch.remaining > 0) {
    std::size_t index = 0;
    Batch* victim = claim_locked(/*raw_only=*/!help_functions, &index);
    if (victim != nullptr) {
      lock.unlock();  // handoff: run the claimed task without holding mu_
      execute(victim, index);
      lock.lock();
      continue;
    }
    cv_.wait(lock, [&] {
      return batch.remaining == 0 || claimable_locked(!help_functions);
    });
  }
  // The batch dies with this stack frame, so it must leave the FIFO now:
  // claim scans unlink fully-claimed batches only lazily, and `remaining`
  // can reach zero before any scan passes by.
  Batch* prev = nullptr;
  for (Batch* b = head_; b != nullptr; prev = b, b = b->next_batch) {
    if (b == &batch) {
      if (prev != nullptr) {
        prev->next_batch = batch.next_batch;
      } else {
        head_ = batch.next_batch;
      }
      if (tail_ == &batch) tail_ = prev;
      batch.next_batch = nullptr;
      break;
    }
  }
}

void ThreadPool::run_batch_nofail(const RawTask* tasks, std::size_t count) {
  if (count == 0) return;
  Batch batch;
  batch.raw = tasks;
  batch.count = count;
  batch.remaining = count;
  batch.nofail = faultinject::suspended();
  link_batch(batch);
  wait_batch(batch, /*help_functions=*/false);
  if (batch.first_error) std::rethrow_exception(batch.first_error);
}

void ThreadPool::run_on_each_worker(
    const std::function<void(std::size_t)>& fn) {
  assert(!on_worker_thread());
  // Serializing callers keeps the per-worker slots single-writer; the warm
  // itself is a pre-flight operation, so blocking here is fine.
  std::lock_guard<std::mutex> warm(warm_mu_);
  std::unique_lock<std::mutex> lock(mu_);
  pinned_error_ = nullptr;
  pinned_pending_ = workers_.size();
  for (auto& slot : pinned_) slot = fn;
  cv_.notify_all();
  // No help-execution needed: every worker returns to its loop (draining
  // its own nested batches on the way) and serves its pinned slot.
  cv_.wait(lock, [this] { return pinned_pending_ == 0; });
  if (pinned_error_) {
    std::exception_ptr err = pinned_error_;
    pinned_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  t_worker_pool = this;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // Pinned (per-worker) tasks first: pre-flight warm-ups must not queue
    // behind long compute batches.
    if (pinned_[worker_index]) {
      std::function<void(std::size_t)> fn = std::move(pinned_[worker_index]);
      pinned_[worker_index] = nullptr;
      lock.unlock();  // handoff: run the pinned task without holding mu_
      std::exception_ptr err;
      try {
        if (faultinject::should_fail(faultinject::Site::pool_task)) {
          throw TaskError("fault injection: thread-pool task failed to start");
        }
        fn(worker_index);
      } catch (...) {
        err = std::current_exception();
      }
      lock.lock();
      if (err && !pinned_error_) pinned_error_ = err;
      --pinned_pending_;
      cv_.notify_all();
      continue;
    }
    std::size_t index = 0;
    if (Batch* batch = claim_locked(/*raw_only=*/false, &index)) {
      lock.unlock();  // handoff: run the claimed task without holding mu_
      execute(batch, index);
      lock.lock();
      continue;
    }
    if (stop_) return;
    cv_.wait(lock, [&] {
      return stop_ || static_cast<bool>(pinned_[worker_index]) ||
             claimable_locked(/*raw_only=*/false);
    });
  }
}

// --- dependency-DAG execution ----------------------------------------------

DagRun::DagRun(const ThreadPool::DagNode* nodes, std::size_t count,
               std::size_t lanes)
    : nodes_(nodes),
      count_(count),
      lanes_(lanes == 0 ? 1 : lanes),
      deps_(count),
      slot_storage_(lanes_ * count),
      lane_state_(new Lane[lanes_]),
      remaining_(count) {
  for (std::size_t l = 0; l < lanes_; ++l) {
    lane_state_[l].slots = slot_storage_.data() + l * count_;
  }
  lane_tasks_.reserve(lanes_ - 1);
  for (std::size_t l = 1; l < lanes_; ++l) {
    lane_tasks_.emplace_back([this, l] { pool_->participate(*this, l); });
  }
  // Seed: dependency counters from the node table, initially ready nodes
  // dealt round-robin across the lanes (single-threaded here, so plain
  // stores are fine).
  std::size_t next_lane = 0;
  for (std::size_t i = 0; i < count_; ++i) {
    deps_[i].store(nodes_[i].dependencies,
                   std::memory_order_relaxed);  // relaxed: counter
    if (nodes_[i].dependencies == 0) {
      Lane& lane = lane_state_[next_lane];
      lane.slots[lane.tail++] = static_cast<std::int32_t>(i);
      next_lane = (next_lane + 1) % lanes_;
    }
  }
}

void DagRun::push_ready(std::size_t lane, std::int32_t node) {
  {
    Lane& own = lane_state_[lane];
    std::lock_guard<std::mutex> g(own.mu);
    own.slots[own.tail++] = node;
  }
  bump_generation_and_wake();
}

std::int32_t DagRun::pop_or_steal(std::size_t lane) {
  {
    Lane& own = lane_state_[lane];
    std::lock_guard<std::mutex> g(own.mu);
    if (own.tail > own.head) return own.slots[--own.tail];
  }
  for (std::size_t off = 1; off < lanes_; ++off) {
    Lane& victim = lane_state_[(lane + off) % lanes_];
    std::lock_guard<std::mutex> g(victim.mu);
    if (victim.tail > victim.head) {
      steals_.fetch_add(1, std::memory_order_relaxed);  // relaxed: counter
      return victim.slots[victim.head++];
    }
  }
  return -1;
}

void DagRun::record_error() {
  {
    std::lock_guard<std::mutex> g(wait_mu_);
    if (!first_error_) first_error_ = std::current_exception();
  }
  failed_.store(true, std::memory_order_release);
}

void DagRun::bump_generation_and_wake() {
  {
    std::lock_guard<std::mutex> g(wait_mu_);
    ++generation_;
  }
  wait_cv_.notify_all();
}

// One lane's scheduling loop: pop own work LIFO, steal FIFO, sleep when the
// graph has in-flight nodes but none ready. The generation counter closes
// the check-then-sleep race: any push after the snapshot bumps it, so the
// predicate wakes the sleeper. Exits when every node ran or the run failed.
void ThreadPool::participate(DagRun& run, std::size_t lane) {
  for (;;) {
    if (run.failed_.load(std::memory_order_acquire)) return;
    if (run.remaining_.load(std::memory_order_acquire) == 0) return;
    std::uint64_t gen;
    {
      std::lock_guard<std::mutex> g(run.wait_mu_);
      gen = run.generation_;
    }
    const std::int32_t node = run.pop_or_steal(lane);
    if (node < 0) {
      std::unique_lock<std::mutex> lk(run.wait_mu_);
      run.wait_cv_.wait(lk, [&] {
        return run.generation_ != gen ||
               run.failed_.load(
                   std::memory_order_relaxed) ||  // relaxed: cancel-token
               run.remaining_.load(
                   std::memory_order_relaxed) == 0;  // relaxed: counter
      });
      continue;
    }
    const DagNode& nd = run.nodes_[node];
    const int active =
        run.active_.fetch_add(1, std::memory_order_relaxed) +  // relaxed: counter
        1;
    int peak =
        run.peak_active_.load(std::memory_order_relaxed);  // relaxed: counter
    while (active > peak &&
           !run.peak_active_.compare_exchange_weak(
               peak, active, std::memory_order_relaxed)) {  // relaxed: counter
    }
    bool ok = true;
    try {
      nd.fn(nd.arg, lane);
    } catch (...) {
      ok = false;
      run.record_error();
    }
    run.active_.fetch_sub(1, std::memory_order_relaxed);  // relaxed: counter
    if (!ok) {
      run.bump_generation_and_wake();
      return;
    }
    for (std::int32_t s = 0; s < nd.nsuccessors; ++s) {
      const std::int32_t succ = nd.successors[s];
      if (run.deps_[static_cast<std::size_t>(succ)].fetch_sub(
              1, std::memory_order_acq_rel) == 1) {
        run.push_ready(lane, succ);
      }
    }
    if (run.remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      run.bump_generation_and_wake();
      return;
    }
  }
}

void ThreadPool::run_dag(DagRun& run) {
  assert(!run.used_);
  run.used_ = true;
  run.pool_ = this;
  if (run.count_ == 0) return;
  // Lanes 1..N-1 are a *function* batch: a node body waiting inside a
  // nested run_batch_nofail help-executes raw tasks only, so it can never
  // claim another lane and recursively re-enter the DAG on a thread whose
  // pack scratch is live.
  Batch batch;
  if (run.lanes_ > 1) {
    batch.fns = run.lane_tasks_.data();
    batch.count = run.lane_tasks_.size();
    batch.remaining = run.lane_tasks_.size();
    batch.nofail = faultinject::suspended();
    link_batch(batch);
  }
  participate(run, 0);
  if (run.lanes_ > 1) {
    // Lanes exit as soon as the graph drains or fails; unclaimed lane
    // tasks are claimed here and return immediately.
    wait_batch(batch, /*help_functions=*/true);
  }
  if (run.first_error_) std::rethrow_exception(run.first_error_);
  // A lane task that failed to *start* (pool_task fault injection at the
  // batch entry) surfaces as TaskError even though the remaining lanes
  // finished the graph: the run did not get the concurrency it planned.
  if (batch.first_error) std::rethrow_exception(batch.first_error);
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace strassen::parallel
