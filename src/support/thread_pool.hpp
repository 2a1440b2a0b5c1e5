// Fixed-size thread pool with batch semantics, help-execution, and an
// allocation-free submission path.
//
// The paper lists parallelism as future work (Section 5); this module is
// the corresponding extension. It serves two very different callers:
//
//  * the parallel Strassen top level (parallel/task_dag.cpp) runs its
//    seven products and four combines as a work-stealing dependency DAG
//    via run_dag, whose lanes are function tasks;
//
//  * the packed GEMM itself (blas/packed_loop.cpp) forks its column (or
//    row) ranges from *inside* the no-fail compute region, where nothing may
//    allocate. run_batch_nofail takes a caller-owned array of raw
//    function-pointer tasks and keeps all batch bookkeeping on the
//    caller's stack, so submission performs no heap operation at all.
//
// Both entry points block until their work drains, and the waiting thread
// help-executes queued work meanwhile -- so a pool worker running a
// Strassen product may submit a nested intra-GEMM batch without
// deadlocking even on a single-worker pool. This file lives in support/
// (not parallel/) because the BLAS layer depends on it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace strassen::parallel {

class DagRun;

class ThreadPool {
 public:
  /// One allocation-free task: fn(arg). The function pointer and argument
  /// are caller-owned and must outlive the run_batch_nofail call.
  struct RawTask {
    void (*fn)(void*) = nullptr;
    void* arg = nullptr;
  };

  /// Creates `threads` workers (0 means std::thread::hardware_concurrency).
  explicit ThreadPool(std::size_t threads = 0);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  std::size_t size() const { return workers_.size(); }

  /// Runs tasks[0..count) and returns when every one has finished, without
  /// allocating: the batch state lives on this call's stack and the task
  /// array is read in place. Designed for the packed GEMM's intra-product
  /// fan-out inside a no-fail region, which imposes the contract:
  ///
  ///  * if the calling thread holds a faultinject::ScopedSuspend, every
  ///    task runs under a suspend on its executing thread too (the no-fail
  ///    region travels with the batch, and pool_task fault injection is
  ///    likewise suppressed);
  ///  * raw tasks must not throw and must not submit nested batches;
  ///  * while waiting, the calling thread help-executes raw tasks only
  ///    (never std::function tasks, which may recursively claim the
  ///    caller's thread-local pack scratch).
  ///
  /// Progress never depends on other threads: the caller can always drain
  /// its own batch.
  void run_batch_nofail(const RawTask* tasks, std::size_t count);

  /// Runs fn(worker_index) exactly once on each pool worker thread and
  /// blocks until all have finished; used to warm per-worker thread-local
  /// scratch during a pre-flight. An exception from any invocation is
  /// rethrown (the first one) after all workers finish. Serializes against
  /// concurrent callers. Must not be called from a worker of this pool.
  void run_on_each_worker(const std::function<void(std::size_t)>& fn);

  /// One node of a dependency DAG: fn(arg, lane) runs once all of the
  /// node's dependencies have finished; on completion each successor's
  /// dependency count is decremented and nodes reaching zero become ready.
  /// The successor array is caller-owned and must outlive the run.
  struct DagNode {
    void (*fn)(void*, std::size_t lane) = nullptr;
    void* arg = nullptr;
    const std::int32_t* successors = nullptr;
    std::int32_t nsuccessors = 0;
    std::int32_t dependencies = 0;  ///< in-degree (edges into this node)
  };

  /// Executes a prepared DagRun and returns when every node has finished
  /// (or an error aborted the graph). Scheduling is work-stealing over
  /// `run.lanes()` lanes: lane 0 is the calling thread, the others are
  /// claimed as pool tasks; each lane pops newly readied nodes from its
  /// own deque LIFO (locality) and steals FIFO from a victim lane when
  /// empty, so a combine whose inputs are done overlaps with still-running
  /// products instead of waiting at a barrier. All bookkeeping was
  /// allocated by the DagRun constructor, so this call performs no heap
  /// operation -- it is a sanctioned no-fail entry point, like
  /// run_batch_nofail. If the calling thread holds a
  /// faultinject::ScopedSuspend, every lane runs under a suspend too.
  ///
  /// Node bodies may submit nested run_batch_nofail batches (the intra-GEMM
  /// fan-out); lanes are function tasks, so a thread waiting inside a
  /// nested raw batch can never re-enter the DAG recursively. A node body
  /// that throws marks the run failed: in-flight nodes finish, the
  /// remaining graph is abandoned, and the first error is rethrown here
  /// after every lane has exited. The pool stays usable. Each DagRun is
  /// single-use.
  void run_dag(DagRun& run);

  /// True when the calling thread is one of this pool's workers.
  bool on_worker_thread() const;

 private:
  friend class DagRun;
  // One batch of tasks; lives on the submitting thread's stack for its
  // whole life and is linked into the pool's intrusive FIFO until every
  // task has been claimed.
  struct Batch {
    const RawTask* raw = nullptr;        // raw mode when non-null
    std::function<void()>* fns = nullptr;  // function mode otherwise
    std::size_t count = 0;
    std::size_t next = 0;       // first unclaimed task (guarded by mu_)
    std::size_t remaining = 0;  // unfinished tasks (guarded by mu_)
    bool nofail = false;        // extend the submitter's suspend to tasks
    std::exception_ptr first_error;  // guarded by mu_
    Batch* next_batch = nullptr;
  };

  void link_batch(Batch& batch);
  void wait_batch(Batch& batch, bool help_functions);
  Batch* claim_locked(bool raw_only, std::size_t* index);
  bool claimable_locked(bool raw_only) const;  // CV wait predicates
  void execute(Batch* batch, std::size_t index);  // called without mu_
  void worker_loop(std::size_t worker_index);
  void participate(DagRun& run, std::size_t lane);

  mutable std::mutex mu_;
  std::condition_variable cv_;  // new work, task completion, pinned done
  Batch* head_ = nullptr;       // intrusive FIFO of unclaimed batches
  Batch* tail_ = nullptr;
  std::vector<std::function<void(std::size_t)>> pinned_;  // slot per worker
  std::size_t pinned_pending_ = 0;
  std::exception_ptr pinned_error_;
  bool stop_ = false;
  std::mutex warm_mu_;  // serializes run_on_each_worker callers
  std::vector<std::thread> workers_;
};

/// Prepared execution state for one ThreadPool::run_dag call.
///
/// The constructor performs every allocation the run will need (per-lane
/// ready deques, atomic dependency counters, the lane participation tasks)
/// and seeds the initially ready nodes round-robin across the lanes -- it
/// is the fallible acquisition step, built during a driver's pre-flight.
/// The node array and each node's successor list are caller-owned and must
/// outlive the run. `lanes` bounds scheduling width: at most `lanes` nodes
/// execute concurrently (the moldable allotment planners rely on this).
class DagRun {
 public:
  DagRun(const ThreadPool::DagNode* nodes, std::size_t count,
         std::size_t lanes);
  DagRun(const DagRun&) = delete;
  DagRun& operator=(const DagRun&) = delete;

  std::size_t lanes() const { return lanes_; }
  std::size_t size() const { return count_; }

  /// Nodes a lane executed out of another lane's deque (valid after the
  /// run; the overlap the stealing scheduler achieved).
  long steals() const {
    return steals_.load(std::memory_order_relaxed);  // relaxed: counter
  }

  /// Largest number of node bodies ever executing simultaneously (valid
  /// after the run; the oversubscription regression tests pin this to the
  /// planned lane count).
  int peak_active() const {
    return peak_active_.load(std::memory_order_relaxed);  // relaxed: counter
  }

 private:
  friend class ThreadPool;

  // One lane's ready deque. head/tail only grow; every node is pushed to
  // exactly one deque exactly once, so a ring of `count` slots never
  // wraps. Owner pops at tail (LIFO), thieves take at head (FIFO).
  struct Lane {
    std::mutex mu;
    std::int32_t* slots = nullptr;
    std::size_t head = 0, tail = 0;  // guarded by mu
  };

  void push_ready(std::size_t lane, std::int32_t node);
  std::int32_t pop_or_steal(std::size_t lane);
  void record_error();             // captures current_exception, sets failed_
  void bump_generation_and_wake();

  const ThreadPool::DagNode* nodes_;
  std::size_t count_;
  std::size_t lanes_;
  std::vector<std::atomic<std::int32_t>> deps_;
  std::vector<std::int32_t> slot_storage_;  // lanes_ * count_
  std::unique_ptr<Lane[]> lane_state_;
  std::vector<std::function<void()>> lane_tasks_;  // lanes 1..lanes_-1
  std::atomic<std::size_t> remaining_;
  std::atomic<bool> failed_{false};
  std::atomic<long> steals_{0};
  std::atomic<int> active_{0};
  std::atomic<int> peak_active_{0};
  std::exception_ptr first_error_;  // guarded by wait_mu_
  std::mutex wait_mu_;              // guards generation_ / first_error_
  std::condition_variable wait_cv_;
  std::uint64_t generation_ = 0;  // bumped on every push / failure / drain
  ThreadPool* pool_ = nullptr;    // bound by run_dag
  bool used_ = false;
};

/// Process-wide shared pool (lazily constructed).
ThreadPool& global_pool();

}  // namespace strassen::parallel
