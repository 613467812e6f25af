#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>

#include "util/check.hpp"

namespace hmm::util {

namespace {
/// Set while a thread runs a worker_loop; identifies "my" pool so
/// nested parallel_for calls can help-drain instead of blocking.
thread_local const ThreadPool* tls_worker_pool = nullptr;
/// The node the current worker was pinned to (0 when unpinned).
thread_local int tls_worker_node = 0;
}  // namespace

ThreadPool::ThreadPool(unsigned num_threads, bool pin_workers) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  pinned_ = pin_workers && numa::node_count() > 1;
  queues_.resize(pinned_ ? static_cast<std::size_t>(numa::node_count()) : 1);
  workers_.reserve(num_threads);
  worker_nodes_.reserve(num_threads);
  const unsigned nodes = static_cast<unsigned>(numa::node_count());
  for (unsigned i = 0; i < num_threads; ++i) {
    // Contiguous worker blocks per node, proportional to pool size:
    // worker i of n lands on node floor(i * nodes / n). Pinning
    // happens on the worker thread itself, before it takes any task,
    // so every kernel chunk it runs (and every pool page it
    // first-touches) stays on its node.
    const int node = pinned_ ? static_cast<int>((static_cast<std::uint64_t>(i) * nodes) /
                                                num_threads)
                             : 0;
    worker_nodes_.push_back(node);
    workers_.emplace_back([this, node] {
      if (pinned_) numa::pin_current_thread_to_node(node);
      worker_loop(node);
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
}

bool ThreadPool::on_worker_thread() const noexcept { return tls_worker_pool == this; }

ThreadPool::Task ThreadPool::pop_locked(int preferred) {
  const std::size_t n = queues_.size();
  std::size_t q = static_cast<std::size_t>(preferred) < n
                      ? static_cast<std::size_t>(preferred)
                      : 0;
  // Own node first, then round-robin steal: remote work beats idling.
  for (std::size_t tried = 0; tried < n; ++tried, q = (q + 1) % n) {
    if (!queues_[q].empty()) break;
  }
  Task task = std::move(queues_[q].front());
  queues_[q].pop_front();
  --pending_;
  return task;
}

int ThreadPool::submit_node() const noexcept {
  if (queues_.size() <= 1) return 0;
  // A pinned worker requeues onto its own node (so fanned-out chunks
  // stay local); an external thread lands on whichever node it is
  // currently running on.
  return tls_worker_pool == this ? tls_worker_node : numa::current_node();
}

void ThreadPool::worker_loop(int node) {
  tls_worker_pool = this;
  tls_worker_node = node;
  for (;;) {
    Task task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || pending_ > 0; });
      if (stop_ && pending_ == 0) return;
      task = pop_locked(node);
    }
    task.fn();
  }
}

void ThreadPool::submit(std::function<void()> fn) {
  {
    std::lock_guard lock(mutex_);
    std::size_t q = static_cast<std::size_t>(submit_node());
    if (q >= queues_.size()) q = 0;
    queues_[q].push_back(Task{std::move(fn)});
    ++pending_;
  }
  cv_.notify_one();
}

bool ThreadPool::run_one_task() {
  Task task;
  {
    std::lock_guard lock(mutex_);
    if (pending_ == 0) return false;
    task = pop_locked(tls_worker_pool == this ? tls_worker_node : 0);
  }
  task.fn();
  return true;
}

void ThreadPool::parallel_for_chunks(std::uint64_t begin, std::uint64_t end,
                                     const std::function<void(std::uint64_t, std::uint64_t)>& fn,
                                     unsigned chunks_per_thread, std::uint64_t min_chunk) {
  if (begin >= end) return;
  const std::uint64_t total = end - begin;
  const std::uint64_t max_chunks =
      static_cast<std::uint64_t>(size()) * std::max(1u, chunks_per_thread);
  // The grain caps the count too: at most total / min_chunk chunks.
  const std::uint64_t grain = std::max<std::uint64_t>(1, min_chunk);
  const std::uint64_t chunks = std::min({total, std::max<std::uint64_t>(1, max_chunks),
                                         std::max<std::uint64_t>(1, total / grain)});

  if (chunks == 1 || size() <= 1) {
    fn(begin, end);  // exceptions propagate directly
    return;
  }

  const std::uint64_t step = (total + chunks - 1) / chunks;
  const std::uint64_t n_tasks = (total + step - 1) / step;  // non-empty chunks

  // The completion state must live on the heap, jointly owned by the
  // chunk tasks: the worker that finishes the last chunk still touches
  // the mutex/cv *after* the decrement that releases the waiting
  // caller, so anything on the caller's stack may be gone by then.
  // Sharing `fn` by reference is safe, in contrast — every invocation
  // returns before `remaining` can reach zero, i.e. while the caller
  // is still blocked here.
  struct Completion {
    std::atomic<std::uint64_t> remaining;
    std::mutex mutex;
    std::condition_variable cv;
    std::exception_ptr first_error;  // guarded by mutex
  };
  auto done = std::make_shared<Completion>();
  done->remaining.store(n_tasks, std::memory_order_relaxed);
  const auto* body = &fn;

  auto run_chunk = [done, body](std::uint64_t lo, std::uint64_t hi) {
    try {
      (*body)(lo, hi);
    } catch (...) {
      std::lock_guard lock(done->mutex);
      if (!done->first_error) done->first_error = std::current_exception();
    }
    if (done->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Lock-then-notify pairs with the waiters' predicate recheck
      // under the same mutex: a waiter either observes zero before
      // sleeping or is asleep when this notify fires.
      std::lock_guard lock(done->mutex);
      done->cv.notify_all();
    }
  };

  for (std::uint64_t c = 0; c < n_tasks; ++c) {
    const std::uint64_t lo = begin + c * step;
    const std::uint64_t hi = std::min(end, lo + step);
    submit([run_chunk, lo, hi] { run_chunk(lo, hi); });
  }

  if (on_worker_thread()) {
    // Called from inside one of our own workers (a submitted task that
    // fans out). Blocking here could park every worker while the chunk
    // tasks sit in the queue — so help drain it instead. When the queue
    // is momentarily empty but chunks are still running elsewhere, poll
    // briefly rather than wiring an extra notification channel.
    while (done->remaining.load(std::memory_order_acquire) != 0) {
      if (run_one_task()) continue;
      std::unique_lock lock(done->mutex);
      done->cv.wait_for(lock, std::chrono::milliseconds(1), [&] {
        return done->remaining.load(std::memory_order_acquire) == 0;
      });
    }
  } else {
    std::unique_lock lock(done->mutex);
    done->cv.wait(lock,
                  [&] { return done->remaining.load(std::memory_order_acquire) == 0; });
  }

  // The acq_rel decrements order every first_error store before the
  // acquire load that observed zero, so this read needs no lock.
  if (done->first_error) std::rethrow_exception(done->first_error);
}

void ThreadPool::parallel_for(std::uint64_t begin, std::uint64_t end,
                              const std::function<void(std::uint64_t)>& fn,
                              unsigned chunks_per_thread) {
  parallel_for_chunks(
      begin, end,
      [&fn](std::uint64_t lo, std::uint64_t hi) {
        for (std::uint64_t i = lo; i < hi; ++i) fn(i);
      },
      chunks_per_thread);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace hmm::util
