// Fixed-size thread pool used for parallel sub-query execution.
//
// The enhanced Unity driver and the core data access layer fan a federated
// query out to every involved data mart concurrently (the improvement the
// paper makes over the baseline Unity driver, which executes serially).
//
// The queue may be bounded (ThreadPoolOptions::max_queue) so a server under
// overload exerts backpressure instead of buffering an unbounded backlog:
// with kBlock the submitting thread waits for a slot (natural backpressure
// on the fan-out path), with kReject the task is refused immediately and
// the returned future reports std::future_errc::broken_promise. The default
// options keep the seed behaviour exactly: unbounded queue, never blocks,
// never rejects.
//
// Shutdown drains: tasks accepted before the destructor ran are guaranteed
// to execute; only tasks submitted after shutdown began are rejected.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "griddb/util/status.h"

namespace griddb {

/// Worker threads of every fan-out pool (the Unity driver's and the data
/// access layer's).
inline constexpr size_t kFanOutThreads = 8;

struct ThreadPoolOptions {
  /// Queue overflow behaviour when `max_queue` is reached.
  enum class Overflow {
    kBlock,   ///< Submit waits until a slot frees (or shutdown begins).
    kReject,  ///< Submit returns a broken-promise future immediately.
  };

  /// Maximum tasks waiting to run (executing tasks do not count);
  /// 0 = unbounded, the seed behaviour.
  size_t max_queue = 0;
  Overflow overflow = Overflow::kBlock;
};

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1 enforced).
  explicit ThreadPool(size_t num_threads, ThreadPoolOptions options = {});
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Schedules `fn` and returns a future for its result. Safe to call from
  /// multiple threads. Tasks submitted after shutdown began, or refused by
  /// a full kReject queue, are rejected with a broken promise (the future's
  /// get() throws std::future_error{broken_promise}).
  template <typename Fn>
  auto Submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> result = task->get_future();
    if (Enqueue([task] { (*task)(); })) cv_.notify_one();
    return result;
  }

  size_t num_threads() const { return workers_.size(); }

  /// Tasks currently waiting to run (excludes executing tasks). A
  /// backpressure signal for metrics/gauges; racy by nature.
  size_t queue_depth() const;

  /// Tasks refused because the bounded queue was full (kReject policy) or
  /// shutdown had begun.
  size_t rejected_count() const;

 private:
  /// Places the task on the queue, honouring the bound; returns false when
  /// the task was rejected instead.
  bool Enqueue(std::function<void()> task);
  void WorkerLoop();

  const ThreadPoolOptions options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;        // workers wait: work available/shutdown
  std::condition_variable space_cv_;  // submitters wait: queue slot freed
  std::deque<std::function<void()>> queue_;
  bool shutting_down_ = false;
  size_t rejected_ = 0;
  std::vector<std::thread> workers_;
};

/// The federation's one branch loop: runs branch bodies 0..n-1 (sub-queries
/// or table fetches) and returns one `Branch` record per branch.
/// `Branch` is the caller's per-branch record (its cost, stats, partial
/// result) with a `Status status` member; `body(i, branch)` fills record i
/// and returns the status FanOut stores there.
///
/// - width > 1 (and n > 1): every branch is submitted to `pool` and all are
///   awaited. A task the bounded queue rejects never runs; its status is
///   `shed`.
/// - width <= 1: branches run in index order on the calling thread, and the
///   first failure `substitutes(status)` refuses stops the run (fail-fast).
///   Branches after it keep a default record with an Ok status.
template <typename Branch, typename Body, typename Substitutes>
std::vector<Branch> FanOut(ThreadPool& pool, size_t n, size_t width,
                           Body&& body, Substitutes&& substitutes,
                           const Status& shed) {
  std::vector<Branch> branches(n);
  if (width > 1 && n > 1) {
    std::vector<std::future<Status>> futures;
    futures.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      futures.push_back(
          pool.Submit([&body, &branches, i] { return body(i, branches[i]); }));
    }
    for (size_t i = 0; i < n; ++i) {
      try {
        branches[i].status = futures[i].get();
      } catch (const std::future_error&) {
        branches[i].status = shed;  // rejected: the branch never ran
      }
    }
    return branches;
  }
  for (size_t i = 0; i < n; ++i) {
    branches[i].status = body(i, branches[i]);
    if (!branches[i].status.ok() && !substitutes(branches[i].status)) break;
  }
  return branches;
}

}  // namespace griddb
