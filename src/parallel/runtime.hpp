// Rank-based parallel runtime — the MPI substitute.
//
// The paper distributes query processing over MPI processes (§III-D); this
// reproduction targets a single machine, so "ranks" are tasks:
//   * Each rank gets a RankContext carrying its private pfs::IoLog and a
//     measured-CPU ComponentTimes. Ranks execute deterministically.
//   * run_query_ranks executes ranks sequentially: with per-rank CPU
//     measured independently, the parallel makespan of a phase is the max
//     across ranks (plus PFS-modeled I/O contention from the merged logs)
//     — this gives faithful scaling results even on a 1-core host. Every
//     rank-parallel query path (engine, baselines, multires) is charged
//     through it.
//   * A ThreadPool is provided for genuinely concurrent work where wall
//     time is not being attributed per rank: QueryService's workers, and
//     the one executor behind every write (ingest's stages, the staging
//     writer). A pool of zero workers runs each task inline on the
//     caller, so a serial write is the same code as a parallel one.
//
// Block-to-rank assignment follows the paper's column order: equal block
// counts per rank, blocks of one bin kept on as few ranks as possible so
// each rank opens the fewest bin files (§III-D, Fig. 5).
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "pfs/pfs.hpp"
#include "query/query.hpp"
#include "util/status.hpp"
#include "util/sync.hpp"
#include "util/timer.hpp"

namespace mloc::parallel {

/// Per-rank execution state handed to rank bodies.
struct RankContext {
  int rank = 0;
  int num_ranks = 1;
  pfs::IoLog io_log;      ///< reads issued by this rank
  ComponentTimes times;   ///< measured decompress/reconstruct CPU
};

/// Run body(ctx) for ranks 0..num_ranks-1 (sequentially, deterministic
/// order), stopping at and returning the first error. Then charge the
/// query in `result` from the merged rank logs (records keep their rank
/// tags): exec.bytes_read, exec.modeled_seeks, and the modeled I/O
/// makespan in times.io. times.decompress/reconstruct become
/// the per-phase maxima over ranks (ranks synchronize at phase barriers).
/// Callers add their own gather or overhead term afterwards.
[[nodiscard]] Status run_query_ranks(
    const pfs::PfsConfig& cfg, int num_ranks,
    const std::function<Status(RankContext&)>& body, QueryResult* result);

/// Split n items into `parts` contiguous chunks of near-equal size
/// (first n % parts chunks get one extra). Returns [begin, end) pairs.
std::vector<std::pair<std::size_t, std::size_t>> split_even(std::size_t n,
                                                            int parts);

/// Waitable handle for one submitted task (ThreadPool::submit_waitable).
/// wait() blocks until the task has run; an exception thrown by the task is
/// captured on the worker and rethrown from wait() — the safe path back to
/// the caller that plain submit() lacks (there an escaping exception
/// terminates the process). Handles are single-use: wait() at most once.
class TaskHandle {
 public:
  TaskHandle() = default;

  /// True until wait() consumes the handle.
  [[nodiscard]] bool valid() const noexcept { return future_.valid(); }

  /// Block until the task finished; rethrows the task's exception, if any.
  void wait() { future_.get(); }

 private:
  friend class ThreadPool;
  explicit TaskHandle(std::future<void> future)
      : future_(std::move(future)) {}

  std::future<void> future_;
};

/// Minimal fixed-size thread pool: FIFO queue, `num_threads` workers. With
/// zero workers every task runs inline on the submitting thread before
/// submit returns, in submission order.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();  ///< runs every queued task, then joins the workers

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task; runs on some worker thread (inline without workers).
  void submit(std::function<void()> task) MLOC_EXCLUDES(mutex_);

  /// Enqueue a task and get a handle that joins it individually, with
  /// exception propagation. The task object itself (and whatever it
  /// captured) is destroyed as soon as it has run, not when the handle is
  /// waited on.
  TaskHandle submit_waitable(std::function<void()> task) MLOC_EXCLUDES(mutex_);

 private:
  void worker_loop() MLOC_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;  ///< fixed at construction
  sync::Mutex mutex_;
  sync::CondVar cv_task_;
  std::queue<std::function<void()>> queue_ MLOC_GUARDED_BY(mutex_);
  bool stopping_ MLOC_GUARDED_BY(mutex_) = false;
};

}  // namespace mloc::parallel
