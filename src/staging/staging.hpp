// In-situ staging pipeline — paper contribution 4: "MLOC implements a data
// processing pipeline which is readily incorporated with existing data
// staging frameworks [DataStager, PreDatA] to achieve efficient in-situ
// data layout optimization and compression."
//
// The pipeline decouples the simulation's output cadence from MLOC's
// layout+compression work: the producer submits time-step grids and
// returns immediately (double-buffered, bounded backlog = backpressure), a
// one-worker parallel::ThreadPool runs the full MLOC write path for each
// step in submission order, and finish() waits for the backlog and
// surfaces the first error. Each submitted step becomes a store variable
// named "<var>@<step>", giving the spatio-temporal naming used by the
// time-range query helper.
#pragma once

#include <cstdint>
#include <semaphore>
#include <set>
#include <string>

#include "core/store.hpp"
#include "parallel/runtime.hpp"
#include "util/sync.hpp"

namespace mloc::staging {

/// Variable name of one staged time step.
std::string step_variable(const std::string& var, std::uint64_t step);

class StagingPipeline {
 public:
  struct Options {
    /// Steps buffered before submit() blocks (producer backpressure).
    std::size_t queue_capacity = 2;
  };

  struct Stats {
    std::uint64_t steps_submitted = 0;
    std::uint64_t steps_staged = 0;
    std::uint64_t bytes_in = 0;       ///< raw grid bytes accepted
    double staging_seconds = 0.0;     ///< time spent inside the write path
    double producer_wait_seconds = 0.0;  ///< time submit() spent blocked
  };

  /// The store must outlive the pipeline. Writes are serialized on the
  /// pipeline's one worker; the producer thread only enqueues.
  StagingPipeline(MlocStore* store, Options opts);
  ~StagingPipeline();

  StagingPipeline(const StagingPipeline&) = delete;
  StagingPipeline& operator=(const StagingPipeline&) = delete;

  /// Enqueue one time step of `var`. Blocks while queue_capacity steps
  /// wait behind the one being written. Fails immediately if a prior
  /// staging step already failed, and a blocked producer gets that first
  /// error back as soon as the failed write returns its slot.
  Status submit(const std::string& var, std::uint64_t step, Grid grid)
      MLOC_EXCLUDES(mutex_);

  /// Wait for every submitted step to land, refuse further submits, and
  /// return the first staging error (Ok when everything landed).
  /// Idempotent.
  Status finish() MLOC_EXCLUDES(mutex_);

  [[nodiscard]] Stats stats() const MLOC_EXCLUDES(mutex_);

 private:
  void write_step(const std::string& name, const Grid& grid)
      MLOC_EXCLUDES(mutex_);

  MlocStore* store_;
  /// Steps in the backlog at most: queue_capacity waiting plus the one
  /// being written. submit() takes one of these slots and the write
  /// returns it when done, so finish() waits for the backlog by taking
  /// them all.
  const std::ptrdiff_t backlog_;
  std::counting_semaphore<> slots_;

  mutable sync::Mutex mutex_;
  /// Step names already staged. The store itself replaces on re-write
  /// (re-ingest), but a simulation emitting the same time step twice is a
  /// producer bug — the pipeline rejects it rather than silently
  /// overwriting the earlier step.
  std::set<std::string> staged_names_ MLOC_GUARDED_BY(mutex_);
  bool finished_ MLOC_GUARDED_BY(mutex_) = false;
  Status first_error_ MLOC_GUARDED_BY(mutex_);
  Stats stats_ MLOC_GUARDED_BY(mutex_);
  /// Runs the writes, one at a time in submission order. Declared last so
  /// it is destroyed first, finishing any queued write while the state
  /// above is still alive.
  parallel::ThreadPool writer_{1};
};

/// Query a time range [first_step, last_step] of a staged variable: runs
/// `q` against every step's variable and returns per-step results.
Result<std::vector<QueryResult>> query_time_range(
    const MlocStore& store, const std::string& var, std::uint64_t first_step,
    std::uint64_t last_step, const Query& q, int num_ranks = 1);

}  // namespace mloc::staging
