#include "staging/staging.hpp"

#include "util/timer.hpp"

namespace mloc::staging {

std::string step_variable(const std::string& var, std::uint64_t step) {
  return var + "@" + std::to_string(step);
}

StagingPipeline::StagingPipeline(MlocStore* store, Options opts)
    : store_(store),
      backlog_(static_cast<std::ptrdiff_t>(opts.queue_capacity) + 1),
      slots_(backlog_) {
  MLOC_CHECK(store != nullptr);
  MLOC_CHECK(opts.queue_capacity >= 1);
}

StagingPipeline::~StagingPipeline() { (void)finish(); }

Status StagingPipeline::submit(const std::string& var, std::uint64_t step,
                               Grid grid) {
  std::string name = step_variable(var, step);
  {
    sync::MutexLock lock(mutex_);
    if (finished_) return failed_precondition("staging: pipeline finished");
    if (!first_error_.is_ok()) return first_error_;
  }
  Stopwatch wait;
  slots_.acquire();
  sync::MutexLock lock(mutex_);
  if (!first_error_.is_ok() || finished_) {
    // Not enqueued: hand the slot on, so a producer blocked behind this one
    // wakes to the same answer.
    slots_.release();
    if (!first_error_.is_ok()) return first_error_;
    return failed_precondition("staging: pipeline finished");
  }
  stats_.producer_wait_seconds += wait.seconds();
  stats_.bytes_in += grid.size() * sizeof(double);
  ++stats_.steps_submitted;
  // Under the lock, so the worker's order is the order submits succeed in.
  writer_.submit([this, name = std::move(name), grid = std::move(grid)] {
    write_step(name, grid);
  });
  return Status::ok();
}

void StagingPipeline::write_step(const std::string& name, const Grid& grid) {
  Stopwatch sw;
  bool duplicate = false;
  {
    sync::MutexLock lock(mutex_);
    duplicate = !staged_names_.insert(name).second;
  }
  const Status status =
      duplicate ? invalid_argument("staging: duplicate step " + name)
                : store_->write_variable(name, grid);
  const double elapsed = sw.seconds();
  {
    sync::MutexLock lock(mutex_);
    stats_.staging_seconds += elapsed;
    if (status.is_ok()) {
      ++stats_.steps_staged;
    } else if (first_error_.is_ok()) {
      first_error_ = status;
    }
  }
  slots_.release();  // after the error is recorded: a woken producer sees it
}

Status StagingPipeline::finish() {
  {
    sync::MutexLock lock(mutex_);
    if (finished_) return first_error_;
    finished_ = true;
  }
  // Holding every slot means no write is queued or running. Then give them
  // back: a producer still blocked in submit wakes to "finished".
  for (std::ptrdiff_t i = 0; i < backlog_; ++i) slots_.acquire();
  slots_.release(backlog_);
  sync::MutexLock lock(mutex_);
  return first_error_;
}

StagingPipeline::Stats StagingPipeline::stats() const {
  sync::MutexLock lock(mutex_);
  return stats_;
}

Result<std::vector<QueryResult>> query_time_range(
    const MlocStore& store, const std::string& var, std::uint64_t first_step,
    std::uint64_t last_step, const Query& q, int num_ranks) {
  if (first_step > last_step) {
    return invalid_argument("staging: inverted time range");
  }
  std::vector<QueryResult> out;
  out.reserve(last_step - first_step + 1);
  for (std::uint64_t step = first_step; step <= last_step; ++step) {
    MLOC_ASSIGN_OR_RETURN(
        QueryResult res,
        store.execute(step_variable(var, step), q, num_ranks));
    out.push_back(std::move(res));
  }
  return out;
}

}  // namespace mloc::staging
