#include "parallel/runtime.hpp"

#include <exception>
#include <memory>

#include "util/assert.hpp"

namespace mloc::parallel {

Status run_query_ranks(const pfs::PfsConfig& cfg, int num_ranks,
                       const std::function<Status(RankContext&)>& body,
                       QueryResult* result) {
  MLOC_CHECK(num_ranks >= 1);
  pfs::IoLog io;
  ComponentTimes cpu;
  for (int r = 0; r < num_ranks; ++r) {
    RankContext ctx;
    ctx.rank = r;
    ctx.num_ranks = num_ranks;
    MLOC_RETURN_IF_ERROR(body(ctx));
    io.merge_from(ctx.io_log);
    cpu.max_with(ctx.times);
  }
  result->exec.bytes_read = io.total_bytes();
  result->exec.modeled_seeks = pfs::coalesced_extent_count(io);
  result->times.io = pfs::model_makespan(cfg, io, num_ranks);
  result->times.decompress = cpu.decompress;
  result->times.reconstruct = cpu.reconstruct;
  return Status::ok();
}

std::vector<std::pair<std::size_t, std::size_t>> split_even(std::size_t n,
                                                            int parts) {
  MLOC_CHECK(parts >= 1);
  std::vector<std::pair<std::size_t, std::size_t>> out;
  out.reserve(parts);
  const std::size_t base = n / static_cast<std::size_t>(parts);
  const std::size_t extra = n % static_cast<std::size_t>(parts);
  std::size_t begin = 0;
  for (int p = 0; p < parts; ++p) {
    const std::size_t len = base + (static_cast<std::size_t>(p) < extra ? 1 : 0);
    out.emplace_back(begin, begin + len);
    begin += len;
  }
  return out;
}

ThreadPool::ThreadPool(int num_threads) {
  MLOC_CHECK(num_threads >= 0);
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    sync::MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  if (workers_.empty()) {
    task();
    return;
  }
  {
    sync::MutexLock lock(mutex_);
    MLOC_CHECK_MSG(!stopping_, "submit on stopping pool");
    queue_.push(std::move(task));
  }
  cv_task_.notify_one();
}

TaskHandle ThreadPool::submit_waitable(std::function<void()> task) {
  // The promise carries only the outcome: the task lives in the queue entry
  // and dies with it once run (a packaged_task would keep it, and its
  // captures, in the shared state until wait()). std::function requires
  // copyable targets, so the entry holds the promise through a shared_ptr.
  auto done = std::make_shared<std::promise<void>>();
  TaskHandle handle(done->get_future());
  submit([task = std::move(task), done] {
    try {
      task();
      done->set_value();
    } catch (...) {
      done->set_exception(std::current_exception());
    }
  });
  return handle;
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      sync::MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty()) cv_task_.wait(lock);
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

}  // namespace mloc::parallel
