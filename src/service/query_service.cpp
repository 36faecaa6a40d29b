#include "service/query_service.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace mloc::service {

QueryService::QueryService(MlocStore store, ServiceConfig cfg)
    : cfg_(cfg),
      store_(std::move(store)),
      cache_(cfg.cache),
      paused_(cfg.start_paused) {
  MLOC_CHECK(cfg_.num_workers >= 1);
  MLOC_CHECK(cfg_.max_queue_depth >= 1);
  if (cfg_.cache.budget_bytes > 0) {
    store_.set_fragment_provider(&cache_);
  }
  pool_ = std::make_unique<parallel::ThreadPool>(cfg_.num_workers);
}

QueryService::~QueryService() {
  std::deque<std::unique_ptr<PendingQuery>> orphans;
  {
    sync::MutexLock lock(mutex_);
    shutdown_ = true;
    orphans.swap(pending_);
    agg_.queued -= orphans.size();
  }
  for (auto& p : orphans) {
    Response resp;
    resp.status = failed_precondition("service shutting down");
    resp.stats.query_id = p->id;
    resp.stats.session = p->session;
    resp.stats.queue_wait_s = p->queued.seconds();
    p->callback(std::move(resp));
  }
  // pool_ destruction drains in-flight dispatch tasks; they find an empty
  // queue and return.
}

Result<SessionId> QueryService::open_session(std::string label) {
  sync::MutexLock lock(mutex_);
  if (shutdown_) return failed_precondition("service shutting down");
  const SessionId id = next_session_++;
  SessionStats& s = sessions_[id];
  s.label = std::move(label);
  s.open = true;
  ++agg_.sessions_opened;
  ++agg_.sessions_open;
  return id;
}

Status QueryService::close_session(SessionId id) {
  sync::MutexLock lock(mutex_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return not_found("no such session");
  if (!it->second.open) {
    return failed_precondition("session already closed");
  }
  it->second.open = false;
  --agg_.sessions_open;
  return Status::ok();
}

QueryService::AdmitDecision QueryService::admit_locked(
    SessionId session, Request req, std::unique_ptr<PendingQuery>& p) {
  AdmitDecision out;
  auto it = sessions_.find(session);
  if (shutdown_) {
    out.reject = failed_precondition("service shutting down");
  } else if (it == sessions_.end()) {
    out.reject = not_found("no such session");
  } else if (!it->second.open) {
    out.reject = failed_precondition("session closed");
  } else if (pending_.size() >= cfg_.max_queue_depth) {
    out.reject = resource_exhausted("admission queue full");
  }
  if (out.reject.is_ok()) {
    ++agg_.submitted;
    ++agg_.queued;
    ++it->second.submitted;
    p->id = out.id = next_query_++;
    p->req = std::move(req);
    pending_.push_back(std::move(p));
    agg_.peak_queue_depth = std::max(agg_.peak_queue_depth, pending_.size());
    if (paused_) {
      ++undispatched_;
    } else {
      out.dispatch = true;
    }
  } else {
    ++agg_.rejected;
    if (it != sessions_.end()) ++it->second.rejected;
  }
  return out;
}

QueryId QueryService::submit_async(SessionId session, Request req,
                                   ResponseCallback cb) {
  auto p = std::make_unique<PendingQuery>();
  p->session = session;
  p->callback = std::move(cb);

  AdmitDecision decision;
  {
    sync::MutexLock lock(mutex_);
    decision = admit_locked(session, std::move(req), p);
  }
  if (!decision.reject.is_ok()) {
    Response resp;
    resp.status = std::move(decision.reject);
    resp.stats.session = session;
    p->callback(std::move(resp));
    return 0;
  }
  if (decision.dispatch) {
    pool_->submit([this] { dispatch_one(); });
  }
  return decision.id;
}

Submission QueryService::submit(SessionId session, Request req) {
  // std::function needs a copyable callable, so the promise is shared.
  auto promise = std::make_shared<std::promise<Response>>();
  Submission out;
  out.response = promise->get_future();
  out.id = submit_async(session, std::move(req), [promise](Response resp) {
    promise->set_value(std::move(resp));
  });
  return out;
}

Response QueryService::run(SessionId session, Request req) {
  return submit(session, std::move(req)).response.get();
}

Status QueryService::cancel(QueryId id) {
  sync::MutexLock lock(mutex_);
  for (auto& p : pending_) {
    if (p->id == id) {
      if (p->cancelled) return failed_precondition("already cancelled");
      p->cancelled = true;
      return Status::ok();
    }
  }
  return not_found("query not queued (already dispatched or unknown)");
}

Status QueryService::ingest(const std::string& var, const Grid& grid) {
  {
    sync::MutexLock lock(mutex_);
    if (shutdown_) return failed_precondition("service shutting down");
  }
  // No service lock while writing: the store serializes ingests itself and
  // queries proceed against the published state throughout.
  Status st = store_.write_variable(var, grid, cfg_.ingest);
  sync::MutexLock lock(mutex_);
  st.is_ok() ? ++agg_.ingests : ++agg_.ingest_failures;
  agg_.ingest = store_.ingest_stats();
  return st;
}

void QueryService::pause() {
  sync::MutexLock lock(mutex_);
  paused_ = true;
}

void QueryService::resume() {
  std::size_t n = 0;
  {
    sync::MutexLock lock(mutex_);
    if (!paused_) return;
    paused_ = false;
    n = undispatched_;
    undispatched_ = 0;
  }
  for (std::size_t i = 0; i < n; ++i) {
    pool_->submit([this] { dispatch_one(); });
  }
}

std::unique_ptr<QueryService::PendingQuery>
QueryService::pop_scheduled_locked() {
  if (pending_.empty()) return nullptr;  // raced with shutdown/another worker
  std::unique_ptr<PendingQuery> p = std::move(pending_.front());
  pending_.pop_front();
  --agg_.queued;
  ++agg_.executing;
  return p;
}

void QueryService::dispatch_one() {
  std::unique_ptr<PendingQuery> p;
  {
    sync::MutexLock lock(mutex_);
    p = pop_scheduled_locked();
  }
  if (p == nullptr) return;
  const bool was_cancelled = p->cancelled;

  Response resp;
  resp.stats.query_id = p->id;
  resp.stats.session = p->session;
  resp.stats.queue_wait_s = p->queued.seconds();

  if (was_cancelled) {
    resp.status = cancelled("cancelled while queued");
    finish(std::move(p), std::move(resp));
    return;
  }
  const double deadline_s = p->req.deadline_s;  // <= 0: none
  if (deadline_s > 0 && resp.stats.queue_wait_s > deadline_s) {
    resp.status = deadline_exceeded("deadline passed while queued");
    finish(std::move(p), std::move(resp));
    return;
  }

  const int ranks = std::max(1, p->req.num_ranks);
  Stopwatch sw;
  auto result =
      p->req.multivar.has_value()
          ? store_.multivar_select(p->req.multivar->preds,
                                   p->req.multivar->combine,
                                   p->req.multivar->fetch_var,
                                   p->req.query.plod_level, ranks)
          : store_.execute(p->req.var, p->req.query, ranks);
  resp.stats.exec_wall_s = sw.seconds();
  if (!result.is_ok()) {
    resp.status = result.status();
  } else {
    if (auto* rec = trace_recorder_.load(std::memory_order_acquire);
        rec != nullptr) {
      if (!p->req.multivar.has_value()) {
        rec->record({p->req.var, p->req.query, ranks});
      } else {
        // A multivariable request is recorded as one region-only query
        // per predicate. Its fetch pass is not traced: the chunks it
        // reads depend on the selection's bitmap, unknowable from the
        // request alone (and under kAnd the fetch variable's first
        // predicate runs as that pass's VC, not as a region-only query).
        // Recording the decomposed form keeps the trace replayable
        // through single-variable planner estimation.
        for (const auto& pred : p->req.multivar->preds) {
          Query region_q;
          region_q.vc = pred.vc;
          region_q.values_needed = false;
          rec->record({pred.var, region_q, ranks});
        }
      }
    }
    resp.result = std::move(result).value();
    resp.stats.cache = resp.result.cache;
    resp.stats.exec = resp.result.exec;
    if (deadline_s > 0 && p->queued.seconds() > deadline_s) {
      resp.status = deadline_exceeded("execution overran the deadline");
      resp.result = QueryResult{};
    }
  }
  finish(std::move(p), std::move(resp));
}

void QueryService::fold_stats_locked(const PendingQuery& p,
                                     const Response& resp) {
  --agg_.executing;
  agg_.total_queue_wait_s += resp.stats.queue_wait_s;
  agg_.total_exec_wall_s += resp.stats.exec_wall_s;
  agg_.cache += resp.stats.cache;
  agg_.exec += resp.stats.exec;
  switch (resp.status.code()) {
    case ErrorCode::kOk: ++agg_.completed; break;
    case ErrorCode::kDeadlineExceeded: ++agg_.expired; break;
    case ErrorCode::kCancelled: ++agg_.cancelled; break;
    default: ++agg_.failed; break;
  }
  auto it = sessions_.find(p.session);
  if (it != sessions_.end()) {
    resp.status.is_ok() ? ++it->second.completed : ++it->second.failed;
  }
}

void QueryService::finish(std::unique_ptr<PendingQuery> p, Response resp) {
  {
    sync::MutexLock lock(mutex_);
    fold_stats_locked(*p, resp);
  }
  p->callback(std::move(resp));
}

AggregateStats QueryService::aggregate() const {
  sync::MutexLock lock(mutex_);
  return agg_;
}

Result<SessionStats> QueryService::session_stats(SessionId id) const {
  sync::MutexLock lock(mutex_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return not_found("no such session");
  return it->second;
}

}  // namespace mloc::service
