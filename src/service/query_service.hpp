// Concurrent query service — the serving layer over one MlocStore.
//
// The paper's access protocol (§III-D) runs one-shot cold queries; a
// production deployment instead serves many concurrent clients whose
// exploratory queries revisit the same regions and precision prefixes.
// QueryService provides that layer:
//
//   * sessions — clients open a session, submit queries against it, and
//     read per-session aggregates; closing a session stops new submissions
//     while in-flight queries finish normally;
//   * admission control — at most `max_queue_depth` queries wait at once;
//     submissions beyond it are rejected immediately (ResourceExhausted)
//     so overload produces fast feedback instead of unbounded queues;
//   * bounded concurrency — execution happens on a parallel::ThreadPool of
//     `num_workers` threads (the max-in-flight limit);
//   * scheduling — FIFO: queries dispatch in submission order;
//   * deadlines/cancellation — a query whose deadline passes while queued
//     (or whose execution overruns it) resolves to DeadlineExceeded; a
//     queued query can be cancelled by id;
//   * a shared FragmentCache attached to the store as FragmentProvider, so
//     decompressed fragments are amortized across queries and clients;
//   * per-query ServiceStats (queue wait, measured exec time, cache and
//     engine counters) plus service-wide aggregates and per-session counts.
//
// Thread-safety: every public method may be called from any thread.
// MlocStore::execute is const and reads only immutable state, so worker
// threads run queries concurrently without a store lock; the cache is
// internally sharded and locked.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/store.hpp"
#include "parallel/runtime.hpp"
#include "service/fragment_cache.hpp"
#include "tune/trace.hpp"
#include "util/sync.hpp"

namespace mloc::service {

using SessionId = std::uint64_t;
using QueryId = std::uint64_t;

struct ServiceConfig {
  int num_workers = 4;               ///< max queries executing at once
  std::size_t max_queue_depth = 256; ///< admission limit on waiting queries
  FragmentCache::Config cache;       ///< budget 0 disables the cache
  /// Write-path options applied by QueryService::ingest (pipeline threads,
  /// write-behind flushing).
  ingest::WriteOptions ingest;
  /// Start with dispatch suspended; no query runs until resume(). Used by
  /// tests and maintenance windows to stage a queue deterministically.
  bool start_paused = false;
};

/// Multi-variable selection carried by a Request (paper §III-D-4): each
/// predicate runs as a region-only pass, the position bitmaps are combined,
/// and `fetch_var` (optional) is retrieved at the surviving positions.
struct MultivarSpec {
  std::vector<MlocStore::VarConstraint> preds;
  MlocStore::Combine combine = MlocStore::Combine::kAnd;
  std::string fetch_var;  ///< empty = positions only
};

/// One query submission.
struct Request {
  std::string var;
  Query query;
  /// When set, the request is a multi-variable selection: `multivar` is
  /// executed instead of (var, query.vc, query.sc); query.plod_level still
  /// selects the precision of fetched values.
  std::optional<MultivarSpec> multivar;
  double deadline_s = -1;  ///< seconds from submission; <= 0 = none
  int num_ranks = 0;       ///< emulated ranks; < 1 = one rank
};

/// Per-query serving metrics, returned alongside the result. The modeled
/// I/O clock and the measured CPU phases stay apart in
/// QueryResult::times.
struct ServiceStats {
  QueryId query_id = 0;
  SessionId session = 0;
  double queue_wait_s = 0.0;  ///< submission -> dispatch (wall clock)
  double exec_wall_s = 0.0;   ///< measured wall time inside the store
  CacheStats cache;           ///< copy of QueryResult::cache
  ExecStats exec;             ///< copy of QueryResult::exec
  /// Set by the wire server when the response payload travelled through a
  /// shared-memory ring slot instead of a TCP frame. Always false for
  /// in-process callers.
  bool via_shm = false;

  bool operator==(const ServiceStats&) const = default;
};

/// Everything a client gets back for one submission.
struct Response {
  Status status;       ///< ok, or why the query produced no result
  QueryResult result;  ///< valid only when status.is_ok()
  ServiceStats stats;
};

/// A submitted query: its id (usable with cancel()) and pending response.
struct Submission {
  QueryId id = 0;
  std::future<Response> response;
};

/// Service-wide counters (a consistent snapshot under one lock).
///
/// Invariant, visible in every snapshot:
///   submitted == completed + failed + expired + cancelled
///                + queued + executing
/// `submitted` counts only *admitted* queries; refusals (unknown/closed
/// session, queue full, shutdown) count in `rejected` alone. The `queued`
/// and `executing` gauges track work currently inside the service, so a
/// reader can tell a quiet service from one mid-dispatch. (Before the wire
/// server landed, `submitted` also counted queue-full refusals and there
/// were no gauges, so concurrent readers could never reconcile the
/// counters against each other.) Responses per transport are counted by
/// the front end that delivers them (net::ServerStats).
struct AggregateStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;   ///< resolved ok
  std::uint64_t failed = 0;      ///< store returned an error
  std::uint64_t rejected = 0;    ///< refused at admission (queue full/closed)
  std::uint64_t expired = 0;     ///< deadline passed
  std::uint64_t cancelled = 0;
  std::uint64_t queued = 0;      ///< gauge: admitted, not yet dispatched
  std::uint64_t executing = 0;   ///< gauge: dispatched, not yet resolved
  CacheStats cache;              ///< summed per-query cache stats
  ExecStats exec;                ///< summed per-query engine stats
  double total_queue_wait_s = 0.0;
  double total_exec_wall_s = 0.0;
  std::size_t peak_queue_depth = 0;
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_open = 0;
  std::uint64_t ingests = 0;          ///< successful QueryService::ingest calls
  std::uint64_t ingest_failures = 0;
  /// Cumulative write-path accounting (MlocStore::ingest_stats snapshot).
  ingest::IngestStats ingest;

  bool operator==(const AggregateStats&) const = default;
};

/// Per-session query counts. Mirrors the service-wide invariant:
/// submitted counts admitted queries only (and equals completed + failed +
/// in-flight), refusals land in `rejected`.
struct SessionStats {
  std::string label;
  bool open = false;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;    ///< any non-ok resolution after admission
  std::uint64_t rejected = 0;  ///< refused at admission (queue full/closed)

  bool operator==(const SessionStats&) const = default;
};

class QueryService {
 public:
  /// Takes ownership of the store; `cfg.cache.budget_bytes > 0` attaches a
  /// FragmentCache to it as the FragmentProvider.
  explicit QueryService(MlocStore store, ServiceConfig cfg = {});

  /// Fails queued-but-undispatched queries with FailedPrecondition, then
  /// drains in-flight queries to completion.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  Result<SessionId> open_session(std::string label = "")
      MLOC_EXCLUDES(mutex_);
  Status close_session(SessionId id) MLOC_EXCLUDES(mutex_);

  /// Submit a query through submit_async, with a callback that resolves
  /// the returned future. Always returns a Submission; admission
  /// rejections and execution errors surface through Response::status.
  Submission submit(SessionId session, Request req) MLOC_EXCLUDES(mutex_);

  /// Invoked exactly once per submit_async call with the final Response —
  /// from a worker thread on normal resolution, from the submitting thread
  /// on admission rejection, or from the destructor on shutdown. No service
  /// lock is held during the call; re-entering the service (e.g. cancel)
  /// from inside the callback is allowed.
  using ResponseCallback = std::function<void(Response)>;

  /// The one way a query is submitted; submit() and run() wrap it.
  /// Event-driven callers (the wire server) use it directly: no future,
  /// no blocked thread per in-flight query. Returns the QueryId usable
  /// with cancel(), or 0 when the request was rejected at admission (the
  /// callback still fires with the rejection Response).
  QueryId submit_async(SessionId session, Request req, ResponseCallback cb)
      MLOC_EXCLUDES(mutex_);

  /// Convenience: submit and block for the response.
  Response run(SessionId session, Request req);

  /// Cancel a queued query. Fails with NotFound once it has been
  /// dispatched (running queries are not interrupted).
  Status cancel(QueryId id) MLOC_EXCLUDES(mutex_);

  /// Write (or re-write) a variable through the parallel ingestion
  /// pipeline with the configured ServiceConfig::ingest options, while
  /// queries keep executing. Runs on the caller's thread — the query
  /// worker pool is never blocked by a write — and the store serializes
  /// concurrent ingests internally. On a re-ingest the fragment cache
  /// entries of the old generation are dropped (epoch bump + erase) so
  /// later queries see only fresh data.
  Status ingest(const std::string& var, const Grid& grid)
      MLOC_EXCLUDES(mutex_);

  /// Suspend/resume dispatch. pause() lets already-dispatched queries
  /// finish but keeps new arrivals queued; admission control still applies.
  void pause() MLOC_EXCLUDES(mutex_);
  void resume() MLOC_EXCLUDES(mutex_);

  [[nodiscard]] AggregateStats aggregate() const MLOC_EXCLUDES(mutex_);
  [[nodiscard]] Result<SessionStats> session_stats(SessionId id) const
      MLOC_EXCLUDES(mutex_);
  [[nodiscard]] FragmentCache::Stats cache_stats() const {
    return cache_.stats();
  }
  [[nodiscard]] const MlocStore& store() const noexcept { return store_; }
  [[nodiscard]] const ServiceConfig& config() const noexcept { return cfg_; }

  /// Attach a workload-trace sink (nullptr detaches). Every successfully
  /// executed single-variable query is recorded with its effective rank
  /// count — the exact input mloc_tune replays. The recorder is not owned
  /// and must outlive the service (or be detached first); multi-variable
  /// selections are not recorded (the tuner works per variable).
  void set_trace_recorder(tune::TraceRecorder* recorder) noexcept {
    trace_recorder_.store(recorder, std::memory_order_release);
  }

 private:
  struct PendingQuery {
    QueryId id = 0;
    SessionId session = 0;
    Request req;
    ResponseCallback callback;
    Stopwatch queued;  ///< started at submission; read at dispatch
    bool cancelled = false;
  };
  /// Outcome of the locked admission phase.
  struct AdmitDecision {
    Status reject;         ///< ok = admitted
    bool dispatch = false; ///< kick a pool worker (admitted while running)
    QueryId id = 0;        ///< assigned id (0 on rejection)
  };

  /// Locked admission phase: validate the session, apply queue-depth
  /// control, and either enqueue `p` (consumed) or leave it for the caller
  /// to resolve with the rejection. Callers hold the lock; rejection
  /// resolution and the pool kick happen unlocked.
  AdmitDecision admit_locked(SessionId session, Request req,
                             std::unique_ptr<PendingQuery>& p)
      MLOC_REQUIRES(mutex_);
  /// Worker-thread body: pop the scheduled pending query and execute it.
  void dispatch_one() MLOC_EXCLUDES(mutex_);
  /// Locked scheduling phase of dispatch_one: take the oldest query, move
  /// the queued->executing gauges.
  std::unique_ptr<PendingQuery> pop_scheduled_locked() MLOC_REQUIRES(mutex_);
  /// Resolve a query and fold its stats into the aggregates.
  void finish(std::unique_ptr<PendingQuery> p, Response resp)
      MLOC_EXCLUDES(mutex_);
  /// Locked stats phase of finish(): fold one resolution into the service
  /// and session aggregates. The response delivery happens unlocked.
  void fold_stats_locked(const PendingQuery& p, const Response& resp)
      MLOC_REQUIRES(mutex_);

  ServiceConfig cfg_;
  MlocStore store_;
  FragmentCache cache_;
  /// Optional workload sink, swapped atomically (readers are worker
  /// threads mid-dispatch; no lock needed for a pointer load).
  std::atomic<tune::TraceRecorder*> trace_recorder_{nullptr};

  mutable sync::Mutex mutex_;
  std::deque<std::unique_ptr<PendingQuery>> pending_ MLOC_GUARDED_BY(mutex_);
  /// queued while paused (no pool task yet)
  std::size_t undispatched_ MLOC_GUARDED_BY(mutex_) = 0;
  bool paused_ MLOC_GUARDED_BY(mutex_) = false;
  bool shutdown_ MLOC_GUARDED_BY(mutex_) = false;
  QueryId next_query_ MLOC_GUARDED_BY(mutex_) = 1;
  SessionId next_session_ MLOC_GUARDED_BY(mutex_) = 1;
  std::map<SessionId, SessionStats> sessions_ MLOC_GUARDED_BY(mutex_);
  AggregateStats agg_ MLOC_GUARDED_BY(mutex_);

  /// Declared last: its destructor drains worker tasks that touch the
  /// members above, so it must be destroyed first.
  std::unique_ptr<parallel::ThreadPool> pool_;
};

}  // namespace mloc::service
