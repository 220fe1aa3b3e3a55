#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.h"
#include "serve/plan_cache.h"
#include "serve/request.h"
#include "util/socket.h"
#include "util/thread_pool.h"

namespace mlck::serve {

/// The serve.* metric set (docs/OBSERVABILITY.md). Pointers follow the
/// codebase-wide contract: non-owning, and never null inside a running
/// Server, which always resolves them against a registry (the attached
/// one or its own), so the `stats` op always has values to report.
struct ServeMetrics {
  obs::Counter* requests = nullptr;        ///< frames answered (ok or error)
  obs::Counter* errors = nullptr;          ///< error responses sent
  obs::Counter* rejected_queue_full = nullptr;
  obs::Counter* rejected_draining = nullptr;
  obs::Counter* coalesced = nullptr;       ///< waiters joined to a running job
  obs::Counter* jobs_executed = nullptr;   ///< unique jobs run by the executor
  obs::Counter* connections = nullptr;     ///< connections ever accepted
  obs::Gauge* connections_open = nullptr;
  obs::Gauge* queue_depth = nullptr;       ///< live queued-job count
  obs::Gauge* queue_depth_high_water = nullptr;
  obs::Histogram* request_latency_ns = nullptr;  ///< admission to response
  obs::Histogram* job_latency_ns = nullptr;      ///< executor compute time
  PlanCacheMetrics cache;
};

/// Resolves the standard serve.* names against @p registry.
ServeMetrics serve_metrics(obs::MetricsRegistry& registry);

struct ServerOptions {
  std::string socket_path;
  /// Width of the evaluation ThreadPool (the optimizer/simulator's inner
  /// parallelism). 0 selects the hardware concurrency.
  std::size_t threads = 0;
  /// Bound on *queued* unique jobs: a compute request arriving when this
  /// many jobs wait (cache misses, no coalescing partner) is rejected
  /// with a "queue_full" error instead of admitted.
  std::size_t queue_limit = 64;
  std::size_t cache_capacity = 128;
  /// The registry the server wires serve.* / pool.* (and the per-job
  /// engine.*, optimizer.*, sim.* scenario names) into; it must outlive
  /// the server. Null gives the server a private registry of its own,
  /// wired the same way, which only the `stats` op reads.
  obs::MetricsRegistry* registry = nullptr;
};

/// mlckd: the multilevel-checkpoint advisory daemon. Accepts connections
/// on a Unix-domain socket, speaks the length-prefixed JSON protocol of
/// serve/protocol.h, and answers the request grammar of serve/request.h.
///
/// Execution model (the shape behind the bit-identity guarantee):
///
///   connection threads (one per client)
///     -> admission: plan-cache lookup, then coalescing by canonical key,
///        then a bounded FIFO job queue
///   one executor thread
///     -> runs each unique job to completion via serve::evaluate on the
///        shared ThreadPool, fulfills every coalesced waiter, and caches
///        the serialized result
///
/// Exactly one thread drives the ThreadPool at a time: parallel_for's
/// submit + wait_idle protocol is whole-pool (a concurrent second driver
/// would wait on the first driver's tasks and steal its exceptions), so
/// request-level concurrency lives in the queue, not on the pool. The
/// pool still runs the optimizer's inner sweep at full width, which is
/// where the actual work is.
///
/// Determinism: a compute result depends only on the request's canonical
/// key — evaluate() is thread-count independent — and cached responses
/// replay the first computation's bytes, so any two identical requests
/// receive byte-identical result payloads, cold or warm, coalesced or
/// not, daemon or direct call.
class Server {
 public:
  /// Binds the socket and starts the accept and executor threads; throws
  /// std::runtime_error when the socket path is unusable.
  explicit Server(const ServerOptions& options);

  /// Calls stop().
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  const std::string& socket_path() const noexcept {
    return listener_.path();
  }

  /// Becomes readable when a client's `shutdown` op asks the daemon to
  /// exit. The owning loop (cmd_serve) polls this next to its signal
  /// pipe and then calls stop(); tests use it to synchronize shutdown.
  int stop_event_fd() const noexcept { return stop_event_.read_fd(); }

  /// Non-blocking graceful-shutdown trigger, safe from any thread
  /// (including connection threads handling a `shutdown` op): new
  /// compute admissions fail with "shutting_down"; queued and in-flight
  /// jobs keep running so no admitted waiter is dropped.
  void request_stop() noexcept;

  /// Full graceful shutdown, idempotent: request_stop(), drain the job
  /// queue (every admitted waiter gets its response), stop accepting,
  /// unblock and join every connection thread, remove the socket file.
  /// Must not be called from a connection thread (it joins them).
  void stop();

  bool draining() const noexcept {
    return draining_.load(std::memory_order_relaxed);
  }

  /// Point-in-time server counters (the `stats` op's result document).
  util::Json stats_json() const;

 private:
  /// One admitted compute job awaiting its result. Coalesced duplicates
  /// share the instance; the executor fulfills it exactly once.
  struct Pending {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    bool ok = false;
    util::Json result;         ///< valid when ok
    std::string error_code;    ///< valid when !ok
    std::string error_message;
  };

  struct Job {
    std::string key;
    Request request;
    std::shared_ptr<Pending> pending;
  };

  void accept_loop();
  void executor_loop();
  void connection_loop(util::Fd fd, std::size_t index);

  /// Dispatches one parsed frame; returns the serialized response. A
  /// `shutdown` op sets @p stop_after_write instead of poking the stop
  /// event directly: the caller pokes only after the ack frame is on the
  /// wire, so the owning loop's stop() can never cut the connection
  /// before the shutdown client hears back.
  std::string handle_payload(const std::string& payload,
                             bool& stop_after_write);
  std::string handle_compute(Request request);

  static void fulfill(Pending& pending, bool ok, util::Json result,
                      std::string code, std::string message);

  ServerOptions options_;
  /// Backs registry_ when options_.registry is null.
  std::unique_ptr<obs::MetricsRegistry> own_registry_;
  obs::MetricsRegistry& registry_;
  ServeMetrics metrics_;
  util::UnixListener listener_;
  util::ThreadPool pool_;
  PlanCache cache_;
  util::Pipe stop_event_;

  std::atomic<bool> draining_{false};
  std::mutex stop_mutex_;  ///< serializes stop() callers
  bool stopped_ = false;   ///< guarded by stop_mutex_

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;
  /// Canonical key -> the Pending of the queued or running job for it.
  std::map<std::string, std::shared_ptr<Pending>> inflight_;
  bool executor_exit_ = false;  ///< guarded by queue_mutex_

  std::mutex conn_mutex_;
  std::map<std::size_t, int> open_fds_;  ///< connection index -> raw fd
  /// Connection index -> its thread, until the thread is reaped.
  std::map<std::size_t, std::thread> conn_threads_;
  /// Indices whose thread has left connection_loop; the next accept (or
  /// stop()) joins them.
  std::vector<std::size_t> finished_conns_;
  std::size_t next_conn_ = 0;

  std::thread accept_thread_;
  std::thread executor_thread_;
};

}  // namespace mlck::serve
