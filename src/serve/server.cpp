#include "serve/server.h"

#include <exception>
#include <stdexcept>
#include <utility>

#include "engine/scenario.h"
#include "serve/protocol.h"

namespace mlck::serve {

namespace {

using util::Json;

/// Best-effort id extraction for error responses on requests that fail
/// Request::parse — the envelope echoes the id whenever the document got
/// far enough to carry one.
Json id_of(const Json& doc) {
  if (doc.is_object()) {
    if (const Json* id = doc.find("id")) return *id;
  }
  return Json();
}

}  // namespace

ServeMetrics serve_metrics(obs::MetricsRegistry& registry) {
  ServeMetrics m;
  m.requests = &registry.counter("serve.requests");
  m.errors = &registry.counter("serve.errors");
  m.rejected_queue_full = &registry.counter("serve.rejected_queue_full");
  m.rejected_draining = &registry.counter("serve.rejected_draining");
  m.coalesced = &registry.counter("serve.coalesced");
  m.jobs_executed = &registry.counter("serve.jobs_executed");
  m.connections = &registry.counter("serve.connections");
  m.connections_open = &registry.gauge("serve.connections_open");
  m.queue_depth = &registry.gauge("serve.queue_depth");
  m.queue_depth_high_water =
      &registry.gauge("serve.queue_depth_high_water");
  m.request_latency_ns = &registry.histogram("serve.request_latency_ns");
  m.job_latency_ns = &registry.histogram("serve.job_latency_ns");
  m.cache.hits = &registry.counter("serve.plan_cache.hits");
  m.cache.misses = &registry.counter("serve.plan_cache.misses");
  m.cache.evictions = &registry.counter("serve.plan_cache.evictions");
  m.cache.size = &registry.gauge("serve.plan_cache.size");
  return m;
}

Server::Server(const ServerOptions& options)
    : options_(options),
      own_registry_(options.registry == nullptr
                        ? std::make_unique<obs::MetricsRegistry>()
                        : nullptr),
      registry_(options.registry == nullptr ? *own_registry_
                                            : *options.registry),
      metrics_(serve_metrics(registry_)),
      listener_(util::UnixListener::bind(options.socket_path)),
      pool_(options.threads),
      cache_(options.cache_capacity) {
  pool_.attach_metrics(engine::pool_metrics(registry_));
  cache_.attach_metrics(metrics_.cache);
  executor_thread_ = std::thread([this] { executor_loop(); });
  accept_thread_ = std::thread([this] { accept_loop(); });
}

Server::~Server() { stop(); }

void Server::request_stop() noexcept {
  draining_.store(true, std::memory_order_relaxed);
}

void Server::stop() {
  std::lock_guard<std::mutex> stop_lock(stop_mutex_);
  if (stopped_) return;
  stopped_ = true;

  request_stop();
  {
    // The executor drains the queue before exiting, so every admitted
    // waiter is fulfilled — shutdown never drops a response.
    std::lock_guard<std::mutex> lock(queue_mutex_);
    executor_exit_ = true;
  }
  queue_cv_.notify_all();
  if (executor_thread_.joinable()) executor_thread_.join();

  listener_.shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();

  {
    // shutdown(2), not close: the connection threads own their fds, and
    // a shutdown wakes their blocking reads without a lifetime race.
    std::lock_guard<std::mutex> lock(conn_mutex_);
    for (const auto& [index, fd] : open_fds_) {
      (void)index;
      util::Fd borrowed(fd);
      borrowed.shutdown_both();
      borrowed.release();
    }
  }
  for (auto& [index, thread] : conn_threads_) {
    (void)index;
    thread.join();
  }
  conn_threads_.clear();
  finished_conns_.clear();
}

void Server::accept_loop() {
  while (true) {
    util::Fd fd = listener_.accept();
    if (!fd.valid()) return;  // listener shut down
    metrics_.connections->add();
    std::vector<std::thread> finished;
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      // Reap the threads that have left connection_loop, so a long-lived
      // daemon holds one thread (and stack) per open connection only.
      for (const std::size_t done : finished_conns_) {
        finished.push_back(std::move(conn_threads_.extract(done).mapped()));
      }
      finished_conns_.clear();
      const std::size_t index = next_conn_++;
      open_fds_[index] = fd.get();
      metrics_.connections_open->set(static_cast<double>(open_fds_.size()));
      conn_threads_.emplace(
          index, std::thread(
                     [this, index](util::Fd conn) {
                       connection_loop(std::move(conn), index);
                     },
                     std::move(fd)));
    }
    for (std::thread& thread : finished) thread.join();
  }
}

void Server::connection_loop(util::Fd fd, std::size_t index) {
  std::string payload;
  while (true) {
    const FrameStatus status = read_frame(fd.get(), payload);
    if (status == FrameStatus::kClosed || status == FrameStatus::kTruncated ||
        status == FrameStatus::kError) {
      break;  // peer gone or stream broken: close cleanly, nothing to say
    }
    std::string response;
    if (status == FrameStatus::kEmpty) {
      // Zero-length frame: invalid, but the stream is still in sync.
      metrics_.requests->add();
      metrics_.errors->add();
      response = error_response(Json(), "bad_frame",
                                "zero-length frame (a request is one "
                                "non-empty JSON object per frame)");
      if (!write_frame(fd.get(), response)) break;
      continue;
    }
    if (status == FrameStatus::kOversized) {
      // The declared length exceeds the frame bound; the stream position
      // is unknowable from here, so answer and drop the connection.
      metrics_.requests->add();
      metrics_.errors->add();
      response =
          error_response(Json(), "bad_frame",
                         "frame exceeds the " +
                             std::to_string(kMaxFrameBytes) +
                             "-byte bound; closing the connection");
      (void)write_frame(fd.get(), response);
      break;
    }
    bool stop_after_write = false;
    try {
      obs::ScopedTimer timer(metrics_.request_latency_ns);
      response = handle_payload(payload, stop_after_write);
    } catch (const std::exception& e) {
      // Nothing may escape a connection thread: an uncaught exception
      // here would terminate the whole daemon.
      metrics_.errors->add();
      response = error_response(Json(), "internal", e.what());
    }
    metrics_.requests->add();
    const bool wrote = write_frame(fd.get(), response);
    if (stop_after_write) {
      // Poke only once the ack frame is on the wire (or the peer is
      // already gone): the owning loop reacts by calling stop(), which
      // shuts connection fds down — doing that before the write would
      // race the shutdown client out of its own response.
      stop_event_.poke();
    }
    if (!wrote) break;
  }
  {
    // Unregister before the descriptor dies so stop() never shuts down a
    // recycled fd number, and hand the thread to the next accept's reap.
    std::lock_guard<std::mutex> lock(conn_mutex_);
    open_fds_.erase(index);
    finished_conns_.push_back(index);
    metrics_.connections_open->set(static_cast<double>(open_fds_.size()));
  }
}

std::string Server::handle_payload(const std::string& payload,
                                   bool& stop_after_write) {
  Json doc;
  try {
    doc = Json::parse(payload);
  } catch (const util::JsonError& e) {
    metrics_.errors->add();
    return error_response(Json(), "bad_json", e.what());
  }
  Request request;
  try {
    request = Request::parse(doc);
  } catch (const std::exception& e) {
    metrics_.errors->add();
    return error_response(id_of(doc), "bad_request", e.what());
  }
  switch (request.op) {
    case Op::kPing: {
      Json::Object result;
      result["pong"] = Json(true);
      return ok_response(request.id, Json(std::move(result)));
    }
    case Op::kStats:
      return ok_response(request.id, stats_json());
    case Op::kShutdown: {
      request_stop();  // reject new admissions immediately
      stop_after_write = true;
      Json::Object result;
      result["stopping"] = Json(true);
      return ok_response(request.id, Json(std::move(result)));
    }
    case Op::kOptimize:
    case Op::kPredict:
    case Op::kScenario:
      return handle_compute(std::move(request));
  }
  metrics_.errors->add();
  return error_response(id_of(doc), "internal", "unhandled op");
}

std::string Server::handle_compute(Request request) {
  const std::string key = request.canonical_key();
  const Json id = request.id;  // for the envelope; results are id-independent

  // Cache hits bypass admission entirely: a warm request succeeds even
  // while draining, and replays the first computation's bytes.
  if (const auto cached = cache_.get(key)) {
    return ok_response(id, Json::parse(*cached));
  }

  std::shared_ptr<Pending> pending;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (const auto it = inflight_.find(key); it != inflight_.end()) {
      // A queued or running job already computes this key: join it.
      pending = it->second;
      metrics_.coalesced->add();
    } else if (const auto cached = cache_.get(key)) {
      // Second chance under the queue lock: the executor caches a result
      // *before* retiring its key, so a request that missed the first
      // lookup while the job was finishing finds the answer here instead
      // of enqueueing a duplicate run.
      return ok_response(id, Json::parse(*cached));
    } else {
      if (draining_.load(std::memory_order_relaxed)) {
        metrics_.rejected_draining->add();
        metrics_.errors->add();
        return error_response(request.id, "shutting_down",
                              "the daemon is draining and admits no new "
                              "work");
      }
      if (queue_.size() >= options_.queue_limit) {
        metrics_.rejected_queue_full->add();
        metrics_.errors->add();
        return error_response(
            request.id, "queue_full",
            "admission queue is at its " +
                std::to_string(options_.queue_limit) + "-job bound");
      }
      pending = std::make_shared<Pending>();
      inflight_[key] = pending;
      queue_.push_back(Job{key, std::move(request), pending});
      metrics_.queue_depth->set(static_cast<double>(queue_.size()));
      metrics_.queue_depth_high_water->set_max(
          static_cast<double>(queue_.size()));
      queue_cv_.notify_one();
    }
  }

  std::unique_lock<std::mutex> wait_lock(pending->mutex);
  pending->cv.wait(wait_lock, [&pending] { return pending->done; });
  if (pending->ok) return ok_response(id, pending->result);
  metrics_.errors->add();
  return error_response(id, pending->error_code, pending->error_message);
}

void Server::executor_loop() {
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock,
                     [this] { return executor_exit_ || !queue_.empty(); });
      if (queue_.empty()) return;  // executor_exit_ with a drained queue
      job = std::move(queue_.front());
      queue_.pop_front();
      metrics_.queue_depth->set(static_cast<double>(queue_.size()));
    }

    bool ok = true;
    Json result;
    std::string code, message;
    try {
      obs::ScopedTimer timer(metrics_.job_latency_ns);
      result = evaluate(job.request, &pool_, &registry_);
    } catch (const std::invalid_argument& e) {
      ok = false;
      code = "bad_request";
      message = e.what();
    } catch (const std::exception& e) {
      ok = false;
      code = "internal";
      message = e.what();
    }
    metrics_.jobs_executed->add();

    if (ok) {
      // Only text the protocol can carry is cached or sent: a non-finite
      // number (an overflowed forecast, say) dumps as "inf", which no
      // JSON parser — this daemon's cache replay included — accepts.
      std::string text = result.dump();
      try {
        (void)Json::parse(text);
        cache_.put(job.key, std::move(text));
      } catch (const util::JsonError&) {
        ok = false;
        code = "non_finite_result";
        message =
            "the result holds a non-finite number (e.g. an overflowed "
            "expected_time), which JSON cannot represent";
        result = Json();
      }
    }
    {
      // Retire the key before fulfilling: an arrival after this point
      // starts fresh (and finds the cache populated on the ok path).
      std::lock_guard<std::mutex> lock(queue_mutex_);
      inflight_.erase(job.key);
    }
    fulfill(*job.pending, ok, std::move(result), std::move(code),
            std::move(message));
  }
}

void Server::fulfill(Pending& pending, bool ok, Json result, std::string code,
                     std::string message) {
  {
    std::lock_guard<std::mutex> lock(pending.mutex);
    pending.done = true;
    pending.ok = ok;
    pending.result = std::move(result);
    pending.error_code = std::move(code);
    pending.error_message = std::move(message);
  }
  pending.cv.notify_all();
}

util::Json Server::stats_json() const {
  Json::Object cache;
  cache["hits"] =
      Json(static_cast<double>(metrics_.cache.hits->value()));
  cache["misses"] =
      Json(static_cast<double>(metrics_.cache.misses->value()));
  cache["evictions"] =
      Json(static_cast<double>(metrics_.cache.evictions->value()));
  cache["size"] = Json(static_cast<double>(cache_.size()));
  cache["capacity"] = Json(static_cast<double>(cache_.capacity()));

  Json::Object doc;
  doc["requests"] = Json(static_cast<double>(metrics_.requests->value()));
  doc["errors"] = Json(static_cast<double>(metrics_.errors->value()));
  doc["rejected_queue_full"] =
      Json(static_cast<double>(metrics_.rejected_queue_full->value()));
  doc["rejected_draining"] =
      Json(static_cast<double>(metrics_.rejected_draining->value()));
  doc["coalesced"] = Json(static_cast<double>(metrics_.coalesced->value()));
  doc["jobs_executed"] =
      Json(static_cast<double>(metrics_.jobs_executed->value()));
  doc["connections"] =
      Json(static_cast<double>(metrics_.connections->value()));
  doc["connections_open"] = Json(metrics_.connections_open->value());
  doc["queue_depth"] = Json(metrics_.queue_depth->value());
  doc["plan_cache"] = Json(std::move(cache));
  doc["draining"] = Json(draining_.load(std::memory_order_relaxed));
  doc["pool_threads"] = Json(static_cast<double>(pool_.size()));
  return Json(std::move(doc));
}

}  // namespace mlck::serve
