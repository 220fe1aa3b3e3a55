// The end-to-end runners of mlck_bench: served workloads against an
// in-process mlckd over its Unix socket, and local_direct through
// serve::evaluate. Both time with tracing off; the traced replay runs
// after them (replay.cpp).
#include <sys/prctl.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "obs/registry.h"
#include "serve/client.h"
#include "serve/request.h"
#include "serve/server.h"
#include "suite.h"

namespace mlck::bench_suite {

namespace {

using util::Json;

constexpr std::size_t kIdentitySample = 96;
/// A run whose generator overslept more than this at p99 did not offer
/// the load it claims; it is flagged invalid.
constexpr double kOversleepBoundUs = 5000.0;
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Request accounting shared by every phase of a run.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;      ///< errors, refusals, exceptions, mismatches
  std::size_t checked = 0;     ///< responses byte-compared to the reference
  std::size_t mismatches = 0;

  void add(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    checked += other.checked;
    mismatches += other.mismatches;
  }
  /// Counts one answer; an @p expected reference, when non-empty, must
  /// match byte for byte. Returns whether the answer is a good one.
  bool answer(const std::string& response, const std::string& expected) {
    ++attempted;
    bool ok = is_ok_response(response);
    if (ok && !expected.empty()) {
      ++checked;
      if (response != expected) {
        ++mismatches;
        ok = false;
      }
    }
    if (!ok) ++failed;
    return ok;
  }
};

/// serve.* counters at one point in time.
struct ServeCounters {
  double requests = 0, hits = 0, evictions = 0, coalesced = 0;
  double jobs = 0, job_ns = 0;

  static ServeCounters read(obs::MetricsRegistry& r) {
    ServeCounters c;
    c.requests = static_cast<double>(r.counter("serve.requests").value());
    c.hits = static_cast<double>(r.counter("serve.plan_cache.hits").value());
    c.evictions =
        static_cast<double>(r.counter("serve.plan_cache.evictions").value());
    c.coalesced = static_cast<double>(r.counter("serve.coalesced").value());
    const obs::Histogram& jobs = r.histogram("serve.job_latency_ns");
    c.jobs = static_cast<double>(jobs.count());
    c.job_ns = jobs.sum();
    return c;
  }
  ServeCounters since(const ServeCounters& before) const {
    ServeCounters d;
    d.requests = requests - before.requests;
    d.hits = hits - before.hits;
    d.evictions = evictions - before.evictions;
    d.coalesced = coalesced - before.coalesced;
    d.jobs = jobs - before.jobs;
    d.job_ns = job_ns - before.job_ns;
    return d;
  }
};

/// What an end-to-end run measured, before it becomes metrics.
struct Measured {
  std::vector<double> setup_s;
  std::vector<double> latency_ms;  ///< per timed request; NaN = not ok
  std::size_t sent = 0;            ///< timed requests sent
  double closed_completed = 0.0;
  double closed_wall_s = 0.0;
  std::vector<double> oversleep_us;
  Tally tally;
  Json serve_layers;    ///< registry-derived per-layer metrics
  Json serve_counters;  ///< served only: serve.* deltas of the open loop
  /// Queue wait spread over every open-loop request: only requests for
  /// keys the daemon has not seen wait behind the executor.
  double queue_wait_per_request_ms = 0.0;
};

/// The daemon's per-layer figures over the open-loop phase, from its
/// registry (all zero for local_direct, which has no daemon).
Json serve_layers(const ServeCounters& open, double high_water,
                  double open_wall_s, const std::vector<double>& first_seen) {
  const double job_ms = ratio(open.job_ns * 1e-6, open.jobs);
  Json::Object layers;
  layers["serve.plan_cache.hit_ratio"] =
      metric(ratio(open.hits, open.requests), "ratio", "higher");
  layers["serve.plan_cache.evictions_per_1k"] =
      metric(ratio(open.evictions * 1e3, open.requests), "count", "lower");
  layers["serve.coalesced_ratio"] =
      metric(ratio(open.coalesced, open.requests), "ratio", "higher");
  layers["serve.queue.wait_ms_mean"] = metric(
      first_seen.empty() ? 0.0 : mean(first_seen) - job_ms, "ms", "lower");
  layers["serve.queue.depth_high_water"] =
      metric(high_water, "count", "lower");
  layers["serve.executor.busy_share"] =
      metric(ratio(open.job_ns * 1e-9, open_wall_s), "ratio", "lower");
  return Json(std::move(layers));
}

/// The end-to-end metrics the benchmark gates (peak_rss_mb is added by
/// the parent process, which alone can read the child's peak RSS).
Json end_to_end(const WorkloadDef& w, const Measured& m,
                std::vector<double>& ok_latency) {
  std::size_t within = 0;
  for (const double l : m.latency_ms) {
    if (std::isnan(l)) continue;
    ok_latency.push_back(l);
    if (l <= w.limit_ms) ++within;
  }
  std::vector<double> setup = m.setup_s;
  Json::Object e2e;
  e2e["setup_s"] = metric(percentile(setup, 0.5), "s", "lower");
  e2e["latency_p50_ms"] = metric(percentile(ok_latency, 0.5), "ms", "lower");
  e2e["slo_attainment"] =
      metric(ratio(static_cast<double>(within), static_cast<double>(m.sent)),
             "ratio", "higher");
  e2e["throughput_rps"] =
      metric(ratio(m.closed_completed, m.closed_wall_s), "1/s", "higher");
  return Json(std::move(e2e));
}

/// Tail latencies, reported but not gated: on a shared 4-vCPU host their
/// run-to-run spread is wider than any bound the benchmark may set
/// (README.md, "Stability"). slo_attainment is the gated tail measure.
Json tail(std::vector<double>& ok_latency) {
  return Json(Json::Object{
      {"latency_p90_ms", Json(percentile(ok_latency, 0.90))},
      {"latency_p99_ms", Json(percentile(ok_latency, 0.99))}});
}

/// The served workloads: warm-up list, open loop, closed loop, all over
/// kConnections blocking connections to one in-process daemon.
class ServedRun {
 public:
  ServedRun(const WorkloadDef& w, const Stream& s, const RunOptions& o)
      : w_(w),
        s_(s),
        o_(o),
        socket_("mlckd-" + std::to_string(::getpid()) + ".sock"),
        warm_(std::string_view(w.name) == "served_warm_zipf") {}

  Measured run() {
    if (warm_) {
      // Every warm response is checked inline against a reference made
      // before the daemon starts.
      util::ThreadPool reference_pool(2);
      expected_.resize(s_.texts.size());
      for (std::size_t k = 0; k < s_.texts.size(); ++k) {
        expected_[k] = reference_response(s_.texts[k], &reference_pool);
      }
    } else {
      expected_.assign(s_.texts.size(), std::string());
    }
    for (int k = 0; k < o_.phases.setups; ++k) set_up();

    std::vector<serve::Client> clients;
    for (std::size_t c = 0; c < kConnections; ++c) {
      clients.emplace_back(socket_);
    }
    const ServeCounters before = ServeCounters::read(*registry_);
    const double open_wall = open_loop(clients);
    const ServeCounters open = ServeCounters::read(*registry_).since(before);
    const double high_water =
        registry_->gauge("serve.queue_depth_high_water").value();
    closed_loop(clients);
    clients.clear();
    server_.reset();
    check_sample();

    // Client latency of keys the daemon had never seen: queue wait plus
    // one job each.
    std::vector<double> first_seen;
    std::set<std::uint32_t> seen(s_.warmup.begin(), s_.warmup.end());
    for (std::size_t i = 0; i < s_.open.size(); ++i) {
      if (seen.insert(s_.open[i]).second && !std::isnan(m_.latency_ms[i])) {
        first_seen.push_back(m_.latency_ms[i]);
      }
    }
    m_.serve_layers = serve_layers(open, high_water, open_wall, first_seen);
    m_.queue_wait_per_request_ms =
        m_.serve_layers.at("serve.queue.wait_ms_mean").at("value").as_number() *
        ratio(static_cast<double>(first_seen.size()),
              static_cast<double>(m_.sent));
    m_.serve_counters = Json(Json::Object{
        {"requests", Json(open.requests)},
        {"plan_cache_hits", Json(open.hits)},
        {"plan_cache_evictions", Json(open.evictions)},
        {"coalesced", Json(open.coalesced)},
        {"jobs_executed", Json(open.jobs)},
        {"job_ms_mean", Json(ratio(open.job_ns * 1e-6, open.jobs))}});
    return std::move(m_);
  }

 private:
  /// Constructs a fresh daemon and answers the warm-up list; the last
  /// daemon built serves the timed phases.
  void set_up() {
    server_.reset();
    registry_ = std::make_unique<obs::MetricsRegistry>();
    const auto start = Clock::now();
    serve::ServerOptions options;
    options.socket_path = socket_;
    options.threads = pool_width();
    options.cache_capacity = kCacheCapacity;
    options.registry = registry_.get();
    server_ = std::make_unique<serve::Server>(options);
    serve::Client client(socket_);
    for (const std::uint32_t k : s_.warmup) {
      m_.tally.answer(client.call_raw(s_.texts[k]), expected_[k]);
    }
    m_.setup_s.push_back(seconds_since(start));
  }

  /// Poisson arrivals, each request sent by the next free connection at
  /// its due time and timed from that due time, so a stall also charges
  /// the requests queued behind it.
  double open_loop(std::vector<serve::Client>& clients) {
    const std::size_t n = s_.open.size();
    m_.latency_ms.assign(n, kNaN);
    // Senders only fill these slots, so the map never changes shape
    // while they run.
    for (const std::size_t i : seeded_sample(n, kIdentitySample, o_.seed)) {
      kept_.emplace(i, std::string());
    }
    std::atomic<std::size_t> next{0};
    std::vector<Tally> tallies(clients.size());
    std::vector<std::vector<double>> oversleep(clients.size());
    std::vector<Clock::time_point> last(clients.size());
    const auto start = Clock::now() + std::chrono::milliseconds(10);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients.size(); ++c) {
      threads.emplace_back([&, c] {
        // Default timer slack (50 us) would be charged to every request.
        ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
        last[c] = start;
        for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
          const auto due =
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(s_.due_s[i]));
          if (Clock::now() < due) {
            std::this_thread::sleep_until(due);
            oversleep[c].push_back(
                std::chrono::duration<double, std::micro>(Clock::now() - due)
                    .count());
          }
          const std::uint32_t k = s_.open[i];
          std::string response;
          try {
            response = clients[c].call_raw(s_.texts[k]);
          } catch (const std::exception&) {
            ++tallies[c].attempted;
            ++tallies[c].failed;
            return;  // connection lost: this sender is done
          }
          last[c] = Clock::now();
          if (tallies[c].answer(response, expected_[k])) {
            m_.latency_ms[i] = ms_between(due, last[c]);
            if (const auto slot = kept_.find(i); slot != kept_.end()) {
              slot->second = std::move(response);
            }
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (std::size_t c = 0; c < clients.size(); ++c) {
      m_.tally.add(tallies[c]);
      m_.sent += tallies[c].attempted;
      m_.oversleep_us.insert(m_.oversleep_us.end(), oversleep[c].begin(),
                             oversleep[c].end());
    }
    Clock::time_point end = start;
    for (const auto& t : last) end = std::max(end, t);
    return std::chrono::duration<double>(end - start).count();
  }

  /// Every connection sends back to back until the phase ends.
  void closed_loop(std::vector<serve::Client>& clients) {
    std::atomic<std::size_t> next{0};
    std::vector<Tally> tallies(clients.size());
    std::vector<Clock::time_point> last(clients.size());
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(o_.phases.closed_s));
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients.size(); ++c) {
      threads.emplace_back([&, c] {
        last[c] = start;
        while (Clock::now() < deadline) {
          const std::size_t i = next.fetch_add(1);
          if (i >= s_.closed.size()) return;
          const std::uint32_t k = s_.closed[i];
          try {
            tallies[c].answer(clients[c].call_raw(s_.texts[k]), expected_[k]);
          } catch (const std::exception&) {
            ++tallies[c].attempted;
            ++tallies[c].failed;
            return;
          }
          last[c] = Clock::now();
        }
      });
    }
    for (std::thread& t : threads) t.join();
    Clock::time_point end = start;
    for (std::size_t c = 0; c < clients.size(); ++c) {
      m_.tally.add(tallies[c]);
      m_.closed_completed += static_cast<double>(tallies[c].attempted);
      end = std::max(end, last[c]);
    }
    m_.closed_wall_s = std::chrono::duration<double>(end - start).count();
  }

  /// After the timed window: the kept sample against serve::evaluate.
  void check_sample() {
    if (warm_) return;  // every warm response was checked inline
    util::ThreadPool reference_pool(2);
    std::map<std::uint32_t, std::string> reference;
    for (const auto& [i, response] : kept_) {
      if (response.empty()) continue;
      const std::uint32_t k = s_.open[i];
      auto it = reference.find(k);
      if (it == reference.end()) {
        it = reference
                 .emplace(k, reference_response(s_.texts[k], &reference_pool))
                 .first;
      }
      ++m_.tally.checked;
      if (response != it->second) {
        ++m_.tally.mismatches;
        ++m_.tally.failed;
      }
    }
  }

  const WorkloadDef& w_;
  const Stream& s_;
  const RunOptions& o_;
  std::string socket_;
  bool warm_;
  std::vector<std::string> expected_;  ///< per text; empty = not inline
  /// Open-loop position -> response, for the seeded identity sample.
  std::map<std::size_t, std::string> kept_;
  Measured m_;
  std::unique_ptr<obs::MetricsRegistry> registry_;  ///< outlives server_
  std::unique_ptr<serve::Server> server_;
};

/// local_direct: one caller answering each request with serve::evaluate
/// on a ThreadPool(nproc), as the CLI does; no socket, queue or cache.
Measured run_local(const Stream& s, const RunOptions& o) {
  Measured m;
  std::unique_ptr<util::ThreadPool> pool;
  std::vector<std::string> first(s.texts.size());
  for (int k = 0; k < o.phases.setups; ++k) {
    pool.reset();
    const auto start = Clock::now();
    pool = std::make_unique<util::ThreadPool>(pool_width());
    for (const std::uint32_t t : s.warmup) {
      std::string response = reference_response(s.texts[t], pool.get());
      // Every later answer must repeat the first one byte for byte.
      if (first[t].empty()) first[t] = response;
      m.tally.answer(response, first[t]);
    }
    m.setup_s.push_back(seconds_since(start));
  }

  const auto start = Clock::now();
  auto last = start;
  for (std::size_t i = 0;
       i < s.closed.size() && seconds_since(start) < o.phases.local_s; ++i) {
    const std::uint32_t t = s.closed[i];
    const auto sent = Clock::now();
    const std::string response = reference_response(s.texts[t], pool.get());
    last = Clock::now();
    ++m.sent;
    const bool ok = m.tally.answer(response, first[t]);
    m.latency_ms.push_back(ok ? ms_between(sent, last) : kNaN);
  }
  m.closed_completed = static_cast<double>(m.sent);
  m.closed_wall_s = std::chrono::duration<double>(last - start).count();
  pool.reset();

  // The first answers against serve::evaluate on a pool of another
  // width: results must not depend on the thread count.
  util::ThreadPool reference_pool(2);
  for (std::size_t t = 0; t < s.texts.size(); ++t) {
    if (first[t].empty()) continue;
    ++m.tally.checked;
    if (first[t] != reference_response(s.texts[t], &reference_pool)) {
      ++m.tally.mismatches;
      ++m.tally.failed;
    }
  }
  m.serve_layers = serve_layers(ServeCounters{}, 0.0, 0.0, {});
  return m;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// --smoke's generator checks: the stream is a pure function of the
/// seed, and served_cold_mix never repeats a canonical key.
std::vector<std::string> smoke_checks(const WorkloadDef& w, const Stream& s,
                                      const RunOptions& o) {
  std::vector<std::string> failures;
  if (make_stream(w, o.seed, o.phases).hash != s.hash) {
    failures.push_back("same seed gave another request-stream hash");
  }
  if (make_stream(w, o.seed + 1, o.phases).hash == s.hash) {
    failures.push_back("another seed gave the same request-stream hash");
  }
  if (std::string_view(w.name) == "served_cold_mix") {
    std::set<std::string> keys;
    for (const std::string& text : s.texts) {
      if (!keys.insert(serve::Request::parse(Json::parse(text)).canonical_key())
               .second) {
        failures.push_back("served_cold_mix repeated a canonical key");
        break;
      }
    }
  }
  return failures;
}

}  // namespace

Json run_workload(const WorkloadDef& w, const RunOptions& o) {
  const Stream s = make_stream(w, o.seed, o.phases);
  Measured m = w.served ? ServedRun(w, s, o).run() : run_local(s, o);

  Json::Object doc;
  doc["workload"] = Json(w.name);
  doc["seed"] = Json(static_cast<double>(o.seed));
  doc["stream_hash"] = Json(hex(s.hash));
  doc["loop"] = Json(w.served ? "open (Poisson) + closed, 4 connections"
                              : "closed, 1 caller");
  if (w.served) doc["rate_rps"] = Json(w.rate_rps);
  doc["limit_ms"] = Json(w.limit_ms);
  doc["latency_samples"] = Json(static_cast<double>(m.sent));
  std::vector<double> ok_latency;
  doc["end_to_end"] = end_to_end(w, m, ok_latency);
  doc["tail"] = tail(ok_latency);
  if (w.served) {
    const double p99 = percentile(m.oversleep_us, 0.99);
    doc["generator"] = Json(Json::Object{
        {"oversleep_us_p50", Json(percentile(m.oversleep_us, 0.5))},
        {"oversleep_us_p99", Json(p99)},
        {"oversleep_bound_us", Json(kOversleepBoundUs)},
        {"valid", Json(p99 <= kOversleepBoundUs)}});
    doc["serve_counters"] = m.serve_counters;
  }

  std::vector<std::string> smoke_failures;
  if (o.trace || o.smoke) {
    const ReplayResult r = replay(w, s, o.phases.replay_s, o.spans);
    Json::Object layers = r.layers.as_object();
    for (const auto& [key, value] : m.serve_layers.as_object()) {
      layers[key] = value;
    }
    // Client time the replay's layers and the queue do not explain, on
    // the same requests the replay ran.
    std::vector<double> client;
    for (std::size_t i = 0; i < r.replayed && i < m.latency_ms.size(); ++i) {
      if (!std::isnan(m.latency_ms[i])) client.push_back(m.latency_ms[i]);
    }
    const double client_mean = mean(client);
    const double explained = r.plain_mean_ms + m.queue_wait_per_request_ms;
    layers["serve.unattributed_share"] = metric(
        ratio(client_mean - explained, client_mean), "ratio", "lower");
    doc["per_layer"] = Json(std::move(layers));
    doc["replay"] = Json(Json::Object{
        {"requests", Json(static_cast<double>(r.replayed))},
        {"failed", Json(static_cast<double>(r.failed))},
        {"worst_unattributed_share", Json(r.worst_unattributed)},
        {"late_context_builds",
         Json(static_cast<double>(r.late_context_builds))}});
    m.tally.attempted += 2 * r.replayed;
    m.tally.failed += r.failed;
    if (o.smoke) {
      smoke_failures = smoke_checks(w, s, o);
      if (r.late_context_builds != 0) {
        smoke_failures.push_back("optimize/predict built a context the "
                                 "replay did not attribute");
      }
      const Json& gap = doc["per_layer"].at("trace.unattributed_share");
      if (gap.at("value").as_number() > 0.05) {
        smoke_failures.push_back("layer spans cover under 95% of replay time");
      }
    }
  }

  doc["attempted"] = Json(static_cast<double>(m.tally.attempted));
  doc["failed"] = Json(static_cast<double>(m.tally.failed));
  doc["error_ratio"] = Json(ratio(static_cast<double>(m.tally.failed),
                                  static_cast<double>(m.tally.attempted)));
  doc["identity"] = Json(Json::Object{
      {"checked", Json(static_cast<double>(m.tally.checked))},
      {"mismatches", Json(static_cast<double>(m.tally.mismatches))}});
  doc["correct"] = Json(m.tally.failed == 0 && smoke_failures.empty());
  if (o.smoke) {
    Json::Array smoke;
    for (std::string& f : smoke_failures) smoke.emplace_back(std::move(f));
    doc["smoke_failures"] = Json(std::move(smoke));
  }
  return Json(std::move(doc));
}

}  // namespace mlck::bench_suite
