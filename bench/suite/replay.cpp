// The traced replay of mlck_bench. Each timed request of a workload's
// stream runs twice on one thread: once through the daemon's own calls
// (frame, parse, canonical key, plan cache, serve::evaluate, envelope,
// frame) and once with serve::evaluate split into the public layer calls
// it makes, with a span around every call. The spans give each layer's
// self time; the untraced twin gives the tracing overhead and the
// identity reference. Spans sit in the benchmark's own code, around the
// calls into each layer, never inside the program.
#include <sys/socket.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <stdexcept>

#include "core/serialize.h"
#include "engine/scenario.h"
#include "math/failure_law.h"
#include "serve/plan_cache.h"
#include "serve/protocol.h"
#include "serve/request.h"
#include "sim/trial_runner.h"
#include "suite.h"
#include "util/socket.h"

namespace mlck::bench_suite {

namespace {

using util::Json;

/// Enough replayed requests for stable medians; bounds the span memory
/// on the microsecond-scale warm stream.
constexpr std::size_t kReplayCap = 20000;

/// The layers, in the order a request meets them. Self times of the
/// serve.* layers are reported in microseconds, of the compute layers in
/// milliseconds.
struct Layer {
  const char* name;
  bool compute;
};
constexpr Layer kLayers[] = {
    {"serve.protocol", false},  {"serve.request", false},
    {"serve.plan_cache", false}, {"math.failure_law", true},
    {"engine.context", true},    {"core.optimizer", true},
    {"engine.predict", true},    {"sim.trials", true},
    {"serve.serialize", false}};
constexpr std::size_t kLayerCount = std::size(kLayers);
enum LayerId : std::size_t {
  kProtocol, kRequest, kCache, kLaw, kContext, kOptimizer, kPredict, kSim,
  kSerialize,
  kRoot = kLayerCount,  ///< the span of a whole request
};

struct Span {
  std::size_t layer;
  std::uint32_t request;
  std::int64_t parent;  ///< span index, -1 for a root
  std::int64_t start_ns;
  std::int64_t end_ns;
};

/// In-memory span recorder; the spans are written out when the replay
/// ends.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {
    spans_.reserve(std::size_t{1} << 16);
  }
  std::size_t begin(std::size_t layer, std::uint32_t request,
                    std::int64_t parent) {
    spans_.push_back(Span{layer, request, parent, now_ns(), 0});
    return spans_.size() - 1;
  }
  void end(std::size_t span) { spans_[span].end_ns = now_ns(); }
  const std::vector<Span>& spans() const { return spans_; }
  void clear() { spans_.clear(); }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Counts taken at the layer boundaries of the decomposed path.
struct Counts {
  std::size_t law_builds = 0;
  std::size_t context_builds = 0;
  std::size_t late_context_builds = 0;  ///< builds inside optimize/predict
  std::size_t optimizer_runs = 0;
  std::size_t evaluations = 0;
  std::size_t lattice[2] = {0, 0};  ///< [exponential, non-exponential]
  std::size_t pruned_bound[2] = {0, 0};
  std::size_t trials = 0;
  std::size_t capped_trials = 0;
};

/// The level subsets the optimizer searches (core/optimizer.cpp): the
/// restricted set, or every prefix {0..K-1} down to K = 1 when suffix
/// skipping is on. Building them up front makes the optimizer span pure
/// search; the replay checks that optimize builds nothing more.
std::vector<std::vector<int>> searched_subsets(
    const core::OptimizerOptions& options, int levels) {
  if (!options.restrict_levels.empty()) return {options.restrict_levels};
  std::vector<std::vector<int>> subsets;
  const int min_k = options.allow_suffix_skipping ? 1 : levels;
  for (int k = levels; k >= min_k; --k) {
    std::vector<int> prefix(static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i) prefix[static_cast<std::size_t>(i)] = i;
    subsets.push_back(std::move(prefix));
  }
  return subsets;
}

/// serve::evaluate's predict breakdown document (its serializer is
/// private to the library); the identity gate catches any drift.
Json model_breakdown(const core::ModelBreakdown& b) {
  Json::Object doc;
  doc["compute"] = Json(b.compute);
  doc["checkpoint_ok"] = Json(b.checkpoint_ok);
  doc["checkpoint_failed"] = Json(b.checkpoint_failed);
  doc["restart_ok"] = Json(b.restart_ok);
  doc["restart_failed"] = Json(b.restart_failed);
  doc["rework_compute"] = Json(b.rework_compute);
  doc["rework_checkpoint"] = Json(b.rework_checkpoint);
  doc["scratch_rework"] = Json(b.scratch_rework);
  return Json(std::move(doc));
}

/// One request path. With a tracer, serve::evaluate is decomposed and
/// every layer call is wrapped in a span; without one, the path makes
/// exactly the daemon's calls. Served paths cross a socketpair and a
/// plan cache of the daemon's capacity; local paths have neither.
class Pipeline {
 public:
  Pipeline(bool served, util::ThreadPool& pool, Tracer* tracer)
      : served_(served), pool_(pool), tracer_(tracer) {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
      throw std::runtime_error("replay: socketpair failed");
    }
    client_ = util::Fd(fds[0]);
    server_ = util::Fd(fds[1]);
  }

  /// The bytes the client reads back for @p text.
  std::string answer(const std::string& text, std::uint32_t request) {
    request_ = request;
    root_ = tracer_ != nullptr
                ? static_cast<std::int64_t>(tracer_->begin(kRoot, request, -1))
                : -1;
    const Scope scope{tracer_, root_};
    return respond(text);
  }

  Counts counts;

 private:
  struct Scope {
    Tracer* tracer;
    std::int64_t span;
    ~Scope() {
      if (tracer != nullptr) tracer->end(static_cast<std::size_t>(span));
    }
  };

  template <typename F>
  decltype(auto) layer(std::size_t id, F&& call) {
    const Scope scope{tracer_,
                      tracer_ != nullptr
                          ? static_cast<std::int64_t>(
                                tracer_->begin(id, request_, root_))
                          : -1};
    return call();
  }

  void send(int fd, const std::string& payload) {
    if (!serve::write_frame(fd, payload)) {
      throw std::runtime_error("replay: write_frame failed");
    }
  }
  void receive(int fd, std::string& payload) {
    if (serve::read_frame(fd, payload) != serve::FrameStatus::kOk) {
      throw std::runtime_error("replay: read_frame failed");
    }
  }

  std::string respond(const std::string& text) {
    std::string payload;
    const std::string* body = &text;
    if (served_) {
      layer(kProtocol, [&] {
        send(client_.get(), text);
        receive(server_.get(), payload);
      });
      body = &payload;
    }
    serve::Request request;
    std::string key;
    layer(kRequest, [&] {
      request = serve::Request::parse(Json::parse(*body));
      if (served_) key = request.canonical_key();
    });
    std::optional<std::string> cached;
    if (served_) cached = layer(kCache, [&] { return cache_.get(key); });
    std::string response;
    if (cached) {
      response = layer(kSerialize, [&] {
        return serve::ok_response(request.id, Json::parse(*cached));
      });
    } else {
      Json result = tracer_ != nullptr ? compute(request)
                                       : serve::evaluate(request, &pool_);
      if (served_) {
        std::string dumped = layer(kSerialize, [&] { return result.dump(); });
        layer(kCache, [&] { cache_.put(key, std::move(dumped)); });
      }
      response = layer(kSerialize, [&] {
        return serve::ok_response(request.id, std::move(result));
      });
    }
    if (!served_) return response;
    std::string back;
    layer(kProtocol, [&] {
      send(server_.get(), response);
      receive(client_.get(), back);
    });
    return back;
  }

  /// serve::evaluate, one public call per layer.
  Json compute(const serve::Request& request) {
    const engine::ScenarioSpec& spec = request.spec;
    if (request.op == serve::Op::kScenario && spec.model != "dauwe") {
      throw std::invalid_argument("replay decomposes the dauwe model only");
    }
    const std::shared_ptr<const math::FailureLaw> law =
        layer(kLaw, [&] { return spec.distribution.family(); });
    // A law object not seen before was built for this request; a
    // memoizing family() would hand back one already seen.
    if (law != nullptr && laws_seen_.insert(law).second) ++counts.law_builds;

    obs::Counter misses;
    engine::EngineMetrics metrics;
    metrics.context_misses = &misses;
    const std::unique_ptr<engine::EvaluationEngine> engine =
        layer(kContext, [&] {
          auto built = std::make_unique<engine::EvaluationEngine>(
              spec.system, spec.model_options, law);
          built->attach_metrics(metrics);
          if (request.op == serve::Op::kPredict) {
            built->context(request.plan.levels);
          } else {
            for (const auto& levels :
                 searched_subsets(spec.optimizer, spec.system.levels())) {
              built->context(levels);
            }
          }
          return built;
        });
    const std::uint64_t built = misses.value();
    counts.context_builds += built;

    if (request.op == serve::Op::kPredict) {
      const core::Prediction prediction =
          layer(kPredict, [&] { return engine->predict(request.plan); });
      counts.late_context_builds += misses.value() - built;
      return layer(kSerialize, [&] {
        Json::Object result;
        result["plan"] = core::to_json(request.plan);
        result["expected_time"] = Json(prediction.expected_time);
        result["efficiency"] = Json(prediction.efficiency);
        result["breakdown"] = model_breakdown(prediction.breakdown);
        return Json(std::move(result));
      });
    }

    const core::OptimizationResult best = layer(
        kOptimizer, [&] { return engine->optimize(spec.optimizer, &pool_); });
    counts.late_context_builds += misses.value() - built;
    const std::size_t family = law != nullptr ? 1 : 0;
    ++counts.optimizer_runs;
    counts.evaluations += best.evaluations;
    counts.lattice[family] += best.coarse_evaluations +
                              best.pruned_feasibility + best.pruned_bound;
    counts.pruned_bound[family] += best.pruned_bound;

    if (request.op == serve::Op::kOptimize) {
      return layer(kSerialize, [&] {
        Json::Object result;
        result["plan"] = core::to_json(best.plan);
        result["expected_time"] = Json(best.expected_time);
        result["efficiency"] = Json(best.efficiency);
        return Json(std::move(result));
      });
    }

    core::TechniqueResult selected;
    selected.technique = "Dauwe et al.";
    selected.plan = best.plan;
    selected.predicted_time = best.expected_time;
    selected.predicted_efficiency = best.efficiency;
    sim::TrialStats stats;
    if (spec.distribution.is_default_exponential()) {
      stats = layer(kSim, [&] {
        return sim::run_trials(spec.system, selected.plan, spec.trials,
                               spec.seed, spec.sim, &pool_);
      });
    } else {
      const auto sampling =
          layer(kLaw, [&] { return spec.distribution.make(spec.system); });
      ++counts.law_builds;
      stats = layer(kSim, [&] {
        return sim::run_trials_with_distribution(spec.system, selected.plan,
                                                 *sampling, spec.trials,
                                                 spec.seed, spec.sim, &pool_);
      });
    }
    counts.trials += stats.trials;
    counts.capped_trials += stats.capped_trials;
    return layer(kSerialize, [&] {
      Json::Object result;
      result["selected"] = serve::to_json(selected);
      result["stats"] = serve::to_json(stats);
      return Json(std::move(result));
    });
  }

  bool served_;
  util::ThreadPool& pool_;
  Tracer* tracer_;
  util::Fd client_;
  util::Fd server_;
  serve::PlanCache cache_{kCacheCapacity};
  std::uint32_t request_ = 0;
  std::int64_t root_ = -1;
  std::set<std::weak_ptr<const math::FailureLaw>, std::owner_less<>>
      laws_seen_;
};

void write_spans(std::ostream& out, const char* workload,
                 const std::vector<Span>& spans) {
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"workload\":\"" << workload << "\",\"request\":" << s.request
        << ",\"span\":" << i << ",\"parent\":" << s.parent << ",\"name\":\""
        << (s.layer == kRoot ? "request" : kLayers[s.layer].name)
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
}

}  // namespace

ReplayResult replay(const WorkloadDef& workload, const Stream& stream,
                    double seconds, std::ostream* spans) {
  util::ThreadPool pool(pool_width());
  Tracer tracer(Clock::now());
  Pipeline plain(workload.served, pool, nullptr);
  Pipeline traced(workload.served, pool, &tracer);
  ReplayResult out;

  double plain_s = 0.0;
  double traced_s = 0.0;
  // Alternating which twin runs first cancels the warm-cache advantage
  // of running second.
  const auto twice = [&](std::uint32_t text, std::uint32_t id) {
    Pipeline& first = id % 2 == 0 ? plain : traced;
    Pipeline& second = id % 2 == 0 ? traced : plain;
    const auto t0 = Clock::now();
    const std::string a = first.answer(stream.texts[text], id);
    const auto t1 = Clock::now();
    const std::string b = second.answer(stream.texts[text], id);
    const auto t2 = Clock::now();
    const double d1 = std::chrono::duration<double>(t1 - t0).count();
    const double d2 = std::chrono::duration<double>(t2 - t1).count();
    plain_s += id % 2 == 0 ? d1 : d2;
    traced_s += id % 2 == 0 ? d2 : d1;
    if (a != b || !is_ok_response(a)) ++out.failed;
  };

  std::uint32_t id = 0;
  try {
    for (const std::uint32_t text : stream.warmup) twice(text, id++);
    tracer.clear();
    traced.counts = Counts{};
    plain_s = traced_s = 0.0;
    id = 0;
    const std::vector<std::uint32_t>& timed =
        workload.served ? stream.open : stream.closed;
    const auto start = Clock::now();
    while (id < timed.size() && id < kReplayCap &&
           seconds_since(start) < seconds) {
      twice(timed[id], id);
      ++id;
    }
  } catch (const std::exception&) {
    // A broken frame stream desynchronizes every later request.
    ++out.failed;
  }
  out.replayed = id;

  // Per request: the root span's duration and each layer's self time.
  // Layer spans are children of the root and never overlap, so a layer's
  // self time is its spans' total and the root's is the unattributed gap.
  std::vector<std::vector<double>> self(kLayerCount);
  double layer_ns[kLayerCount] = {};
  double root_ns = 0.0;
  double gap_ns = 0.0;
  const std::vector<Span>& all = tracer.spans();
  for (std::size_t i = 0; i < all.size();) {
    const double root = static_cast<double>(all[i].end_ns - all[i].start_ns);
    double here[kLayerCount] = {};
    bool seen[kLayerCount] = {};
    std::size_t j = i + 1;
    for (; j < all.size() && all[j].layer != kRoot; ++j) {
      const double d = static_cast<double>(all[j].end_ns - all[j].start_ns);
      here[all[j].layer] += d;
      seen[all[j].layer] = true;
    }
    double covered = 0.0;
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      if (!seen[l]) continue;
      self[l].push_back(here[l]);
      layer_ns[l] += here[l];
      covered += here[l];
    }
    root_ns += root;
    gap_ns += root - covered;
    out.worst_unattributed =
        std::max(out.worst_unattributed, ratio(root - covered, root));
    i = j;
  }

  Json::Object layers;
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    const std::string name = kLayers[l].name;
    const double scale = kLayers[l].compute ? 1e-6 : 1e-3;
    layers[name + (kLayers[l].compute ? ".self_ms_p50" : ".self_us_p50")] =
        metric(percentile(self[l], 0.5) * scale,
               kLayers[l].compute ? "ms" : "us", "lower");
    layers[name + ".share"] =
        metric(ratio(layer_ns[l], root_ns), "ratio", "lower");
  }
  const Counts& c = traced.counts;
  const auto per_request = [&](std::size_t n) {
    return ratio(static_cast<double>(n), static_cast<double>(out.replayed));
  };
  layers["math.failure_law.builds_per_request"] =
      metric(per_request(c.law_builds), "count", "lower");
  layers["engine.context.builds_per_request"] =
      metric(per_request(c.context_builds), "count", "lower");
  layers["core.optimizer.evaluations_per_request"] =
      metric(ratio(static_cast<double>(c.evaluations),
                   static_cast<double>(c.optimizer_runs)),
             "count", "lower");
  layers["core.optimizer.prune_ratio.exponential"] =
      metric(ratio(static_cast<double>(c.pruned_bound[0]),
                   static_cast<double>(c.lattice[0])),
             "ratio", "higher");
  layers["core.optimizer.prune_ratio.nonexponential"] =
      metric(ratio(static_cast<double>(c.pruned_bound[1]),
                   static_cast<double>(c.lattice[1])),
             "ratio", "higher");
  layers["sim.trials.trials_per_s"] =
      metric(ratio(static_cast<double>(c.trials), layer_ns[kSim] * 1e-9),
             "1/s", "higher");
  layers["sim.trials.capped_ratio"] =
      metric(ratio(static_cast<double>(c.capped_trials),
                   static_cast<double>(c.trials)),
             "ratio", "lower");
  layers["trace.unattributed_share"] =
      metric(ratio(gap_ns, root_ns), "ratio", "lower");
  layers["trace.overhead"] =
      metric(ratio(traced_s - plain_s, plain_s), "ratio", "lower");
  out.layers = Json(std::move(layers));
  out.plain_mean_ms =
      ratio(plain_s * 1e3, static_cast<double>(out.replayed));
  out.late_context_builds = c.late_context_builds;
  if (spans != nullptr) write_spans(*spans, workload.name, all);
  return out;
}

}  // namespace mlck::bench_suite
