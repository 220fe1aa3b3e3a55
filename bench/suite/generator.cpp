// The workload table and the seeded request generator of mlck_bench.
// Every request the program receives is made here from --seed; the
// program only ever sees the generated frames.
#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "core/serialize.h"
#include "serve/request.h"
#include "suite.h"
#include "systems/test_systems.h"

namespace mlck::bench_suite {

namespace {

using util::Json;

constexpr std::size_t kWarmKeys = 96;
constexpr std::size_t kChurnKeys = 1024;
constexpr std::size_t kColdWarmup = 64;

/// splitmix64: a small, fast, fully specified generator, so a seed gives
/// the same stream on every platform and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }
  /// Log-uniform factor in [1/spread, spread].
  double jitter(double spread) {
    return std::exp(std::log(spread) * (2.0 * uniform() - 1.0));
  }

 private:
  std::uint64_t state_;
};

std::uint64_t stream_seed(std::uint64_t seed, std::string_view workload,
                          std::uint64_t purpose) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : workload) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  Rng mix(seed ^ h ^ (purpose * 0x632be59bd9b4e019ULL));
  return mix.next();
}

Json failure_law(std::size_t which) {
  Json::Object law;
  switch (which % 3) {
    case 0:
      law["law"] = Json("exponential");
      break;
    case 1:
      law["law"] = Json("weibull");
      law["shape"] = Json(0.7);
      break;
    default:
      law["law"] = Json("lognormal");
      law["sigma"] = Json(1.0);
      break;
  }
  return Json(std::move(law));
}

/// Table I system @p index with log-uniform jitter (x/÷1.25) on every
/// checkpoint/restart cost, the MTBF (so every failure rate) and T_B.
/// Continuous jitter makes every generated system distinct.
systems::SystemConfig jittered_system(std::size_t index, Rng& rng) {
  static const std::vector<systems::SystemConfig> table =
      systems::table1_systems();
  systems::SystemConfig system = table[index % table.size()];
  for (std::size_t k = 0; k < system.checkpoint_cost.size(); ++k) {
    const double cost = system.checkpoint_cost[k] * rng.jitter(1.25);
    system.checkpoint_cost[k] = cost;
    system.restart_cost[k] = cost;
  }
  system.mtbf *= rng.jitter(1.25);
  system.base_time *= rng.jitter(1.25);
  return system;
}

/// A feasible plan over every level: small counts, and tau0 1-10% of the
/// MTBF within T_B / (2 x pattern length). Longer intervals can make the
/// forecast overflow to infinity, which the daemon caches as text that
/// no longer parses as JSON, so a repeated request would fail.
Json feasible_plan(const systems::SystemConfig& system, Rng& rng) {
  Json::Array levels;
  Json::Array counts;
  double pattern = 1.0;
  for (int k = 0; k < system.levels(); ++k) {
    levels.emplace_back(k);
    if (k + 1 < system.levels()) {
      const int n = static_cast<int>(rng.below(4));
      counts.emplace_back(n);
      pattern *= n + 1;
    }
  }
  Json::Object plan;
  plan["tau0"] = Json(std::min(system.mtbf * 0.0316 * rng.jitter(3.16),
                               system.base_time / (2.0 * pattern)));
  plan["levels"] = Json(std::move(levels));
  plan["counts"] = Json(std::move(counts));
  return Json(std::move(plan));
}

Json scenario_request(Json system, Json law, std::size_t trials,
                      std::uint64_t sim_seed) {
  Json::Object spec;
  spec["system"] = std::move(system);
  spec["failure"] = std::move(law);
  spec["trials"] = Json(static_cast<double>(trials));
  spec["seed"] = Json(static_cast<double>(sim_seed));
  Json::Object doc;
  doc["op"] = Json("scenario");
  doc["spec"] = Json(std::move(spec));
  return Json(std::move(doc));
}

/// The request mix as 660 cells: each (op slot, Table I system, law)
/// combination once, as cell % 20, cell % 11 and cell % 3 (coprime, so
/// all 660 combinations occur). A slot pattern fixes the op shares.
/// Drawing cells without replacement (served_cold_mix) or by key rank
/// (the Zipf workloads) gives every seed the same mix, so the seed moves
/// only the jitter, the simulation seeds and the arrival times.
constexpr std::size_t kCells = 660;
/// 45% optimize, 35% predict, 20% scenario.
constexpr std::string_view kMixOps = "OPOPSOPOPSOPOPSOOPOS";
/// 45% optimize, 45% predict, 10% heavy scenario.
constexpr std::string_view kChurnOps = "OPOPOPOPOSPOPOPOPOPS";

/// The request of @p cell over a jittered inline system; scenarios
/// simulate @p trials trials.
std::string cell_request(std::size_t cell, std::string_view ops,
                         std::size_t trials, Rng& rng) {
  const char op = ops[cell % ops.size()];
  const systems::SystemConfig system = jittered_system(cell % 11, rng);
  Json law = failure_law(cell % 3);
  if (op == 'S') {
    return scenario_request(core::to_json(system), std::move(law), trials,
                            rng.next() >> 33)
        .dump();
  }
  Json::Object doc;
  doc["op"] = Json(op == 'O' ? "optimize" : "predict");
  doc["system"] = core::to_json(system);
  doc["failure"] = std::move(law);
  if (op == 'P') doc["plan"] = feasible_plan(system, rng);
  return Json(std::move(doc)).dump();
}

/// Optimize on B and M (default options) and scenario on D1..D9 at 1000
/// trials, each over the three laws: the CLI's heavy local answers.
std::vector<std::string> local_requests(Rng& rng) {
  std::vector<std::string> out;
  for (const char* name : {"B", "M"}) {
    for (std::size_t law = 0; law < 3; ++law) {
      Json::Object doc;
      doc["op"] = Json("optimize");
      doc["system"] = Json(name);
      doc["failure"] = failure_law(law);
      out.push_back(Json(std::move(doc)).dump());
    }
  }
  for (const char* name :
       {"D1", "D2", "D3", "D4", "D5", "D6", "D7", "D8", "D9"}) {
    for (std::size_t law = 0; law < 3; ++law) {
      out.push_back(scenario_request(Json(name),
                                     failure_law(law), 1000,
                                     rng.next() >> 33)
                        .dump());
    }
  }
  // Seeded cycle order (Fisher-Yates).
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.below(i)]);
  }
  return out;
}

/// Zipf(@p s) over ranks 0..n-1, by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  std::uint32_t draw(Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    return static_cast<std::uint32_t>(
        std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                              cdf_.size() - 1));
  }

 private:
  std::vector<double> cdf_;
};

/// Open-loop arrivals: a Poisson process at @p rate over @p seconds.
std::vector<double> poisson_schedule(Rng& rng, double rate, double seconds) {
  std::vector<double> due;
  for (double t = -std::log1p(-rng.uniform()) / rate; t < seconds;
       t += -std::log1p(-rng.uniform()) / rate) {
    due.push_back(t);
  }
  return due;
}

/// Closed-loop requests to generate: three times what the seed commit
/// answers in @p seconds. A commit that runs out ends the phase early,
/// which throughput_rps (answers over elapsed time) tolerates.
std::size_t closed_capacity(const WorkloadDef& w, double seconds) {
  return static_cast<std::size_t>(std::ceil(3.0 * w.closed_rps * seconds)) +
         64;
}

class Fnv {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) h_ = (h_ ^ p[i]) * 1099511628211ULL;
  }
  template <typename T>
  void values(const std::vector<T>& v) {
    const std::uint64_t n = v.size();
    bytes(&n, sizeof n);
    if (!v.empty()) bytes(v.data(), v.size() * sizeof(T));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

std::uint64_t hash_stream(const Stream& s) {
  Fnv fnv;
  for (const std::string& text : s.texts) {
    fnv.bytes(text.data(), text.size() + 1);
  }
  fnv.values(s.warmup);
  fnv.values(s.open);
  fnv.values(s.due_s);
  fnv.values(s.closed);
  return fnv.value();
}

}  // namespace

const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> table = {
      {"served_cold_mix",
       "every key unique: law and context builds, the optimizer, simulation "
       "and the single executor's queue carry the latency; no cache hits",
       true, 150.0, 385.0, 18.0},
      {"served_warm_zipf",
       "Zipf(1.1) over 96 warmed keys: only frame I/O, parsing, the "
       "canonical key and the cache lookup run",
       true, 40000.0, 100000.0, 0.25},
      {"served_churn",
       "Zipf(1.0) over 1024 keys against 128 cache slots, 10% heavy "
       "scenarios: hits, inserts, evictions and coalescing side by side",
       true, 120.0, 600.0, 1.5},
      {"local_direct",
       "one caller, serve::evaluate on a ThreadPool: the CLI's path, where "
       "the optimizer and simulator do the work",
       false, 0.0, 90.0, 40.0},
  };
  return table;
}

const WorkloadDef* find_workload(std::string_view name) {
  for (const WorkloadDef& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Stream make_stream(const WorkloadDef& w, std::uint64_t seed,
                   const Phases& phases) {
  const std::string_view name = w.name;
  Rng content(stream_seed(seed, name, 1));
  Rng arrivals(stream_seed(seed, name, 2));
  Stream s;
  if (name == "served_cold_mix") {
    // Warm-up, open loop and closed loop all draw fresh requests, each
    // run of 660 covering every cell once in a seeded order.
    const std::vector<double> due =
        poisson_schedule(arrivals, w.rate_rps, phases.open_s);
    const std::size_t closed = closed_capacity(w, phases.closed_s);
    const std::size_t total = kColdWarmup + due.size() + closed;
    std::vector<std::size_t> cells(kCells);
    s.texts.reserve(total);
    for (std::size_t i = 0; i < total; ++i) {
      if (i % kCells == 0) {
        for (std::size_t c = 0; c < kCells; ++c) cells[c] = c;
        for (std::size_t c = kCells; c > 1; --c) {
          std::swap(cells[c - 1], cells[content.below(c)]);
        }
      }
      s.texts.push_back(cell_request(cells[i % kCells], kMixOps, 200, content));
    }
    for (std::uint32_t i = 0; i < total; ++i) {
      if (i < kColdWarmup) {
        s.warmup.push_back(i);
      } else if (i < kColdWarmup + due.size()) {
        s.open.push_back(i);
      } else {
        s.closed.push_back(i);
      }
    }
    s.due_s = due;
  } else if (name == "served_warm_zipf" || name == "served_churn") {
    const bool warm = name == "served_warm_zipf";
    const std::size_t keys = warm ? kWarmKeys : kChurnKeys;
    // Rank r is key r, of cell r: the warm-up list is the hottest keys.
    for (std::size_t k = 0; k < keys; ++k) {
      s.texts.push_back(warm ? cell_request(k, kMixOps, 200, content)
                             : cell_request(k, kChurnOps, 2000, content));
    }
    for (std::uint32_t k = 0; k < kWarmKeys; ++k) s.warmup.push_back(k);
    const Zipf zipf(keys, warm ? 1.1 : 1.0);
    s.due_s = poisson_schedule(arrivals, w.rate_rps, phases.open_s);
    for (std::size_t i = 0; i < s.due_s.size(); ++i) {
      s.open.push_back(zipf.draw(arrivals));
    }
    const std::size_t closed = closed_capacity(w, phases.closed_s);
    for (std::size_t i = 0; i < closed; ++i) {
      s.closed.push_back(zipf.draw(arrivals));
    }
  } else if (name == "local_direct") {
    s.texts = local_requests(content);
    const auto n = static_cast<std::uint32_t>(s.texts.size());
    for (std::uint32_t i = 0; i < n; ++i) s.warmup.push_back(i);
    const std::size_t cycle = closed_capacity(w, phases.local_s);
    for (std::size_t i = 0; i < cycle; ++i) {
      s.closed.push_back(static_cast<std::uint32_t>(i % n));
    }
  } else {
    throw std::invalid_argument("unknown workload " + std::string(name));
  }
  s.hash = hash_stream(s);
  return s;
}

std::vector<std::size_t> seeded_sample(std::size_t n, std::size_t count,
                                       std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  Rng rng(stream_seed(seed, "identity", 3));
  count = std::min(n, count);
  for (std::size_t i = 0; i < count; ++i) {
    std::swap(order[i], order[i + rng.below(n - i)]);
  }
  order.resize(count);
  return order;
}

std::string reference_response(const std::string& text,
                               util::ThreadPool* pool) {
  try {
    const serve::Request request = serve::Request::parse(Json::parse(text));
    return serve::ok_response(request.id, serve::evaluate(request, pool));
  } catch (const std::exception& e) {
    return serve::error_response(Json(), "failed", e.what());
  }
}

double percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

Json metric(double value, const char* unit, const char* better) {
  Json::Object doc;
  doc["value"] = Json(value);
  doc["unit"] = Json(unit);
  doc["better"] = Json(better);
  return Json(std::move(doc));
}

std::size_t pool_width() {
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace mlck::bench_suite
