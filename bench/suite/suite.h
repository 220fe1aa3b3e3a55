#pragma once

// Shared pieces of mlck_bench (README.md in this directory): the workload
// table, the seeded request generator, and the small statistics helpers
// the runners share. The benchmark drives the program only from outside,
// through serve::Server, serve::Client, serve::evaluate and the public
// layer functions; nothing here is linked into mlck itself.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.h"
#include "util/thread_pool.h"

namespace mlck::bench_suite {

using Clock = std::chrono::steady_clock;

/// The daemon's plan-cache capacity in every served workload (the
/// default of `mlck serve`), and of the replay's cache.
constexpr std::size_t kCacheCapacity = 128;

/// Client connections of a served workload, one sender thread each:
/// sized for a 4-core host, never more than its cores.
constexpr std::size_t kConnections = 4;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One workload: what it sends, how, and why it is in the benchmark.
/// The numbers were set once, from the seed commit on a 4-vCPU Xeon
/// (README.md, "Calibration"), and are never re-derived: a later commit
/// is measured at the same offered load against the same limit.
struct WorkloadDef {
  const char* name;
  const char* why;
  bool served;        ///< through an in-process mlckd, else serve::evaluate
  double rate_rps;    ///< open-loop Poisson arrival rate (served only)
  double closed_rps;  ///< the seed's closed-loop throughput
  double limit_ms;    ///< latency limit behind slo_attainment
};

const std::vector<WorkloadDef>& workloads();
const WorkloadDef* find_workload(std::string_view name);

/// How long each phase measures. Served workloads run a fixed warm-up
/// list, an open-loop phase and a closed-loop phase; local_direct runs
/// one closed loop. The traced replay gets its own budget.
struct Phases {
  double open_s = 0.0;
  double closed_s = 0.0;
  double local_s = 0.0;
  double replay_s = 0.0;
  int setups = 5;  ///< set-up repetitions; setup_s is their median
};

/// A workload's seeded request stream. Every request is one of the
/// distinct request texts; the phases index into them, so a Zipf stream
/// over 96 keys stores 96 texts however many requests it sends.
struct Stream {
  std::vector<std::string> texts;
  std::vector<std::uint32_t> warmup;  ///< fixed warm-up list, in order
  std::vector<std::uint32_t> open;    ///< open-loop requests, in order
  std::vector<double> due_s;          ///< open-loop send offsets (Poisson)
  std::vector<std::uint32_t> closed;  ///< closed-loop requests, in order
  std::uint64_t hash = 0;             ///< FNV-1a over all of the above
};

/// Builds the stream of @p workload for @p seed. The same arguments give
/// the same stream, byte for byte.
Stream make_stream(const WorkloadDef& workload, std::uint64_t seed,
                   const Phases& phases);

/// @p count distinct positions of [0, @p n), chosen from @p seed: the
/// requests whose responses the identity gate checks after the timed
/// window.
std::vector<std::size_t> seeded_sample(std::size_t n, std::size_t count,
                                       std::uint64_t seed);

/// The identity gate's reference, and local_direct's whole answer: the
/// response serve::evaluate gives for @p text, in the daemon's envelope.
/// A failing request comes back as an error envelope.
std::string reference_response(const std::string& text,
                               util::ThreadPool* pool);

/// True when @p response is an ok envelope (requests carry no id, so
/// every ok response starts with the same bytes).
inline bool is_ok_response(std::string_view response) {
  return response.starts_with(R"({"id":null,"ok":true,)");
}

/// @p num / @p den, or 0 when there is nothing to divide by.
inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Nearest-rank percentile of @p values (sorted in place); 0 when empty.
double percentile(std::vector<double>& values, double q);
double mean(const std::vector<double>& values);

/// Metric entry of an artifact: {"value", "unit", "better"}.
util::Json metric(double value, const char* unit, const char* better);

/// Pool width of the daemon and of local_direct: the machine's cores.
std::size_t pool_width();

struct RunOptions {
  std::uint64_t seed = 1;
  Phases phases;
  bool trace = false;  ///< add the traced per-layer replay
  bool smoke = false;  ///< also assert the generator's invariants
  std::ostream* spans = nullptr;  ///< JSONL sink for the replay's spans
};

/// Runs one workload in this process; returns its result document
/// (README.md, "Artifact").
util::Json run_workload(const WorkloadDef& workload, const RunOptions& options);

/// The traced replay of one workload's stream (replay.cpp).
struct ReplayResult {
  util::Json layers;  ///< per-layer metrics, trace.* conservation checks
  std::size_t replayed = 0;     ///< requests replayed (each twice)
  std::size_t failed = 0;       ///< errors and byte mismatches
  double plain_mean_ms = 0.0;   ///< untraced mean wall per request
  double worst_unattributed = 0.0;  ///< largest per-request gap share
  std::size_t late_context_builds = 0;  ///< builds inside optimize
};

/// Replays @p stream's timed requests on one thread, twice each: once
/// through the daemon's own calls (serve::evaluate), once decomposed
/// into the public layer calls with a span around each. The two
/// responses must be byte-identical.
ReplayResult replay(const WorkloadDef& workload, const Stream& stream,
                    double seconds, std::ostream* spans);

}  // namespace mlck::bench_suite
