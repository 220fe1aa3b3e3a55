#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/scenario.h"
#include "obs/registry.h"
#include "obs/timeseries.h"
#include "util/cli.h"

namespace mlck::app {

/// The one pool rule of the CLI and the bench drivers: @p threads workers
/// when positive, else max(2, hardware concurrency). At least two: a
/// one-worker pool degrades to the sequential parallel_for path and would
/// leave every pool.* metric (and the per-worker trace tracks) at zero.
std::size_t pool_width(int threads);

/// The one rule for --trials and --seed on a scenario, shared by
/// `mlck scenario`, `mlck report` and the bench drivers: each flag
/// overrides @p spec only when it is given, and --seed keeps its full
/// 64-bit value. A malformed --seed throws std::out_of_range.
void apply_trials_and_seed(const util::Cli& cli, engine::ScenarioSpec& spec);

/// The one telemetry lifecycle. Telemetry is always on: the scope owns a
/// registry with the engine::ScenarioMetrics names registered up front,
/// so every sidecar has one shape. The flags only choose the outputs:
/// --metrics[=file.json] (sidecar, or tables without a path),
/// --openmetrics=file.txt and --timeline=file.jsonl. The scope runs an
/// obs::TelemetrySampler (--sample-period-ms, default 50) from
/// construction to flush() exactly when --timeline is given.
class TelemetryScope {
 public:
  /// Throws std::out_of_range when --openmetrics or --timeline has no
  /// path.
  explicit TelemetryScope(const util::Cli& cli);

  TelemetryScope(const TelemetryScope&) = delete;
  TelemetryScope& operator=(const TelemetryScope&) = delete;

  obs::MetricsRegistry& registry() noexcept { return registry_; }

  /// The standard scenario metric set, resolved against registry().
  engine::ScenarioMetrics& metrics() noexcept { return metrics_; }

  /// Stops the sampler, then writes the requested outputs in one fixed
  /// order — metrics, openmetrics, timeline — each with a notice line on
  /// @p out.
  void flush(std::ostream& out);

 private:
  std::vector<std::string> argv_;
  std::optional<std::string> metrics_path_;
  std::string openmetrics_path_;
  std::string timeline_path_;
  obs::MetricsRegistry registry_;
  engine::ScenarioMetrics metrics_;
  std::unique_ptr<obs::TelemetrySampler> sampler_;
};

}  // namespace mlck::app
