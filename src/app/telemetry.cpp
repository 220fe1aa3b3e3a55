#include "app/telemetry.h"

#include <algorithm>
#include <chrono>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "core/serialize.h"
#include "obs/exposition.h"

namespace mlck::app {

namespace {

/// The value of --@p flag, which must carry a path when it is given.
std::string export_path(const util::Cli& cli, const char* flag,
                        const char* example) {
  const auto path = cli.value(flag);
  if (path && path->empty()) {
    throw std::out_of_range(std::string("--") + flag +
                            " requires a file path (--" + flag + "=" +
                            example + ")");
  }
  return path.value_or("");
}

}  // namespace

std::size_t pool_width(int threads) {
  if (threads > 0) return static_cast<std::size_t>(threads);
  return std::max(2u, std::thread::hardware_concurrency());
}

void apply_trials_and_seed(const util::Cli& cli, engine::ScenarioSpec& spec) {
  if (cli.has("trials")) {
    spec.trials = static_cast<std::size_t>(cli.get_int("trials", 0));
  }
  spec.seed = cli.get_u64("seed", spec.seed);
}

TelemetryScope::TelemetryScope(const util::Cli& cli)
    : argv_(cli.raw_args()),
      metrics_path_(cli.value("metrics")),
      openmetrics_path_(export_path(cli, "openmetrics", "out.txt")),
      timeline_path_(export_path(cli, "timeline", "out.jsonl")),
      metrics_(registry_) {
  if (!timeline_path_.empty()) {
    obs::TelemetrySampler::Options options;
    options.period = std::chrono::milliseconds(
        std::max(1, cli.get_int("sample-period-ms", 50)));
    sampler_ = std::make_unique<obs::TelemetrySampler>(registry_, options);
    sampler_->start();
  }
}

void TelemetryScope::flush(std::ostream& out) {
  if (sampler_) sampler_->stop();
  if (metrics_path_) {
    if (metrics_path_->empty()) {
      out << "\nmetrics\n";
      registry_.print(out);
    } else {
      core::write_file(*metrics_path_,
                       obs::sidecar_json(registry_, argv_).dump(2) + "\n");
      out << "metrics written to " << *metrics_path_ << "\n";
    }
  }
  if (!openmetrics_path_.empty()) {
    core::write_file(openmetrics_path_,
                     obs::openmetrics_text(registry_.snapshot()));
    out << "openmetrics written to " << openmetrics_path_ << "\n";
  }
  if (sampler_) {
    core::write_file(timeline_path_, obs::timeline_jsonl(*sampler_, argv_));
    out << "timeline written to " << timeline_path_ << " ("
        << sampler_->ticks() << " ticks)\n";
  }
}

}  // namespace mlck::app
