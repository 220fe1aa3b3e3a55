#include "app/telemetry.h"

#include <algorithm>
#include <chrono>
#include <ostream>
#include <thread>

#include "core/serialize.h"
#include "obs/exposition.h"

namespace mlck::app {

std::size_t pool_width(int threads) {
  if (threads > 0) return static_cast<std::size_t>(threads);
  return std::max(2u, std::thread::hardware_concurrency());
}

void apply_trials_and_seed(const util::Cli& cli, engine::ScenarioSpec& spec) {
  if (cli.has("trials")) {
    spec.trials = static_cast<std::size_t>(cli.get_int("trials"));
  }
  if (cli.has("seed")) spec.seed = cli.get_u64("seed");
}

util::Option law_option() {
  return {.name = "law",
          .kind = util::Option::kLaw,
          .check = [](const std::string& text) {
            (void)engine::DistributionSpec::parse(text);
          }};
}

std::optional<engine::DistributionSpec> law_flag(const util::Cli& cli) {
  const auto text = cli.value("law");
  if (!text) return std::nullopt;
  return engine::DistributionSpec::parse(*text);
}

std::vector<util::Option> telemetry_options() {
  using util::Option;
  return {{"metrics", Option::kOptionalPath},
          {"openmetrics", Option::kPath},
          {"timeline", Option::kPath},
          {"sample-period-ms", Option::kInt, "50", 1}};
}

TelemetryScope::TelemetryScope(const util::Cli& cli)
    : argv_(cli.raw_args()),
      metrics_path_(cli.value("metrics")),
      openmetrics_path_(cli.get_string("openmetrics")),
      timeline_path_(cli.get_string("timeline")),
      metrics_(registry_) {
  if (!timeline_path_.empty()) {
    obs::TelemetrySampler::Options options;
    options.period =
        std::chrono::milliseconds(cli.get_int("sample-period-ms"));
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
