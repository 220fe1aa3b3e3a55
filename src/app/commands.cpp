#include "app/commands.h"
#include "app/telemetry.h"

#include <algorithm>
#include <csignal>
#include <iostream>
#include <memory>
#include <optional>

#include "core/adaptive.h"
#include "core/dauwe_model.h"
#include "engine/evaluation.h"
#include "engine/scenario.h"
#include "energy/power_model.h"
#include "exp/experiments.h"
#include "core/optimizer.h"
#include "core/serialize.h"
#include "models/registry.h"
#include "obs/attribution.h"
#include "obs/exposition.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/request.h"
#include "serve/server.h"
#include "sim/trial_runner.h"
#include "systems/test_systems.h"
#include "util/cli.h"
#include "util/socket.h"
#include "util/table.h"
#include "verify/selftest.h"

namespace mlck::app {

namespace {

using util::Cli;
using util::Option;
using util::Table;

sim::SimOptions parse_sim_options(const Cli& cli) {
  sim::SimOptions opts;
  const std::string policy = cli.get_string("policy");
  if (policy == "escalate") {
    opts.restart_policy = sim::RestartPolicy::kMoodyEscalate;
  } else if (policy != "retry") {
    throw std::out_of_range("unknown --policy (use retry|escalate)");
  }
  opts.take_final_checkpoint = cli.has("final-checkpoint");
  return opts;
}

systems::SystemConfig system_from(const Cli& cli) {
  const auto name = cli.value("system");
  if (!name) throw std::out_of_range("--system=<name|file.json> is required");
  return core::load_system(*name);
}

int cmd_systems(const Cli&, std::ostream& out, std::ostream&) {
  Table table({"name", "levels", "MTBF (min)", "base time (min)"});
  for (const auto& sys : systems::table1_systems()) {
    table.add_row({sys.name, std::to_string(sys.levels()),
                   Table::num(sys.mtbf, 2), Table::num(sys.base_time, 0)});
  }
  table.print(out);
  return 0;
}

int cmd_show(const Cli& cli, std::ostream& out, std::ostream&) {
  out << core::to_json(system_from(cli)).dump(2) << "\n";
  return 0;
}

/// The --plan=<file> document (required).
util::Json plan_document(const Cli& cli) {
  const auto plan_path = cli.value("plan");
  if (!plan_path) throw std::out_of_range("--plan=plan.json is required");
  return util::Json::parse(core::read_file(*plan_path));
}

/// The one optimize/predict request for the Dauwe technique or model.
/// `--connect` sends it to mlckd, and the local path answers it through
/// serve::evaluate, so the two routes agree by construction. The system
/// resolves here (Table I name or file) and travels inline.
util::Json dauwe_request(const Cli& cli, const std::string& op) {
  util::Json::Object request;
  request["op"] = util::Json(op);
  request["system"] = core::to_json(system_from(cli));
  if (const auto law = law_flag(cli)) {
    request["failure"] = law->to_json();
  }
  if (op == "predict") request["plan"] = plan_document(cli);
  return util::Json(std::move(request));
}

/// `--connect=<socket>`: sends the dauwe request for @p op to mlckd and
/// prints its answer.
int run_connected(const Cli& cli, const std::string& op,
                  const std::string& socket, std::ostream& out) {
  const char* chooser = op == "optimize" ? "technique" : "model";
  if (cli.get_string(chooser) != "dauwe") {
    throw std::out_of_range("--connect serves the dauwe " +
                            std::string(chooser) +
                            " only (the daemon's evaluation-engine "
                            "contract)");
  }
  serve::Client client(socket);
  const util::Json response = client.call(dauwe_request(cli, op));
  if (!response.at("ok").as_bool()) {
    const util::Json& error = response.at("error");
    throw std::runtime_error("daemon error [" +
                             error.at("code").as_string() + "]: " +
                             error.at("message").as_string());
  }
  const util::Json& result = response.at("result");
  const auto plan = core::plan_from_json(result.at("plan"));
  Table table({"field", "value"});
  table.add_row({"served by", socket});
  table.add_row({"plan", plan.to_string()});
  table.add_row({"expected time (min)",
                 Table::num(result.at("expected_time").as_number(), 2)});
  table.add_row({"efficiency",
                 Table::pct(result.at("efficiency").as_number())});
  table.print(out);
  const auto path = op == "optimize" ? cli.value("out") : std::nullopt;
  if (path) {
    core::write_file(*path, core::to_json(plan).dump(2) + "\n");
    out << "plan written to " << *path << "\n";
  }
  return 0;
}

/// The --law flag, which only the Dauwe model understands.
std::optional<engine::DistributionSpec> dauwe_law(const Cli& cli,
                                                  const std::string& model) {
  const auto law = law_flag(cli);
  if (law && model != "dauwe") {
    throw std::out_of_range("--law is supported for the dauwe model only");
  }
  return law;
}

int cmd_optimize(const Cli& cli, std::ostream& out, std::ostream&) {
  if (const auto socket = cli.value("connect")) {
    return run_connected(cli, "optimize", *socket, out);
  }
  const std::string technique_name = cli.get_string("technique");
  const auto law = dauwe_law(cli, technique_name);
  TelemetryScope telemetry(cli);
  util::ThreadPool pool(pool_width(0));
  pool.attach_metrics(engine::pool_metrics(telemetry.registry()));
  core::TechniqueResult result;
  if (technique_name == "dauwe") {
    const util::Json answer = serve::evaluate(
        serve::Request::parse(dauwe_request(cli, "optimize")), &pool,
        &telemetry.registry());
    result.technique = "Dauwe et al.";
    result.plan = core::plan_from_json(answer.at("plan"));
    result.predicted_time = answer.at("expected_time").as_number();
    result.predicted_efficiency = answer.at("efficiency").as_number();
  } else {
    engine::ScenarioSpec spec;
    spec.system = system_from(cli);
    spec.model = technique_name;
    result = engine::select_plan(spec, &pool);
  }
  Table table({"field", "value"});
  table.add_row({"technique", result.technique});
  if (law) table.add_row({"failure law", law->to_string()});
  table.add_row({"plan", result.plan.to_string()});
  table.add_row({"predicted time (min)",
                 Table::num(result.predicted_time, 2)});
  table.add_row({"predicted efficiency",
                 Table::pct(result.predicted_efficiency)});
  table.print(out);
  if (const auto path = cli.value("out")) {
    core::write_file(*path, core::to_json(result.plan).dump(2) + "\n");
    out << "plan written to " << *path << "\n";
  }
  telemetry.flush(out);
  return 0;
}

int cmd_predict(const Cli& cli, std::ostream& out, std::ostream&) {
  if (const auto socket = cli.value("connect")) {
    return run_connected(cli, "predict", *socket, out);
  }
  const std::string model_name = cli.get_string("model");
  const auto law = dauwe_law(cli, model_name);
  TelemetryScope telemetry(cli);
  core::CheckpointPlan plan;
  core::Prediction prediction;
  if (model_name == "dauwe") {
    const serve::Request request =
        serve::Request::parse(dauwe_request(cli, "predict"));
    plan = request.plan;
    const util::Json answer =
        serve::evaluate(request, nullptr, &telemetry.registry());
    prediction.expected_time = answer.at("expected_time").as_number();
    prediction.efficiency = answer.at("efficiency").as_number();
  } else {
    const auto system = system_from(cli);
    plan = core::plan_from_json(plan_document(cli));
    plan.validate(system);
    prediction = models::make_model(model_name)->predict(system, plan);
  }
  Table table({"field", "value"});
  table.add_row({"plan", plan.to_string()});
  if (law) table.add_row({"failure law", law->to_string()});
  table.add_row({"expected time (min)",
                 Table::num(prediction.expected_time, 2)});
  table.add_row({"efficiency", Table::pct(prediction.efficiency)});
  table.print(out);
  telemetry.flush(out);
  return 0;
}

int cmd_simulate(const Cli& cli, std::ostream& out, std::ostream&) {
  engine::ScenarioSpec spec;
  spec.system = system_from(cli);
  spec.model = cli.get_string("technique");
  spec.trials = static_cast<std::size_t>(cli.get_int("trials"));
  spec.seed = cli.get_u64("seed");
  spec.sim = parse_sim_options(cli);
  if (const auto law = law_flag(cli)) spec.distribution = *law;
  const auto& system = spec.system;
  util::ThreadPool pool(pool_width(0));

  // Interval-based schedules bypass the pattern plumbing entirely.
  if (const auto schedule_path = cli.value("intervals")) {
    const auto schedule = core::interval_schedule_from_json(
        util::Json::parse(core::read_file(*schedule_path)));
    const auto interval_stats = engine::simulate_plan(
        spec, sim::CompiledSchedule::from_schedule(system, schedule), &pool);
    Table t({"metric", "value"});
    t.add_row({"schedule", schedule.to_string()});
    t.add_row({"efficiency mean",
               Table::pct(interval_stats.efficiency.mean)});
    t.add_row({"efficiency stddev",
               Table::pct(interval_stats.efficiency.stddev)});
    t.print(out);
    return 0;
  }

  core::CheckpointPlan plan;
  if (const auto plan_path = cli.value("plan")) {
    plan = core::plan_from_json(
        util::Json::parse(core::read_file(*plan_path)));
  } else {
    plan = engine::select_plan(spec, &pool).plan;
  }
  plan.validate(system);
  // Horizon-aware wrapper (Sec. IV-F generalized) or the plan itself.
  const sim::TrialStats stats = engine::simulate_plan(
      spec,
      cli.has("adaptive")
          ? sim::CompiledSchedule::from_adaptive(
                system, core::make_adaptive(system, plan))
          : sim::CompiledSchedule::from_plan(system, plan),
      &pool);

  Table table({"metric", "value"});
  table.add_row({"plan", plan.to_string()});
  table.add_row({"trials", std::to_string(spec.trials)});
  table.add_row({"efficiency mean", Table::pct(stats.efficiency.mean)});
  table.add_row({"efficiency stddev", Table::pct(stats.efficiency.stddev)});
  table.add_row({"95% CI half-width",
                 Table::pct(stats.efficiency.ci95_halfwidth(), 2)});
  table.add_row({"total time mean (min)",
                 Table::num(stats.total_time.mean, 1)});
  table.add_row({"mean failures/run", Table::num(stats.mean_failures, 1)});
  table.add_row({"capped trials", std::to_string(stats.capped_trials)});
  table.print(out);

  out << "\ntime shares\n";
  Table shares({"bucket", "share"});
  const auto& s = stats.time_shares;
  shares.add_row({"useful work", Table::pct(s.useful)});
  shares.add_row({"checkpoints ok", Table::pct(s.checkpoint_ok)});
  shares.add_row({"checkpoints failed", Table::pct(s.checkpoint_failed)});
  shares.add_row({"restarts ok", Table::pct(s.restart_ok)});
  shares.add_row({"restarts failed", Table::pct(s.restart_failed)});
  shares.add_row({"rework (compute)", Table::pct(s.rework_compute)});
  shares.add_row({"rework (checkpoint)", Table::pct(s.rework_checkpoint)});
  shares.add_row({"rework (restart)", Table::pct(s.rework_restart)});
  shares.print(out);
  return 0;
}

int cmd_compare(const Cli& cli, std::ostream& out, std::ostream&) {
  engine::ScenarioSpec spec;
  spec.system = system_from(cli);
  spec.trials = static_cast<std::size_t>(cli.get_int("trials"));
  spec.seed = cli.get_u64("seed");
  if (const auto law = law_flag(cli)) spec.distribution = *law;
  Table table({"technique", "plan", "sim eff", "sd", "predicted",
               "pred err"});
  const auto result =
      exp::compare_models(spec, spec.system.name, exp::kAllModels);
  for (const auto& o : result.outcomes) {
    table.add_row({o.selected.technique, o.selected.plan.to_string(),
                   Table::pct(o.stats.efficiency.mean),
                   Table::pct(o.stats.efficiency.stddev),
                   Table::pct(o.selected.predicted_efficiency),
                   Table::pct(o.prediction_error(), 2)});
  }
  table.print(out);
  return 0;
}

int cmd_sensitivity(const Cli& cli, std::ostream& out, std::ostream&) {
  // How sharply does expected efficiency fall off around the selected
  // computation interval? (Daly's classic observation: the optimum is
  // flat, so interval estimates can be rough. The sweep quantifies how
  // flat, per system.) The tau variants share one cached evaluation
  // context.
  engine::ScenarioSpec spec;
  spec.system = system_from(cli);
  spec.model = cli.get_string("technique");
  if (const auto law = law_flag(cli)) spec.distribution = *law;
  const auto& system = spec.system;
  const auto selected = engine::select_plan(spec);
  const engine::EvaluationEngine eng = spec.make_engine();

  static constexpr double kFactors[] = {0.25, 0.5, 0.7, 0.85, 1.0,
                                        1.2,  1.5, 2.0, 4.0};
  std::vector<core::CheckpointPlan> variants;
  core::CheckpointPlan reference = selected.plan;
  variants.push_back(reference);
  for (const double factor : kFactors) {
    core::CheckpointPlan plan = selected.plan;
    plan.tau0 = selected.plan.tau0 * factor;
    variants.push_back(plan);
  }
  std::vector<double> times;
  for (const auto& plan : variants) times.push_back(eng.expected_time(plan));
  const double best = system.base_time / times[0];

  Table table({"tau0 factor", "tau0 (min)", "predicted eff",
               "vs optimum"});
  for (std::size_t i = 0; i < std::size(kFactors); ++i) {
    const double eff = system.base_time / times[i + 1];
    table.add_row({Table::num(kFactors[i], 2),
                   Table::num(variants[i + 1].tau0, 3), Table::pct(eff),
                   Table::pct(eff - best, 2)});
  }
  out << "plan " << selected.plan.to_string() << "\n";
  table.print(out);
  return 0;
}

int cmd_scenario(const Cli& cli, std::ostream& out, std::ostream& err) {
  // Emit mode: write a complete spec document for a system to start from.
  if (const auto emit = cli.value("emit-spec")) {
    engine::ScenarioSpec spec;
    const auto name = cli.value("system");
    if (!name) {
      throw std::out_of_range(
          "--system=<name|file.json> is required with --emit-spec");
    }
    spec.system = core::load_system(*name);
    // Table I names round-trip as references, files as inline documents.
    if (spec.system.name == *name) spec.system_ref = *name;
    const std::string text = spec.to_json().dump(2) + "\n";
    if (emit->empty()) {
      out << text;
    } else {
      core::write_file(*emit, text);
      out << "scenario spec written to " << *emit << "\n";
    }
    return 0;
  }

  const auto spec_path = cli.value("spec");
  if (!spec_path) {
    throw std::out_of_range(
        "--spec=scenario.json is required (or --emit-spec)");
  }
  engine::ScenarioSpec spec = engine::ScenarioSpec::load(*spec_path);
  // Flag-vs-spec precedence: --law overrides the spec's "failure" section
  // (the flag is the more specific, per-invocation intent). The override
  // is announced on stderr so a spec whose failure law silently stops
  // mattering is never a surprise.
  if (const auto flag_law = law_flag(cli)) {
    err << "[mlck] --law=" << flag_law->to_string()
        << " takes precedence over the scenario spec's failure "
           "section (spec: "
        << spec.distribution.to_string() << ")\n";
    spec.distribution = *flag_law;
  }
  apply_trials_and_seed(cli, spec);
  const auto trace_path = cli.value("trace");
  TelemetryScope telemetry(cli);
  util::ThreadPool pool(pool_width(cli.get_int("threads")));
  pool.attach_metrics(engine::pool_metrics(telemetry.registry()));
  std::unique_ptr<obs::TraceSink> sink;
  sim::TrialTraceCapture capture;
  if (trace_path) {
    sink = std::make_unique<obs::TraceSink>();
    sink->name_current_thread("main");
    pool.attach_trace(sink.get());
    capture.max_trials =
        static_cast<std::size_t>(cli.get_int("trace-trials"));
    spec.sim.capture = &capture;
  }

  const auto outcome =
      engine::run_scenario(spec, &pool, &telemetry.registry(), sink.get());
  const auto law = spec.distribution.make(spec.system);
  Table table({"field", "value"});
  table.add_row({"system", spec.system.name});
  table.add_row({"technique", outcome.selected.technique});
  table.add_row({"failure law", law->describe()});
  table.add_row({"plan", outcome.selected.plan.to_string()});
  table.add_row({"predicted time (min)",
                 Table::num(outcome.selected.predicted_time, 2)});
  table.add_row({"predicted efficiency",
                 Table::pct(outcome.selected.predicted_efficiency)});
  table.add_row({"trials", std::to_string(spec.trials)});
  table.add_row({"sim efficiency mean",
                 Table::pct(outcome.stats.efficiency.mean)});
  table.add_row({"sim efficiency stddev",
                 Table::pct(outcome.stats.efficiency.stddev)});
  table.add_row({"prediction error",
                 Table::pct(outcome.prediction_error(), 2)});
  table.print(out);
  if (const auto path = cli.value("out")) {
    core::write_file(*path,
                     core::to_json(outcome.selected.plan).dump(2) + "\n");
    out << "plan written to " << *path << "\n";
  }
  telemetry.flush(out);
  if (sink) {
    core::write_file(
        *trace_path,
        obs::chrome_trace_json(sink.get(), &capture).dump(2) + "\n");
    out << "trace written to " << *trace_path << " (" << sink->size()
        << " host spans, " << capture.trials.size()
        << " captured trials)\n";
  }
  return 0;
}

int cmd_energy(const Cli& cli, std::ostream& out, std::ostream&) {
  engine::ScenarioSpec spec;
  spec.system = system_from(cli);
  if (const auto law = law_flag(cli)) spec.distribution = *law;
  const auto& system = spec.system;
  energy::PowerModel power;
  power.checkpoint = cli.get_double("checkpoint-power");
  power.restart = cli.get_double("restart-power");
  power.validate();
  const auto trials = static_cast<std::size_t>(cli.get_int("trials"));
  const auto seed = cli.get_u64("seed");
  const core::DauweModel base({}, spec.distribution.family());
  const auto law = engine::sampling_law(spec);

  Table table({"objective", "plan", "sim eff", "sim energy/run"});
  struct Variant {
    const char* label;
    energy::Objective objective;
  };
  for (const Variant& v :
       {Variant{"time", energy::Objective::kTime},
        Variant{"energy", energy::Objective::kEnergy},
        Variant{"EDP", energy::Objective::kEdp}}) {
    const energy::EnergyObjectiveModel objective(base, power, v.objective);
    const auto best = core::optimize_intervals(objective, system);
    const auto stats = sim::run_trials(
        system, sim::CompiledSchedule::from_plan(system, best.plan),
        law.get(), trials, seed);
    sim::SimBreakdown shares = stats.time_shares;
    table.add_row({v.label, best.plan.to_string(),
                   Table::pct(stats.efficiency.mean),
                   Table::num(power.energy(shares) * stats.total_time.mean,
                              1)});
  }
  table.print(out);
  out << "(power draws: compute 1.0, checkpoint " << power.checkpoint
      << ", restart " << power.restart << ")\n";
  return 0;
}

int cmd_trace(const Cli& cli, std::ostream& out, std::ostream&) {
  const auto system = system_from(cli);
  const auto seed = cli.get_u64("seed");
  const auto max_events = static_cast<std::size_t>(cli.get_int("max-events"));
  const auto trials = static_cast<std::size_t>(cli.get_int("trials"));
  const std::string format = cli.get_string("format");
  if (format != "table" && format != "chrome" && format != "jsonl") {
    throw std::out_of_range("unknown --format (use table|chrome|jsonl)");
  }
  engine::ScenarioSpec spec;
  spec.system = system;
  spec.trials = trials;
  spec.seed = seed;
  spec.sim = parse_sim_options(cli);
  if (const auto law = law_flag(cli)) spec.distribution = *law;
  const auto selected = engine::select_plan(spec);
  const auto schedule = sim::CompiledSchedule::from_plan(system, selected.plan);

  // The standard sim.* counters are recorded by the multi-trial runner's
  // aggregation loop, so the single-trial path (--trials=1, which calls
  // simulate() directly) reports them at zero.
  TelemetryScope telemetry(cli);
  spec.sim.metrics = &telemetry.metrics().sim;

  sim::TrialTraceCapture capture;
  if (trials == 1) {
    // Single-trial path: the seed drives the failure stream directly
    // (unchanged from when `trace` only did one trial, so seeds keep
    // reproducing the same timelines).
    capture.max_trials = 1;
    capture.trials.resize(1);
    sim::SimOptions opts = spec.sim;
    opts.trace = &capture.trials[0].events;
    const auto law = engine::sampling_law(spec);
    std::unique_ptr<sim::FailureSource> failures;
    if (law) {
      failures = std::make_unique<sim::RenewalFailureSource>(
          system, *law, util::Rng(seed));
    } else {
      failures =
          std::make_unique<sim::RandomFailureSource>(system, util::Rng(seed));
    }
    capture.trials[0].result =
        sim::simulate(system, schedule, *failures, opts);
  } else {
    // Monte-Carlo batch: trial k's stream is seeded with
    // derive_stream_seed(seed, k), matching `mlck simulate`.
    capture.max_trials = trials;
    spec.sim.capture = &capture;
    engine::simulate_plan(spec, schedule);
  }

  int code = 0;
  if (cli.has("audit")) {
    for (const auto& trial : capture.trials) {
      const auto report =
          obs::audit_trial_trace(system, trial.result, trial.events);
      if (report.ok()) {
        out << "trial " << trial.trial << ": audit ok ("
            << trial.events.size()
            << " events tile [0, total_time]; breakdown reconstructed "
               "bit-for-bit)\n";
      } else {
        code = 1;
        out << "trial " << trial.trial << ": audit FAILED\n";
        for (const auto& error : report.errors) {
          out << "  " << error << "\n";
        }
      }
    }
  }

  if (format != "table") {
    const std::string text =
        format == "chrome"
            ? obs::chrome_trace_json(nullptr, &capture).dump(2) + "\n"
            : obs::trace_jsonl(nullptr, &capture);
    if (const auto path = cli.value("out")) {
      core::write_file(*path, text);
      out << "trace written to " << *path << "\n";
    } else {
      out << text;
    }
    telemetry.flush(out);
    return code;
  }

  const auto& trace = capture.trials[0].events;
  const auto& result = capture.trials[0].result;
  out << "plan " << selected.plan.to_string() << "\n";
  Table table({"t (min)", "event", "level", "duration", "outcome"});
  const char* names[] = {"compute", "checkpoint", "restart",
                         "scratch-restart"};
  for (std::size_t i = 0; i < trace.size() && i < max_events; ++i) {
    const auto& ev = trace[i];
    std::string level_cell = "-";
    if (ev.system_level >= 0) {
      level_cell = "L";
      level_cell += std::to_string(ev.system_level + 1);
    }
    const std::string outcome = [&]() -> std::string {
      if (ev.completed) return "ok";
      if (ev.truncated_by_cap) {
        return "capped";  // truncated at the time cap, no failure
      }
      return "failed (severity " +
             std::to_string(ev.failure_severity + 1) + ")";
    }();
    table.add_row({Table::num(ev.start, 2),
                   names[static_cast<int>(ev.kind)], level_cell,
                   Table::num(ev.end - ev.start, 2), outcome});
  }
  table.print(out);
  out << "total " << Table::num(result.total_time, 1) << " min, efficiency "
      << Table::pct(result.efficiency()) << ", " << trace.size()
      << " events\n";
  telemetry.flush(out);
  return code;
}

int cmd_report(const Cli& cli, std::ostream& out, std::ostream&) {
  // Runs a scenario with a trace sink attached, then joins span durations
  // with the per-phase counters into the cost-attribution table. The run
  // itself is bit-identical to `mlck scenario` on the same spec
  // (instrumentation is observe-only).
  const auto spec_path = cli.value("spec");
  if (!spec_path) throw std::out_of_range("--spec=scenario.json is required");
  engine::ScenarioSpec spec = engine::ScenarioSpec::load(*spec_path);
  apply_trials_and_seed(cli, spec);

  TelemetryScope telemetry(cli);
  obs::TraceSink sink;
  sink.name_current_thread("main");
  util::ThreadPool pool(pool_width(cli.get_int("threads")));
  pool.attach_metrics(engine::pool_metrics(telemetry.registry()));
  pool.attach_trace(&sink);
  const auto outcome =
      engine::run_scenario(spec, &pool, &telemetry.registry(), &sink);

  const obs::RegistrySnapshot snapshot = telemetry.registry().snapshot();
  const auto phases = obs::attribute_costs(sink.events(), snapshot);
  out << "cost attribution (" << sink.size() << " spans)\n";
  obs::print_attribution(out, phases);
  out << "plan " << outcome.selected.plan.to_string()
      << ", sim efficiency " << Table::pct(outcome.stats.efficiency.mean)
      << "\n";

  if (const auto path = cli.value("json")) {
    util::Json doc = obs::attribution_json(phases);
    doc.make_object()["meta"] =
        obs::sidecar_meta(cli.raw_args(), snapshot.metric_count());
    core::write_file(*path, doc.dump(2) + "\n");
    out << "report written to " << *path << "\n";
  }
  telemetry.flush(out);
  return 0;
}

/// One `--laws=` pool entry as a VerifyLaw. Entries use the DistributionSpec
/// family grammar ("weibull:shape=0.7"); mean/scale make no sense for a
/// verification pool (the harness resolves time scales per generated
/// system) and are rejected.
verify::VerifyLaw to_verify_law(const engine::DistributionSpec& spec) {
  if (spec.mean > 0.0 || spec.scale > 0.0) {
    throw std::out_of_range(
        "--laws entries name law families; mean/scale are not allowed");
  }
  switch (spec.kind) {
    case engine::DistributionSpec::Kind::kWeibull:
      return verify::weibull_verify_law(spec.shape);
    case engine::DistributionSpec::Kind::kLogNormal:
      return verify::lognormal_verify_law(spec.sigma);
    case engine::DistributionSpec::Kind::kExponential:
      break;
  }
  return verify::exponential_verify_law();
}

/// Parses `--laws=all` or a '+'-separated pool ("exponential+weibull:
/// shape=0.5+lognormal"). '+' separates entries because ',' already
/// separates parameters inside one entry.
std::vector<verify::VerifyLaw> parse_law_pool(const std::string& text) {
  if (text == "all") return verify::all_verify_laws();
  std::vector<verify::VerifyLaw> pool;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t sep = text.find('+', start);
    const std::size_t end = sep == std::string::npos ? text.size() : sep;
    const std::string entry = text.substr(start, end - start);
    if (entry.empty()) {
      throw std::out_of_range("--laws: empty pool entry in \"" + text + "\"");
    }
    pool.push_back(to_verify_law(engine::DistributionSpec::parse(entry)));
    if (sep == std::string::npos) break;
    start = sep + 1;
  }
  return pool;
}

int cmd_selftest(const Cli& cli, std::ostream& out, std::ostream&) {
  verify::SelftestOptions options;
  options.cases = static_cast<std::size_t>(cli.get_int("cases"));
  options.seed = cli.get_u64("seed");
  if (cli.has("case")) {
    options.only_case = cli.get_int("case");
    if (options.only_case >= static_cast<long long>(options.cases)) {
      throw std::out_of_range("--case must be below --cases");
    }
  }
  options.trials = static_cast<std::size_t>(cli.get_int("trials"));
  options.welch_systems =
      static_cast<std::size_t>(cli.get_int("welch-systems"));
  options.alpha = cli.get_double("alpha");
  options.welch_gating = cli.has("welch-gate");
  if (const auto laws = cli.value("laws")) {
    options.laws_flag = *laws;
    options.generator.laws = parse_law_pool(*laws);
  }

  std::unique_ptr<util::ThreadPool> pool;
  if (const int threads = cli.get_int("threads"); threads > 0) {
    pool = std::make_unique<util::ThreadPool>(
        static_cast<std::size_t>(threads));
  }
  const verify::SelftestReport report =
      verify::run_selftest(options, pool.get(), &out);
  if (const auto path = cli.value("out")) {
    core::write_file(*path, report.to_json().dump(2) + "\n");
    out << "report written to " << *path << "\n";
  }
  out << (report.passed() ? "selftest PASSED" : "selftest FAILED") << "\n";
  return report.passed() ? 0 : 1;
}

/// Self-pipe target for the daemon's SIGINT/SIGTERM handler. Only
/// cmd_serve installs the handler, and it clears the pointer before the
/// pipe dies.
util::Pipe* g_serve_signal_pipe = nullptr;

void serve_signal_handler(int) {
  if (g_serve_signal_pipe != nullptr) g_serve_signal_pipe->poke();
}

int cmd_serve(const Cli& cli, std::ostream& out, std::ostream&) {
  const auto socket = cli.value("socket");
  if (!socket) throw std::out_of_range("--socket=<path> is required");
  serve::ServerOptions options;
  options.socket_path = *socket;
  options.threads = static_cast<std::size_t>(cli.get_int("threads"));
  options.queue_limit = static_cast<std::size_t>(cli.get_int("queue-limit"));
  options.cache_capacity =
      static_cast<std::size_t>(cli.get_int("cache-capacity"));

  TelemetryScope telemetry(cli);
  options.registry = &telemetry.registry();

  // Self-pipe signal handling: the handler only writes a byte, the serve
  // loop below does all real work on the main thread.
  util::Pipe signal_pipe;
  g_serve_signal_pipe = &signal_pipe;
  struct sigaction action = {};
  action.sa_handler = serve_signal_handler;
  struct sigaction old_int = {};
  struct sigaction old_term = {};
  sigaction(SIGINT, &action, &old_int);
  sigaction(SIGTERM, &action, &old_term);

  int code = 0;
  try {
    serve::Server server(options);
    out << "mlckd listening on " << server.socket_path() << "\n"
        << std::flush;
    // Park until either a signal or a client's `shutdown` op.
    (void)util::wait_either_readable(signal_pipe.read_fd(),
                                     server.stop_event_fd());
    out << "mlckd draining\n" << std::flush;
    server.stop();
  } catch (...) {
    sigaction(SIGINT, &old_int, nullptr);
    sigaction(SIGTERM, &old_term, nullptr);
    g_serve_signal_pipe = nullptr;
    throw;
  }
  sigaction(SIGINT, &old_int, nullptr);
  sigaction(SIGTERM, &old_term, nullptr);
  g_serve_signal_pipe = nullptr;

  telemetry.flush(out);
  out << "mlckd stopped\n";
  return code;
}

/// The options a command declares, plus the shared telemetry set.
std::vector<Option> with_telemetry(std::vector<Option> options) {
  for (Option& o : telemetry_options()) options.push_back(std::move(o));
  return options;
}

struct Command {
  const char* name;
  int (*run)(const Cli&, std::ostream& out, std::ostream& err);
  std::vector<Option> options;
};

/// Every command with its declared options: the one place a flag, its
/// value kind and its default are written down.
const std::vector<Command>& commands() {
  static const std::vector<Command> table = [] {
    const Option system{.name = "system", .kind = Option::kText,
                        .meta = "name|file.json"};
    const Option threads{"threads", Option::kInt, "0", 0, 1024};
    const Option out{"out", Option::kPath};
    const Option connect{"connect", Option::kPath};
    const Option law = law_option();
    const Option final_checkpoint{"final-checkpoint", Option::kFlag};
    const auto trials = [](const char* fallback) {
      return Option{"trials", Option::kInt, fallback, 1};
    };
    const auto seed = [](const char* fallback) {
      return Option{"seed", Option::kU64, fallback};
    };
    const auto text = [](const char* name, const char* fallback) {
      return Option{name, Option::kText, fallback};
    };
    return std::vector<Command>{
        {"systems", cmd_systems, {}},
        {"show", cmd_show, {system}},
        {"optimize", cmd_optimize,
         with_telemetry(
             {system, text("technique", "dauwe"), out, connect, law})},
        {"predict", cmd_predict,
         with_telemetry({system, {"plan", Option::kPath},
                         text("model", "dauwe"), connect, law})},
        {"simulate", cmd_simulate,
         {system, text("technique", "dauwe"), {"plan", Option::kPath},
          {"intervals", Option::kPath}, {"adaptive", Option::kFlag},
          trials("200"), seed("1"), text("policy", "retry"), final_checkpoint,
          law}},
        {"compare", cmd_compare, {system, trials("100"), seed("1"), law}},
        {"energy", cmd_energy,
         {system, {"checkpoint-power", Option::kNumber, "0.7"},
          {"restart-power", Option::kNumber, "0.6"}, trials("100"), seed("1"),
          law}},
        {"sensitivity", cmd_sensitivity,
         {system, text("technique", "dauwe"), law}},
        {"trace", cmd_trace,
         with_telemetry({system, seed("4"),
                         {"max-events", Option::kInt, "40"}, trials("1"),
                         text("format", "table"), text("policy", "retry"),
                         final_checkpoint, {"audit", Option::kFlag}, out,
                         law})},
        {"scenario", cmd_scenario,
         with_telemetry({{"spec", Option::kPath},
                         {"emit-spec", Option::kOptionalPath}, system, law,
                         trials(""), seed(""), threads, out,
                         {"trace", Option::kPath},
                         {"trace-trials", Option::kInt, "8"}})},
        {"report", cmd_report,
         with_telemetry({{"spec", Option::kPath}, trials(""), seed(""), threads,
                         {"json", Option::kPath}})},
        {"selftest", cmd_selftest,
         {{"cases", Option::kInt, "200", 1}, seed("42"),
          {"case", Option::kInt}, trials("600"),
          {"welch-systems", Option::kInt, "8"},
          {"alpha", Option::kNumber, "0.01"}, {"welch-gate", Option::kFlag},
          {.name = "laws", .kind = Option::kText, .meta = "all|law+law..."},
          threads, out}},
        {"serve", cmd_serve,
         with_telemetry({{"socket", Option::kPath}, threads,
                         {"queue-limit", Option::kInt, "64", 1},
                         {"cache-capacity", Option::kInt, "128"}})},
    };
  }();
  return table;
}

std::string synopsis(const Command& command) {
  return Cli::synopsis(std::string("mlck ") + command.name, command.options);
}

}  // namespace

std::string usage() {
  std::string text;
  for (const Command& command : commands()) text += synopsis(command);
  return text;
}

int run_command(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err) {
  if (args.empty()) {
    err << usage();
    return 2;
  }
  const auto command = std::find_if(
      commands().begin(), commands().end(),
      [&](const Command& c) { return args[0] == c.name; });
  if (command == commands().end()) {
    err << "unknown command: " << args[0] << "\n" << usage();
    return 2;
  }
  // argv keeps the command token so Cli::raw_args() reproduces the full
  // invocation for the artifact `meta` sections; options start after it.
  std::vector<const char*> argv{"mlck"};
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  try {
    const Cli cli(static_cast<int>(argv.size()), argv.data(),
                  command->options, 2);
    return command->run(cli, out, err);
  } catch (const std::out_of_range& e) {
    err << "error: " << e.what() << "\n" << synopsis(*command);
    return 2;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace mlck::app
