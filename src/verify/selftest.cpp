#include "verify/selftest.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/dauwe_model.h"
#include "engine/evaluation.h"
#include "sim/trial_runner.h"
#include "stats/hypothesis.h"
#include "util/rng.h"

namespace mlck::verify {

namespace {

/// Stream offset separating Welch-system seeds from invariant-case seeds
/// in the derive_stream_seed(base_seed, stream) space.
constexpr std::uint64_t kWelchStreamBase = 1ull << 32;

std::string hex_seed(std::uint64_t seed) {
  std::ostringstream out;
  out << "0x" << std::hex << seed;
  return out.str();
}

std::string repro_command(const SelftestOptions& options, std::size_t index) {
  std::ostringstream out;
  out << "mlck selftest --seed=" << options.seed
      << " --cases=" << options.cases << " --case=" << index;
  // A law pool changes what each case *is* (the law is part of the draw),
  // so the replay must carry the same pool.
  if (!options.laws_flag.empty()) out << " --laws=" << options.laws_flag;
  return out.str();
}

void record(SelftestReport& report, const SelftestOptions& options,
            const VerifyCase& c, const char* phase, CheckResult result,
            std::ostream* log) {
  report.max_oracle_error = std::max(report.max_oracle_error, result.max_error);
  for (auto& failure : result.failures) {
    SelftestFailure f;
    f.phase = phase;
    f.case_index = c.index;
    f.case_seed = c.seed;
    f.check = std::move(failure.check);
    f.detail = std::move(failure.detail);
    f.repro = repro_command(options, c.index);
    if (log != nullptr) {
      *log << "FAIL [" << f.phase << "] case " << f.case_index << " seed "
           << hex_seed(f.case_seed) << ": " << f.check << " — " << f.detail
           << "\n  replay: " << f.repro << "\n";
    }
    report.failures.push_back(std::move(f));
  }
}

void run_invariant_cases(const SelftestOptions& options, SelftestReport& report,
                         std::ostream* log) {
  const std::size_t first =
      options.only_case >= 0 ? static_cast<std::size_t>(options.only_case) : 0;
  const std::size_t last = options.only_case >= 0 ? first + 1 : options.cases;
  for (std::size_t i = first; i < last && i < options.cases; ++i) {
    const VerifyCase c = make_case(options.seed, i, options.generator);
    ++report.cases_run;

    record(report, options, c, "oracle",
           check_oracle_agreement(c, options.tolerance), log);
    ++report.oracle_checked;
    record(report, options, c, "bit_identity", check_bit_identity(c), log);
    ++report.bit_identity_checked;
    record(report, options, c, "metamorphic", check_metamorphic(c), log);
    ++report.metamorphic_checked;
    if (options.dominance_stride > 0 && i % options.dominance_stride == 0) {
      core::OptimizerOptions grid;
      grid.coarse_tau_points = 12;
      grid.max_count = 8;
      grid.refine_rounds = 3;
      record(report, options, c, "dominance",
             check_optimizer_dominance(c, grid), log);
      ++report.dominance_checked;
    }
  }
}

void run_welch_validation(const SelftestOptions& options,
                          SelftestReport& report, util::ThreadPool* pool,
                          std::ostream* log) {
  // Gentler bounds than the invariant stream: the simulator walks every
  // failure event, so systems with minutes-scale MTBF and hours-scale
  // runs would dominate wall-clock without sharpening the test.
  GeneratorOptions gen = options.generator;
  gen.mtbf_min = std::max(gen.mtbf_min, 200.0);
  gen.cost_min = std::max(gen.cost_min, 0.05);
  gen.base_max = std::min(gen.base_max, 2000.0);

  // Every system is validated under every law of the pool: the model
  // re-optimizes per law, and the simulator draws the matching renewal
  // inter-arrivals. The exponential arm runs the exact pre-pool code path
  // (native Poisson source, same seeds), so default reports are stable.
  std::vector<VerifyLaw> laws = options.generator.laws;
  if (laws.empty()) laws.push_back(exponential_verify_law());
  for (const VerifyLaw& law : laws) report.welch_rejections_by_law[law.name];

  for (std::size_t i = 0; i < options.welch_systems; ++i) {
    const std::uint64_t seed =
        util::derive_stream_seed(options.seed, kWelchStreamBase + i);
    util::Rng rng(seed);
    const systems::SystemConfig system = random_system(rng, gen);

    for (const VerifyLaw& law : laws) {
      WelchValidation v;
      v.index = i;
      v.seed = seed;
      v.law = law.name;
      v.rel_tolerance = law.welch_rel_tolerance;
      v.levels = system.levels();
      v.mtbf = system.mtbf;
      v.base_time = system.base_time;

      const engine::EvaluationEngine engine(system, {}, law.family);
      core::OptimizerOptions opt;
      opt.coarse_tau_points = 24;
      opt.max_count = 16;
      opt.refine_rounds = 8;
      core::OptimizationResult best;
      try {
        best = engine.optimize(opt, pool);
      } catch (const std::runtime_error&) {
        v.skipped = true;
        v.skip_reason = "no feasible plan under the search grid";
        report.welch.push_back(std::move(v));
        continue;
      }
      v.plan = best.plan.to_string();
      v.predicted_time = best.expected_time;
      if (best.efficiency < 0.05) {
        v.skipped = true;
        v.skip_reason = "predicted efficiency below 0.05 (cap regime)";
        report.welch.push_back(std::move(v));
        continue;
      }

      sim::SimOptions sim_options;
      sim_options.max_time_factor = 50.0;
      const std::uint64_t sim_seed = util::derive_stream_seed(seed, 1);
      const auto interarrival = law.family == nullptr
                                    ? nullptr
                                    : law.family->distribution(system.mtbf);
      const sim::TrialStats stats = sim::run_trials(
          system, sim::CompiledSchedule::from_plan(system, best.plan),
          interarrival.get(), options.trials, sim_seed, sim_options, pool);
      v.sim_mean = stats.total_time.mean;
      v.sim_stddev = stats.total_time.stddev;
      v.trials = stats.trials;
      v.capped_trials = stats.capped_trials;
      if (stats.capped_trials > 0) {
        v.skipped = true;
        v.skip_reason = "capped trials would bias the sample mean";
        report.welch.push_back(std::move(v));
        continue;
      }

      // One-sample z test in Welch clothing: the model arm is a
      // zero-variance "sample" at the predicted mean, so the pooled
      // standard error reduces to the simulator's.
      stats::Summary model_arm;
      model_arm.count = stats.trials;
      model_arm.mean = v.predicted_time;
      model_arm.min = v.predicted_time;
      model_arm.max = v.predicted_time;
      const stats::WelchResult welch =
          stats::welch_test(model_arm, stats.total_time);
      v.statistic = welch.statistic;
      v.p_two_sided = welch.p_two_sided;
      v.significant = welch.significant(options.alpha);
      v.rel_gap = v.sim_mean > 0.0
                      ? std::abs(v.predicted_time - v.sim_mean) / v.sim_mean
                      : 0.0;
      // Non-exponential laws: the simulator thins one renewal process by
      // severity while the model composes per-severity family members, so
      // a statistically resolvable (trials grow, band shrinks) yet small
      // gap is expected of a correct implementation. The law's equivalence
      // margin absorbs it; docs/MODELS.md documents the measured gaps.
      v.rejected = v.significant && v.rel_gap > v.rel_tolerance;
      if (v.rejected) {
        ++report.welch_rejections;
        ++report.welch_rejections_by_law[law.name];
        if (log != nullptr) {
          *log << (options.welch_gating ? "FAIL" : "NOTE")
               << " [welch] system " << i << " law " << law.name << " seed "
               << hex_seed(seed) << ": model " << v.predicted_time
               << " vs sim " << v.sim_mean << " +- " << v.sim_stddev
               << " (p=" << v.p_two_sided << ", gap "
               << 100.0 * v.rel_gap << "%)\n";
        }
      }
      report.welch.push_back(std::move(v));
    }
  }
}

}  // namespace

bool SelftestReport::passed() const noexcept {
  if (!failures.empty()) return false;
  if (options.welch_gating && welch_rejections > 0) return false;
  return true;
}

util::Json SelftestReport::to_json() const {
  util::Json::Object root;
  root["cases"] = util::Json(static_cast<long long>(options.cases));
  root["seed"] = util::Json(hex_seed(options.seed));
  root["trials"] = util::Json(static_cast<long long>(options.trials));
  root["alpha"] = util::Json(options.alpha);
  root["welch_gating"] = util::Json(options.welch_gating);
  root["cases_run"] = util::Json(static_cast<long long>(cases_run));

  util::Json::Object phases;
  phases["oracle"] = util::Json(static_cast<long long>(oracle_checked));
  phases["bit_identity"] =
      util::Json(static_cast<long long>(bit_identity_checked));
  phases["metamorphic"] =
      util::Json(static_cast<long long>(metamorphic_checked));
  phases["dominance"] = util::Json(static_cast<long long>(dominance_checked));
  root["checked"] = util::Json(std::move(phases));

  root["max_oracle_error"] = util::Json(max_oracle_error);

  util::Json::Array failure_list;
  for (const auto& f : failures) {
    util::Json::Object entry;
    entry["phase"] = util::Json(f.phase);
    entry["case"] = util::Json(static_cast<long long>(f.case_index));
    entry["case_seed"] = util::Json(hex_seed(f.case_seed));
    entry["check"] = util::Json(f.check);
    entry["detail"] = util::Json(f.detail);
    entry["repro"] = util::Json(f.repro);
    failure_list.push_back(util::Json(std::move(entry)));
  }
  root["failures"] = util::Json(std::move(failure_list));

  util::Json::Array welch_list;
  for (const auto& v : welch) {
    util::Json::Object entry;
    entry["index"] = util::Json(static_cast<long long>(v.index));
    entry["seed"] = util::Json(hex_seed(v.seed));
    entry["law"] = util::Json(v.law);
    entry["levels"] = util::Json(v.levels);
    entry["mtbf"] = util::Json(v.mtbf);
    entry["base_time"] = util::Json(v.base_time);
    entry["skipped"] = util::Json(v.skipped);
    if (v.skipped) {
      entry["skip_reason"] = util::Json(v.skip_reason);
    }
    if (!v.plan.empty()) {
      entry["plan"] = util::Json(v.plan);
      entry["predicted_time"] = util::Json(v.predicted_time);
    }
    if (v.trials > 0) {
      entry["sim_mean"] = util::Json(v.sim_mean);
      entry["sim_stddev"] = util::Json(v.sim_stddev);
      entry["trials"] = util::Json(static_cast<long long>(v.trials));
      entry["capped_trials"] =
          util::Json(static_cast<long long>(v.capped_trials));
    }
    if (!v.skipped) {
      entry["statistic"] = util::Json(v.statistic);
      entry["p_two_sided"] = util::Json(v.p_two_sided);
      entry["significant"] = util::Json(v.significant);
      entry["rel_gap"] = util::Json(v.rel_gap);
      entry["rel_tolerance"] = util::Json(v.rel_tolerance);
      entry["rejected"] = util::Json(v.rejected);
    }
    welch_list.push_back(util::Json(std::move(entry)));
  }
  root["welch"] = util::Json(std::move(welch_list));
  root["welch_rejections"] =
      util::Json(static_cast<long long>(welch_rejections));
  util::Json::Object by_law;
  for (const auto& [name, count] : welch_rejections_by_law) {
    by_law[name] = util::Json(static_cast<long long>(count));
  }
  root["welch_rejections_by_law"] = util::Json(std::move(by_law));
  root["passed"] = util::Json(passed());
  return util::Json(std::move(root));
}

SelftestReport run_selftest(const SelftestOptions& options,
                            util::ThreadPool* pool, std::ostream* log) {
  SelftestReport report;
  report.options = options;
  if (log != nullptr) {
    *log << "selftest: " << options.cases << " cases, seed "
         << hex_seed(options.seed) << "\n";
  }
  run_invariant_cases(options, report, log);
  if (log != nullptr) {
    *log << "invariants: " << report.cases_run << " cases, "
         << report.failures.size() << " failure(s), max oracle error "
         << report.max_oracle_error << " of band\n";
  }
  if (options.only_case < 0 && options.welch_systems > 0) {
    run_welch_validation(options, report, pool, log);
    if (log != nullptr) {
      *log << "welch: " << report.welch.size() << " system(s), "
           << report.welch_rejections << " rejection(s) at alpha "
           << options.alpha << (options.welch_gating ? " (gating)" : "")
           << "\n";
      if (report.welch_rejections_by_law.size() > 1) {
        for (const auto& [name, count] : report.welch_rejections_by_law) {
          *log << "  " << name << ": " << count << " rejection(s)\n";
        }
      }
    }
  }
  return report;
}

}  // namespace mlck::verify
