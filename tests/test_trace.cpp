#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/adaptive.h"
#include "core/interval_schedule.h"
#include "engine/scenario.h"
#include "math/failure_law.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "sim/trial_runner.h"
#include "systems/test_systems.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace mlck::obs {
namespace {

using core::CheckpointPlan;

/// Full-hierarchy plan sized for the system's level count (Table I systems
/// range from 2 to 4 levels).
CheckpointPlan plan_for(const systems::SystemConfig& sys, double tau0) {
  std::vector<int> counts(static_cast<std::size_t>(sys.levels()) - 1, 2);
  return CheckpointPlan::full_hierarchy(tau0, counts);
}

/// Runs a captured Monte-Carlo batch of @p schedule under @p law (null:
/// the native exponential source) and returns the capture.
sim::TrialTraceCapture capture_trials(const systems::SystemConfig& sys,
                                      const sim::CompiledSchedule& schedule,
                                      const math::FailureDistribution* law,
                                      std::size_t trials, std::uint64_t seed,
                                      sim::SimOptions opts = {},
                                      util::ThreadPool* pool = nullptr) {
  sim::TrialTraceCapture capture;
  capture.max_trials = trials;
  opts.capture = &capture;
  sim::run_trials(sys, schedule, law, trials, seed, opts, pool);
  return capture;
}

sim::TrialTraceCapture capture_trials(const systems::SystemConfig& sys,
                                      const CheckpointPlan& plan,
                                      std::size_t trials, std::uint64_t seed,
                                      sim::SimOptions opts = {},
                                      util::ThreadPool* pool = nullptr) {
  return capture_trials(sys, sim::CompiledSchedule::from_plan(sys, plan),
                        nullptr, trials, seed, opts, pool);
}

TEST(TraceSink, SpanRecordsOnTheCallingThreadsTrack) {
  TraceSink sink;
  sink.name_current_thread("main");
  {
    Span a(&sink, "phase.a", "test");
    Span b(&sink, "phase.b", "test");
  }
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 2u);
  // RAII order: b (inner) completes first.
  EXPECT_EQ(events[0].name, "phase.b");
  EXPECT_EQ(events[1].name, "phase.a");
  for (const auto& ev : events) {
    EXPECT_EQ(ev.category, "test");
    EXPECT_EQ(ev.thread_id, 0);  // first (only) thread seen
    EXPECT_GE(ev.start_us, 0.0);
    EXPECT_GE(ev.end_us, ev.start_us);
  }
  const auto names = sink.thread_names();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names.at(0), "main");
}

TEST(TraceSink, NullSinkSpansAreNoops) {
  Span s(nullptr, "never.recorded", "test");  // must not crash or allocate ids
}

TEST(TraceSink, FirstThreadNameWins) {
  TraceSink sink;
  sink.name_current_thread("first");
  sink.name_current_thread("second");
  EXPECT_EQ(sink.thread_names().at(0), "first");
}

TEST(TraceSink, PoolWorkersGetSeparateTracks) {
  TraceSink sink;
  util::ThreadPool pool(3);
  pool.attach_trace(&sink);
  const auto sys = systems::table1_system("D3");
  sim::run_trials(sys, plan_for(sys, 3.0), 24, 7, {}, &pool);
  EXPECT_GT(sink.size(), 0u);  // pool.task spans
  std::map<int, int> per_track;
  for (const auto& ev : sink.events()) {
    EXPECT_EQ(ev.name, "pool.task");
    ++per_track[ev.thread_id];
  }
  // All spans came from worker threads that named their tracks.
  for (const auto& [id, name] : sink.thread_names()) {
    EXPECT_NE(name.find("pool worker"), std::string::npos) << id;
  }
}

// ---- Auditor property suite ---------------------------------------------

TEST(TraceAudit, BreakdownBitForBitAcrossSystemsAndSeeds) {
  // Three Table I systems spanning 2-4 checkpoint levels, several seeds
  // each; every captured trial's event stream must tile [0, total_time]
  // and rebuild the breakdown exactly.
  std::size_t audited = 0;
  for (const char* name : {"M", "B", "D3"}) {
    const auto sys = systems::table1_system(name);
    const auto plan = plan_for(sys, name[0] == 'M' ? 30.0 : 3.0);
    for (std::uint64_t seed : {1u, 42u, 20180521u}) {
      const auto capture = capture_trials(sys, plan, 6, seed);
      ASSERT_EQ(capture.trials.size(), 6u);
      for (const auto& trial : capture.trials) {
        const auto report =
            audit_trial_trace(sys, trial.result, trial.events);
        EXPECT_TRUE(report.ok())
            << name << " seed " << seed << " trial " << trial.trial << ": "
            << (report.errors.empty() ? "" : report.errors.front());
        ++audited;
      }
    }
  }
  // Interval and adaptive schedules under Weibull(0.7) and log-normal(1.0).
  const auto sys = systems::table1_system("D3");
  const auto weibull = math::FailureLaw::weibull(0.7);
  const auto lognormal = math::FailureLaw::lognormal(1.0);
  const sim::CompiledSchedule schedules[] = {
      sim::CompiledSchedule::from_schedule(
          sys, core::IntervalSchedule{{0, 1}, {2.0, 7.5}}),
      sim::CompiledSchedule::from_adaptive(
          sys, core::make_adaptive(sys, plan_for(sys, 3.0)))};
  for (const auto& schedule : schedules) {
    for (const auto* family : {weibull.get(), lognormal.get()}) {
      const auto law = family->distribution(sys.mtbf);
      const auto capture = capture_trials(sys, schedule, law.get(), 6, 42);
      ASSERT_EQ(capture.trials.size(), 6u);
      for (const auto& trial : capture.trials) {
        const auto report =
            audit_trial_trace(sys, trial.result, trial.events);
        EXPECT_TRUE(report.ok())
            << law->describe() << " trial " << trial.trial << ": "
            << (report.errors.empty() ? "" : report.errors.front());
        ++audited;
      }
    }
  }
  EXPECT_EQ(audited, 3u * 3u * 6u + 2u * 2u * 6u);
}

TEST(TraceAudit, ScratchRestartTrialsAuditClean) {
  // A level-0-only plan on the 4-level system B cannot restore after any
  // failure of severity >= 1, forcing restarts from scratch.
  const auto sys = systems::table1_system("B");
  const auto plan = CheckpointPlan::single_level(2.0, 0);
  const auto capture = capture_trials(sys, plan, 8, 11);
  long long scratches = 0;
  for (const auto& trial : capture.trials) {
    scratches += trial.result.scratch_restarts;
    const auto report = audit_trial_trace(sys, trial.result, trial.events);
    EXPECT_TRUE(report.ok())
        << "trial " << trial.trial << ": "
        << (report.errors.empty() ? "" : report.errors.front());
  }
  EXPECT_GT(scratches, 0) << "suite no longer exercises scratch restarts";
}

TEST(TraceAudit, CappedTrialMarksTruncationAndAuditsClean) {
  // A cap barely above one interval truncates the trial mid-flight: the
  // last event must carry the explicit truncated_by_cap flag and the
  // reconstruction must still match, including the cap attribution.
  const auto sys = systems::table1_system("D3");
  sim::SimOptions opts;
  opts.max_time_factor = 0.01;  // 14.4 of 1440 minutes: always caps
  const auto capture = capture_trials(sys, plan_for(sys, 3.0), 4, 5, opts);
  for (const auto& trial : capture.trials) {
    ASSERT_TRUE(trial.result.capped);
    ASSERT_FALSE(trial.events.empty());
    const auto& last = trial.events.back();
    EXPECT_TRUE(last.truncated_by_cap);
    EXPECT_FALSE(last.completed);
    EXPECT_EQ(last.failure_severity, -1);
    // No event other than the last may be truncated.
    for (std::size_t i = 0; i + 1 < trial.events.size(); ++i) {
      EXPECT_FALSE(trial.events[i].truncated_by_cap) << i;
    }
    const auto report = audit_trial_trace(sys, trial.result, trial.events);
    EXPECT_TRUE(report.ok())
        << (report.errors.empty() ? "" : report.errors.front());
  }
}

TEST(TraceAudit, TamperedStreamIsRejected) {
  const auto sys = systems::table1_system("D3");
  auto capture = capture_trials(sys, plan_for(sys, 3.0), 1, 3);
  ASSERT_EQ(capture.trials.size(), 1u);
  auto& trial = capture.trials.front();
  ASSERT_GT(trial.events.size(), 2u);
  ASSERT_TRUE(
      audit_trial_trace(sys, trial.result, trial.events).ok());

  // Stretch one event: the tiling check must flag the gap.
  auto gapped = trial.events;
  gapped[1].end += 0.5;
  EXPECT_FALSE(audit_trial_trace(sys, trial.result, gapped).ok());

  // Corrupt a work annotation: the breakdown reconstruction must diverge.
  auto miscredited = trial.events;
  miscredited.back().work += 1.0;
  EXPECT_FALSE(
      audit_trial_trace(sys, trial.result, miscredited).ok());

  // Drop the final event: the stream no longer reaches total_time.
  auto short_stream = trial.events;
  short_stream.pop_back();
  EXPECT_FALSE(
      audit_trial_trace(sys, trial.result, short_stream).ok());
}

// ---- Capture determinism & bit-identity ----------------------------------

TEST(TrialCapture, PoolAndSerialCapturesAreIdentical) {
  const auto sys = systems::table1_system("B");
  const auto plan = plan_for(sys, 3.0);
  const auto serial = capture_trials(sys, plan, 6, 99);
  util::ThreadPool pool(4);
  const auto pooled = capture_trials(sys, plan, 6, 99, {}, &pool);
  // Byte-identical event streams regardless of scheduling (compare via
  // the JSONL exporter, which dumps every event field).
  EXPECT_EQ(trace_jsonl(nullptr, &serial), trace_jsonl(nullptr, &pooled));
}

TEST(TrialCapture, CapturesOnlyTheFirstMaxTrialsByIndex) {
  const auto sys = systems::table1_system("D3");
  const auto plan = plan_for(sys, 3.0);
  sim::TrialTraceCapture capture;
  capture.max_trials = 3;
  sim::SimOptions opts;
  opts.capture = &capture;
  const auto stats = sim::run_trials(sys, plan, 10, 4, opts);
  EXPECT_EQ(stats.trials, 10u);
  ASSERT_EQ(capture.trials.size(), 3u);
  for (std::size_t k = 0; k < capture.trials.size(); ++k) {
    EXPECT_EQ(capture.trials[k].trial, k);
    EXPECT_FALSE(capture.trials[k].events.empty());
  }
}

TEST(TrialCapture, AttachingCaptureDoesNotPerturbResults) {
  const auto sys = systems::table1_system("B");
  const auto plan = plan_for(sys, 3.0);
  const auto bare = sim::run_trials(sys, plan, 30, 2018);
  sim::TrialTraceCapture capture;
  sim::SimOptions opts;
  opts.capture = &capture;
  const auto captured = sim::run_trials(sys, plan, 30, 2018, opts);
  EXPECT_EQ(bare.efficiency.mean, captured.efficiency.mean);
  EXPECT_EQ(bare.efficiency.stddev, captured.efficiency.stddev);
  EXPECT_EQ(bare.total_time.mean, captured.total_time.mean);
  EXPECT_EQ(bare.time_shares.useful, captured.time_shares.useful);
  EXPECT_EQ(bare.time_shares.rework_restart,
            captured.time_shares.rework_restart);
}

TEST(Scenario, TracingIsObserveOnlyBitIdentical) {
  // Golden bit-identity: a full scenario run with a TraceSink, a pool
  // trace, and trial capture attached must produce exactly the same
  // outcome as the bare run.
  engine::ScenarioSpec spec;
  spec.system = systems::table1_system("D4");
  spec.trials = 40;
  spec.seed = 77;
  const auto bare = engine::run_scenario(spec);

  TraceSink sink;
  sink.name_current_thread("main");
  util::ThreadPool pool(3);
  pool.attach_trace(&sink);
  sim::TrialTraceCapture capture;
  engine::ScenarioSpec traced = spec;
  traced.sim.capture = &capture;
  const auto outcome = engine::run_scenario(traced, &pool, nullptr, &sink);

  EXPECT_EQ(bare.selected.plan.tau0, outcome.selected.plan.tau0);
  EXPECT_EQ(bare.selected.plan.levels, outcome.selected.plan.levels);
  EXPECT_EQ(bare.selected.plan.counts, outcome.selected.plan.counts);
  EXPECT_EQ(bare.selected.predicted_efficiency,
            outcome.selected.predicted_efficiency);
  EXPECT_EQ(bare.stats.efficiency.mean, outcome.stats.efficiency.mean);
  EXPECT_EQ(bare.stats.efficiency.stddev, outcome.stats.efficiency.stddev);
  EXPECT_EQ(bare.stats.total_time.mean, outcome.stats.total_time.mean);
  EXPECT_EQ(bare.stats.time_shares.useful, outcome.stats.time_shares.useful);

  // ... and the instrumented run actually observed something.
  EXPECT_GT(sink.size(), 0u);
  EXPECT_FALSE(capture.trials.empty());
  std::vector<std::string> seen;
  for (const auto& ev : sink.events()) seen.push_back(ev.name);
  for (const char* expected :
       {"scenario.select_plan", "scenario.simulate",
        "optimizer.coarse_sweep", "engine.context_build"}) {
    EXPECT_NE(std::find(seen.begin(), seen.end(), expected), seen.end())
        << expected;
  }
}

// ---- Exporters -----------------------------------------------------------

TEST(TraceExport, ChromeJsonIsWellFormedAndMonotonicPerTrack) {
  const auto sys = systems::table1_system("B");
  const auto plan = plan_for(sys, 3.0);
  TraceSink sink;
  sink.name_current_thread("main");
  {
    Span s(&sink, "outer", "test");
    Span t(&sink, "inner", "test");
  }
  const auto capture = capture_trials(sys, plan, 3, 21);

  const util::Json doc = chrome_trace_json(&sink, &capture);
  // Round-trips through the parser.
  const util::Json parsed = util::Json::parse(doc.dump(2));
  EXPECT_EQ(parsed.at("displayTimeUnit").as_string(), "ms");
  const auto& events = parsed.at("traceEvents").as_array();
  ASSERT_GT(events.size(), 2u);

  std::map<std::pair<double, double>, double> last_ts;  // (pid,tid) -> ts
  bool saw_host = false, saw_sim = false, saw_metadata = false;
  for (const auto& ev : events) {
    const std::string ph = ev.at("ph").as_string();
    const double pid = ev.at("pid").as_number();
    const double tid = ev.at("tid").as_number();
    if (ph == "M") {
      saw_metadata = true;
      continue;
    }
    ASSERT_EQ(ph, "X");
    const double ts = ev.at("ts").as_number();
    EXPECT_GE(ev.at("dur").as_number(), 0.0);
    const auto key = std::make_pair(pid, tid);
    if (last_ts.count(key) > 0) {
      EXPECT_GE(ts, last_ts[key]);
    }
    last_ts[key] = ts;
    if (pid == 1.0) saw_host = true;
    if (pid == 2.0) {
      saw_sim = true;
      // Simulator events carry the raw fields as args.
      const auto& args = ev.at("args");
      EXPECT_NO_THROW(args.at("completed"));
      EXPECT_NO_THROW(args.at("work"));
      EXPECT_NO_THROW(args.at("truncated_by_cap"));
      EXPECT_LT(tid, 3.0);  // one track per captured trial index
    }
  }
  EXPECT_TRUE(saw_host);
  EXPECT_TRUE(saw_sim);
  EXPECT_TRUE(saw_metadata);
}

TEST(TraceExport, JsonlEveryLineParses) {
  const auto sys = systems::table1_system("D3");
  const auto capture = capture_trials(sys, plan_for(sys, 3.0), 2, 8);
  TraceSink sink;
  { Span s(&sink, "phase", "test"); }
  const std::string text = trace_jsonl(&sink, &capture);
  std::istringstream lines(text);
  std::string line;
  std::size_t spans = 0, sim_events = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    const util::Json row = util::Json::parse(line);
    const std::string type = row.at("type").as_string();
    if (type == "span") ++spans;
    if (type == "sim_event") ++sim_events;
  }
  EXPECT_EQ(spans, 1u);
  EXPECT_GT(sim_events, 0u);
}

TEST(TraceExport, NullInputsYieldEmptyTrace) {
  const util::Json doc = chrome_trace_json(nullptr, nullptr);
  EXPECT_TRUE(doc.at("traceEvents").as_array().empty());
  EXPECT_TRUE(trace_jsonl(nullptr, nullptr).empty());
}

}  // namespace
}  // namespace mlck::obs
