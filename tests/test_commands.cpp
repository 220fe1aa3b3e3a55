#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "app/commands.h"
#include "core/serialize.h"
#include "engine/scenario.h"
#include "models/benoit.h"
#include "systems/test_systems.h"
#include "util/table.h"

namespace mlck::app {
namespace {

struct CommandResult {
  int code = 0;
  std::string out;
  std::string err;
};

CommandResult run(std::vector<std::string> args) {
  std::ostringstream out, err;
  CommandResult r;
  r.code = run_command(args, out, err);
  r.out = out.str();
  r.err = err.str();
  return r;
}

/// The value cell of the first output line starting with @p label.
std::string row_value(const std::string& out, const std::string& label) {
  std::istringstream lines(out);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(label, 0) != 0) continue;
    const auto end = line.find_last_not_of(' ');
    const auto begin = line.find_first_not_of(' ', label.size());
    if (begin == std::string::npos || end < begin) return "";
    return line.substr(begin, end - begin + 1);
  }
  return "<no row " + label + ">";
}

/// The first line of @p text.
std::string first_line(const std::string& text) {
  return text.substr(0, text.find('\n'));
}

TEST(Commands, NoArgumentsPrintsUsage) {
  const auto r = run({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

TEST(Commands, UnknownCommandRejected) {
  const auto r = run({"frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Commands, SystemsListsTableOne) {
  const auto r = run({"systems"});
  EXPECT_EQ(r.code, 0);
  for (const char* name : {"M", "B", "D1", "D9"}) {
    EXPECT_NE(r.out.find(name), std::string::npos) << name;
  }
}

TEST(Commands, ShowEmitsParseableJson) {
  const auto r = run({"show", "--system=D4"});
  ASSERT_EQ(r.code, 0);
  const auto doc = util::Json::parse(r.out);
  EXPECT_EQ(doc.at("name").as_string(), "D4");
  EXPECT_DOUBLE_EQ(doc.at("mtbf").as_number(), 6.0);
}

TEST(Commands, MissingSystemIsUsageError) {
  const auto r = run({"show"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--system"), std::string::npos);
}

TEST(Commands, NonexistentSystemFileIsRuntimeError) {
  const auto r = run({"show", "--system=/no/such/file.json"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("file.json"), std::string::npos);
}

TEST(Commands, OptimizeWritesALoadablePlan) {
  const auto path =
      (std::filesystem::temp_directory_path() / "mlck_cmd_plan.json")
          .string();
  const auto r =
      run({"optimize", "--system=D5", "--out=" + path});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("Dauwe et al."), std::string::npos);
  EXPECT_NE(r.out.find("predicted efficiency"), std::string::npos);
  const auto plan = core::plan_from_json(
      util::Json::parse(core::read_file(path)));
  EXPECT_GT(plan.tau0, 0.0);
  std::filesystem::remove(path);
}

TEST(Commands, PredictOnSavedPlan) {
  const auto path =
      (std::filesystem::temp_directory_path() / "mlck_cmd_predict.json")
          .string();
  ASSERT_EQ(run({"optimize", "--system=D3", "--out=" + path}).code, 0);
  const auto r = run({"predict", "--system=D3", "--plan=" + path});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("efficiency"), std::string::npos);
  // Cross-model prediction on the same plan.
  const auto di = run({"predict", "--system=D3", "--plan=" + path,
                       "--model=di"});
  EXPECT_EQ(di.code, 0);
  std::filesystem::remove(path);
}

TEST(Commands, PredictServesEveryBaselineModel) {
  // predict --model= resolves names through the same registry as
  // --technique=, so benoit is there too.
  const auto path =
      (std::filesystem::temp_directory_path() / "mlck_cmd_predict_benoit.json")
          .string();
  ASSERT_EQ(run({"optimize", "--system=D3", "--out=" + path}).code, 0);
  const auto r =
      run({"predict", "--system=D3", "--plan=" + path, "--model=benoit"});
  ASSERT_EQ(r.code, 0) << r.err;
  const auto system = systems::table1_system("D3");
  const auto plan =
      core::plan_from_json(util::Json::parse(core::read_file(path)));
  const auto expected = models::BenoitModel().predict(system, plan);
  using util::Table;
  EXPECT_EQ(row_value(r.out, "expected time (min)"),
            Table::num(expected.expected_time, 2));
  EXPECT_EQ(row_value(r.out, "efficiency"), Table::pct(expected.efficiency));
  std::filesystem::remove(path);
}

TEST(Commands, PredictRequiresPlan) {
  const auto r = run({"predict", "--system=D3"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--plan"), std::string::npos);
}

TEST(Commands, SimulateWithTechniqueSelection) {
  const auto r = run({"simulate", "--system=D6", "--technique=daly",
                      "--trials=20", "--seed=9"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("efficiency mean"), std::string::npos);
  EXPECT_NE(r.out.find("time shares"), std::string::npos);
  EXPECT_NE(r.out.find("useful work"), std::string::npos);
}

TEST(Commands, SimulateDeterministicForSeed) {
  const auto a = run({"simulate", "--system=D2", "--trials=15", "--seed=3"});
  const auto b = run({"simulate", "--system=D2", "--trials=15", "--seed=3"});
  EXPECT_EQ(a.out, b.out);
}

TEST(Commands, SimulateRejectsBadPolicy) {
  const auto r = run({"simulate", "--system=D2", "--policy=chaos"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--policy"), std::string::npos);
}

TEST(Commands, CompareCoversAllSixTechniques) {
  const auto r = run({"compare", "--system=D7", "--trials=10"});
  ASSERT_EQ(r.code, 0) << r.err;
  for (const char* name : {"Dauwe et al.", "Di et al.", "Moody et al.",
                           "Benoit et al.", "Daly", "Young"}) {
    EXPECT_NE(r.out.find(name), std::string::npos) << name;
  }
}

TEST(Commands, TraceShowsTimeline) {
  const auto r = run({"trace", "--system=D3", "--max-events=10"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("compute"), std::string::npos);
  EXPECT_NE(r.out.find("checkpoint"), std::string::npos);
  EXPECT_NE(r.out.find("efficiency"), std::string::npos);
}

TEST(Commands, TraceAuditPassesOnCapturedTrials) {
  const auto r = run({"trace", "--system=B", "--trials=3", "--audit"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("trial 0: audit ok"), std::string::npos);
  EXPECT_NE(r.out.find("trial 2: audit ok"), std::string::npos);
  EXPECT_EQ(r.out.find("FAILED"), std::string::npos);
}

TEST(Commands, TraceChromeFormatWritesLoadableJson) {
  const auto path =
      (std::filesystem::temp_directory_path() / "mlck_cmd_trace.json")
          .string();
  const auto r = run({"trace", "--system=D3", "--format=chrome",
                      "--out=" + path});
  ASSERT_EQ(r.code, 0) << r.err;
  const auto doc = util::Json::parse(core::read_file(path));
  EXPECT_FALSE(doc.at("traceEvents").as_array().empty());
  std::filesystem::remove(path);
}

TEST(Commands, TraceJsonlFormatStreamsParseableLines) {
  const auto r = run({"trace", "--system=D3", "--format=jsonl"});
  ASSERT_EQ(r.code, 0) << r.err;
  std::istringstream lines(r.out);
  std::string line;
  std::size_t parsed = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    EXPECT_NO_THROW(util::Json::parse(line)) << line;
    ++parsed;
  }
  EXPECT_GT(parsed, 0u);
}

TEST(Commands, TraceRejectsUnknownFormat) {
  const auto r = run({"trace", "--system=D3", "--format=xml"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--format"), std::string::npos);
}

TEST(Commands, OptimizeAndPredictMetricsSidecar) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto metrics = (dir / "mlck_cmd_opt_metrics.json").string();
  const auto plan = (dir / "mlck_cmd_opt_metrics_plan.json").string();
  const auto opt = run({"optimize", "--system=D5", "--out=" + plan,
                        "--metrics=" + metrics});
  ASSERT_EQ(opt.code, 0) << opt.err;
  const auto doc = util::Json::parse(core::read_file(metrics));
  EXPECT_GT(doc.at("counters").at("optimizer.plans_swept").as_number(), 0.0);

  const auto pred = run({"predict", "--system=D5", "--plan=" + plan,
                         "--metrics=" + metrics});
  ASSERT_EQ(pred.code, 0) << pred.err;
  const auto pdoc = util::Json::parse(core::read_file(metrics));
  EXPECT_GT(pdoc.at("counters").at("engine.evaluations").as_number(), 0.0);
  std::filesystem::remove(metrics);
  std::filesystem::remove(plan);
}

TEST(Commands, OptimizeWithMetricsKeepsPlanIdentical) {
  // Observe-only: instrumentation must not change the selected plan.
  const auto bare = run({"optimize", "--system=D6"});
  const auto traced = run({"optimize", "--system=D6", "--metrics"});
  ASSERT_EQ(bare.code, 0);
  ASSERT_EQ(traced.code, 0);
  // The instrumented run appends metric tables; the report prefix (plan,
  // prediction) must be byte-identical.
  EXPECT_EQ(traced.out.substr(0, bare.out.size()), bare.out);
}

TEST(Commands, ScenarioLawFlagOverridesSpecFailureSection) {
  // Precedence contract: --law beats the spec's "failure" section (the
  // flag is the more specific, per-invocation intent), and the override
  // is announced on stderr so the spec's law never silently stops
  // mattering.
  const auto dir = std::filesystem::temp_directory_path();
  const auto spec = (dir / "mlck_cmd_scn_law_spec.json").string();
  ASSERT_EQ(run({"scenario", "--system=B", "--emit-spec=" + spec}).code, 0);

  const auto bare = run({"scenario", "--spec=" + spec, "--trials=10",
                         "--seed=7"});
  ASSERT_EQ(bare.code, 0) << bare.err;
  EXPECT_EQ(bare.err.find("takes precedence"), std::string::npos);

  const auto flagged = run({"scenario", "--spec=" + spec, "--trials=10",
                            "--seed=7", "--law=weibull:shape=0.7"});
  ASSERT_EQ(flagged.code, 0) << flagged.err;
  EXPECT_NE(flagged.err.find("--law=weibull:shape=0.7"), std::string::npos)
      << flagged.err;
  EXPECT_NE(flagged.err.find("takes precedence"), std::string::npos)
      << flagged.err;
  // The report reflects the flag's law, not the spec's exponential.
  EXPECT_NE(flagged.out.find("weibull"), std::string::npos) << flagged.out;
  EXPECT_NE(bare.out, flagged.out);
  std::filesystem::remove(spec);
}

TEST(Commands, SeedKeepsItsFull64BitValue) {
  // --seed and a spec's seed above INT_MAX are one and the same seed, not
  // truncated to 32 bits (5000000000 mod 2^32 = 705032704).
  const auto dir = std::filesystem::temp_directory_path();
  const auto spec = (dir / "mlck_cmd_seed_spec.json").string();
  const auto seeded = (dir / "mlck_cmd_seed_seeded.json").string();
  ASSERT_EQ(run({"scenario", "--system=D3", "--emit-spec=" + spec}).code, 0);
  auto doc = util::Json::parse(core::read_file(spec));
  doc.make_object()["seed"] = util::Json(5000000000.0);
  core::write_file(seeded, doc.dump(2));

  const auto from_flag =
      run({"scenario", "--spec=" + spec, "--trials=20", "--seed=5000000000"});
  const auto from_spec = run({"scenario", "--spec=" + seeded, "--trials=20"});
  const auto wrapped =
      run({"scenario", "--spec=" + spec, "--trials=20", "--seed=705032704"});
  ASSERT_EQ(from_flag.code, 0) << from_flag.err;
  ASSERT_EQ(from_spec.code, 0) << from_spec.err;
  ASSERT_EQ(wrapped.code, 0) << wrapped.err;
  EXPECT_EQ(from_flag.out, from_spec.out);
  EXPECT_NE(from_flag.out, wrapped.out);

  for (const char* bad : {"--seed=-1", "--seed=12x", "--seed=1e3",
                          "--seed=18446744073709551616"}) {
    const auto r = run({"scenario", "--spec=" + spec, bad});
    EXPECT_EQ(r.code, 2) << bad;
    EXPECT_NE(r.err.find("--seed"), std::string::npos) << r.err;
  }
  std::filesystem::remove(spec);
  std::filesystem::remove(seeded);
}

TEST(Commands, MalformedValuesAreUsageErrorsBeforeAnyWork) {
  // Each value is checked against its declared kind and range when argv
  // is parsed, so none of these runs anything. The required --system and
  // --socket are left out: a build that ran the command would still stop
  // on them.
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases =
      {{{"simulate", "--trials=5x"}, "--trials=5x"},
       {{"simulate", "--trials=-1"}, "--trials=-1"},
       {{"simulate", "--trials", "-1"}, "--trials=-1"},
       {{"selftest", "--cases=1e3"}, "--cases=1e3"},
       {{"selftest", "--cases=10", "--case=30"}, "--case must be below"},
       {{"trace", "--trials=2", "--audit", "yes-please"}, "yes-please"},
       {{"trace", "--audit=yes"}, "--audit"},
       {{"serve", "--queue-limit=0"}, "--queue-limit=0"},
       {{"serve", "--cache-capacity=-5"}, "--cache-capacity=-5"},
       {{"optimize", "--sample-period-ms=0"}, "--sample-period-ms=0"},
       {{"energy", "--checkpoint-power=abc"}, "--checkpoint-power=abc"},
       {{"compare", "--law=weibull:shape"}, "--law=weibull:shape"},
       {{"compare", "--trials=5", "--trials=6"}, "--trials"},
       {{"show", "--system"}, "--system"},
       {{"report", "--json="}, "--json"}};
  for (const auto& [args, named] : cases) {
    const auto r = run(args);
    EXPECT_EQ(r.code, 2) << testing::PrintToString(args);
    EXPECT_EQ(r.out, "");
    EXPECT_EQ(first_line(r.err).rfind("error: " + named, 0), 0u) << r.err;
  }
}

TEST(Commands, ScenarioOpenMetricsAndTimelineExports) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto spec = (dir / "mlck_cmd_scn_obs_spec.json").string();
  const auto om = (dir / "mlck_cmd_scn_obs.om").string();
  const auto tl = (dir / "mlck_cmd_scn_obs.jsonl").string();
  const auto sidecar = (dir / "mlck_cmd_scn_obs_metrics.json").string();
  ASSERT_EQ(run({"scenario", "--system=B", "--emit-spec=" + spec}).code, 0);
  const auto bare =
      run({"scenario", "--spec=" + spec, "--trials=20", "--seed=5"});
  ASSERT_EQ(bare.code, 0) << bare.err;
  const auto exported = run({"scenario", "--spec=" + spec, "--trials=20",
                             "--seed=5", "--metrics=" + sidecar,
                             "--openmetrics=" + om, "--timeline=" + tl,
                             "--sample-period-ms=1"});
  ASSERT_EQ(exported.code, 0) << exported.err;
  // Observe-only: the exports only append notices after the report.
  EXPECT_EQ(exported.out.substr(0, bare.out.size()), bare.out);

  const std::string text = core::read_file(om);
  EXPECT_NE(text.find("# TYPE mlck_sim_trials counter"), std::string::npos);
  EXPECT_TRUE(std::regex_search(
      text, std::regex(R"((^|\n)mlck_sim_trials_total \d+\n)")));
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
  // Every histogram family is cumulative and closes with an +Inf bucket
  // equal to its _count.
  const std::regex bucket_line(R"re((\w+)_bucket\{le="([^"]+)"\} (\d+))re");
  const std::regex count_line(R"((\w+)_count (\d+))");
  std::map<std::string, std::vector<std::pair<std::string, std::uint64_t>>>
      buckets;
  std::map<std::string, std::uint64_t> counts;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    std::smatch m;
    if (std::regex_match(line, m, bucket_line)) {
      buckets[m[1]].emplace_back(m[2], std::stoull(m[3]));
    } else if (std::regex_match(line, m, count_line)) {
      counts[m[1]] = std::stoull(m[2]);
    }
  }
  ASSERT_FALSE(buckets.empty());
  for (const auto& [family, rows] : buckets) {
    SCOPED_TRACE(family);
    for (std::size_t i = 1; i < rows.size(); ++i) {
      EXPECT_LE(rows[i - 1].second, rows[i].second);
    }
    EXPECT_EQ(rows.back().first, "+Inf");
    ASSERT_EQ(counts.count(family), 1u);
    EXPECT_EQ(rows.back().second, counts.at(family));
  }

  const auto sidecar_meta =
      util::Json::parse(core::read_file(sidecar)).at("meta");
  EXPECT_EQ(sidecar_meta.at("schema_version").as_number(), 2.0);
  EXPECT_TRUE(std::regex_match(
      sidecar_meta.at("written_at").as_string(),
      std::regex(R"(\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z)")));
  EXPECT_EQ(sidecar_meta.at("argv").at(0).as_string(), "mlck");
  EXPECT_GT(sidecar_meta.at("metric_count").as_number(), 0.0);

  // Timeline: a meta header, then one point or hist object per line.
  std::istringstream jsonl(core::read_file(tl));
  std::string header;
  ASSERT_TRUE(std::getline(jsonl, header));
  const auto meta = util::Json::parse(header);
  EXPECT_EQ(meta.at("kind").as_string(), "timeline_meta");
  EXPECT_EQ(meta.at("schema_version").as_number(), 2.0);
  EXPECT_GE(meta.at("ticks").as_number(), 1.0);
  bool any_point = false;
  for (std::string line; std::getline(jsonl, line);) {
    const std::string kind = util::Json::parse(line).at("kind").as_string();
    EXPECT_TRUE(kind == "point" || kind == "hist") << kind;
    any_point = any_point || kind == "point";
  }
  EXPECT_TRUE(any_point);
  std::filesystem::remove(spec);
  std::filesystem::remove(om);
  std::filesystem::remove(tl);
  std::filesystem::remove(sidecar);
}

TEST(Commands, TelemetryFlagsWriteEveryExportAndObserveOnly) {
  // Every command with telemetry shares one flag set, and telemetry is
  // observe-only: the exports only append notices (or, for a bare
  // --metrics, the metric tables) after the unchanged report.
  const auto dir = std::filesystem::temp_directory_path();
  const auto spec = (dir / "mlck_cmd_tel_spec.json").string();
  const auto plan = (dir / "mlck_cmd_tel_plan.json").string();
  const auto sidecar = (dir / "mlck_cmd_tel_metrics.json").string();
  const auto om = (dir / "mlck_cmd_tel.om").string();
  const auto tl = (dir / "mlck_cmd_tel.jsonl").string();
  ASSERT_EQ(run({"scenario", "--system=B", "--emit-spec=" + spec}).code, 0);
  ASSERT_EQ(run({"optimize", "--system=D5", "--out=" + plan}).code, 0);

  const std::vector<std::vector<std::string>> commands = {
      {"optimize", "--system=D6"},
      {"predict", "--system=D5", "--plan=" + plan},
      {"scenario", "--spec=" + spec, "--trials=20", "--seed=5"},
      {"trace", "--system=B", "--trials=4"},
  };
  for (const auto& command : commands) {
    SCOPED_TRACE(command[0]);
    const auto bare = run(command);
    ASSERT_EQ(bare.code, 0) << bare.err;

    auto tables = command;
    tables.push_back("--metrics");
    const auto printed = run(tables);
    ASSERT_EQ(printed.code, 0) << printed.err;
    EXPECT_EQ(printed.out.substr(0, bare.out.size()), bare.out);
    EXPECT_EQ(printed.out.substr(bare.out.size(), 9), "\nmetrics\n");

    for (const auto& path : {sidecar, om, tl}) std::filesystem::remove(path);
    auto exported = command;
    exported.insert(exported.end(),
                    {"--metrics=" + sidecar, "--openmetrics=" + om,
                     "--timeline=" + tl, "--sample-period-ms=1"});
    const auto with_exports = run(exported);
    ASSERT_EQ(with_exports.code, 0) << with_exports.err;
    EXPECT_EQ(with_exports.err, "");
    EXPECT_EQ(with_exports.out.substr(0, bare.out.size()), bare.out);
    // One fixed order: metrics, then openmetrics, then timeline.
    const std::string notices = "metrics written to " + sidecar +
                                "\nopenmetrics written to " + om +
                                "\ntimeline written to " + tl + " (";
    EXPECT_EQ(with_exports.out.substr(bare.out.size(), notices.size()),
              notices);

    // One sidecar shape: the scenario metric names are always registered.
    const auto doc = util::Json::parse(core::read_file(sidecar));
    EXPECT_GE(doc.at("meta").at("schema_version").as_number(), 2.0);
    EXPECT_NE(doc.at("counters").find("sim.trials"), nullptr);
    EXPECT_NE(doc.at("counters").find("optimizer.plans_swept"), nullptr);

    const std::string text = core::read_file(om);
    EXPECT_NE(text.find("# TYPE mlck_sim_trials counter"), std::string::npos);
    ASSERT_GE(text.size(), 6u);
    EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");

    const std::string jsonl = core::read_file(tl);
    const auto nl = jsonl.find('\n');
    ASSERT_NE(nl, std::string::npos);
    const auto meta = util::Json::parse(jsonl.substr(0, nl));
    EXPECT_EQ(meta.at("kind").as_string(), "timeline_meta");
    EXPECT_GE(meta.at("ticks").as_number(), 1.0);
  }
  for (const auto& path : {spec, plan, sidecar, om, tl}) {
    std::filesystem::remove(path);
  }
}

TEST(Commands, ExportFlagsRequireAPath) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto spec = (dir / "mlck_cmd_export_spec.json").string();
  const auto plan = (dir / "mlck_cmd_export_plan.json").string();
  ASSERT_EQ(run({"scenario", "--system=B", "--emit-spec=" + spec}).code, 0);
  ASSERT_EQ(run({"optimize", "--system=B", "--out=" + plan}).code, 0);
  const std::vector<std::vector<std::string>> commands = {
      {"optimize", "--system=B"},
      {"predict", "--system=B", "--plan=" + plan},
      {"report", "--spec=" + spec, "--trials=5"},
  };
  for (const auto& command : commands) {
    for (const std::string flag : {"--openmetrics", "--timeline"}) {
      auto args = command;
      args.push_back(flag);
      const auto r = run(args);
      EXPECT_EQ(r.code, 2) << command[0] << " " << flag;
      EXPECT_NE(r.err.find(flag + " requires a file path"), std::string::npos)
          << r.err;
    }
  }
  std::filesystem::remove(spec);
  std::filesystem::remove(plan);
}

TEST(Commands, ReportJoinsSpansWithCounters) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto spec = (dir / "mlck_cmd_report_spec.json").string();
  const auto json = (dir / "mlck_cmd_report.json").string();
  ASSERT_EQ(run({"scenario", "--system=B", "--emit-spec=" + spec}).code, 0);
  const auto r = run({"report", "--spec=" + spec, "--trials=20", "--seed=5",
                      "--json=" + json});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("cost attribution"), std::string::npos);
  EXPECT_NE(r.out.find("scenario.simulate"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("plan "), std::string::npos);

  const auto doc = util::Json::parse(core::read_file(json));
  const auto& phases = doc.at("phases").as_array();
  ASSERT_FALSE(phases.empty());
  // Every phase splits total into self + children, in microseconds.
  for (const auto& p : phases) {
    EXPECT_NEAR(p.at("total_us").as_number(),
                p.at("self_us").as_number() + p.at("child_us").as_number(),
                1e-6);
  }
  EXPECT_GE(doc.at("meta").at("schema_version").as_number(), 2.0);
  std::filesystem::remove(spec);
  std::filesystem::remove(json);
}

TEST(Commands, ReportRequiresSpec) {
  const auto r = run({"report"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--spec"), std::string::npos);
}

TEST(Commands, ScenarioTraceWritesChromeFileAndKeepsResults) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto spec = (dir / "mlck_cmd_scn_spec.json").string();
  const auto trace = (dir / "mlck_cmd_scn_trace.json").string();
  ASSERT_EQ(run({"scenario", "--system=B", "--emit-spec=" + spec}).code, 0);
  const auto bare =
      run({"scenario", "--spec=" + spec, "--trials=20", "--seed=5"});
  ASSERT_EQ(bare.code, 0) << bare.err;
  const auto traced = run({"scenario", "--spec=" + spec, "--trials=20",
                           "--seed=5", "--trace=" + trace,
                           "--trace-trials=2"});
  ASSERT_EQ(traced.code, 0) << traced.err;
  // Bit-identical report (tracing is observe-only); the traced run only
  // appends the trace-file notice.
  EXPECT_EQ(traced.out.substr(0, bare.out.size()), bare.out);
  EXPECT_NE(traced.out.find("2 captured trials"), std::string::npos);
  const auto doc = util::Json::parse(core::read_file(trace));
  const auto& events = doc.at("traceEvents").as_array();
  EXPECT_FALSE(events.empty());
  // At least one complete ("X") span, not only instants and metadata.
  EXPECT_TRUE(std::any_of(events.begin(), events.end(), [](const auto& e) {
    const auto* ph = e.find("ph");
    return ph != nullptr && ph->as_string() == "X";
  }));
  std::filesystem::remove(spec);
  std::filesystem::remove(trace);
}

TEST(Commands, SimulateAdaptiveFlag) {
  const auto r = run({"simulate", "--system=D4", "--adaptive",
                      "--trials=15", "--seed=2"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("efficiency mean"), std::string::npos);
}

TEST(Commands, SimulateIntervalSchedule) {
  const auto path =
      (std::filesystem::temp_directory_path() / "mlck_cmd_intervals.json")
          .string();
  core::write_file(path, R"({"levels": [0, 1], "periods": [3.0, 12.0]})");
  const auto r = run({"simulate", "--system=D4", "--intervals=" + path,
                      "--trials=15"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("L1:3"), std::string::npos);
  EXPECT_NE(r.out.find("efficiency mean"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(Commands, EnergyComparesObjectives) {
  const auto r = run({"energy", "--system=D4", "--trials=10"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("time"), std::string::npos);
  EXPECT_NE(r.out.find("EDP"), std::string::npos);
  EXPECT_NE(r.out.find("sim energy/run"), std::string::npos);
}

TEST(Commands, SimulateAndEnergyHonourTheLaw) {
  const std::string law = "weibull:shape=0.5";
  const auto r = run({"simulate", "--system=D3", "--trials=30", "--seed=5",
                      "--law=" + law});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.err.find("unrecognized"), std::string::npos) << r.err;

  // The same answer through the engine: the Dauwe plan selected under the
  // law, then simulated under it.
  engine::ScenarioSpec spec;
  spec.system = systems::table1_system("D3");
  spec.trials = 30;
  spec.seed = 5;
  spec.distribution = engine::DistributionSpec::parse(law);
  const auto plan = engine::select_plan(spec).plan;
  const auto stats = engine::simulate_plan(
      spec, sim::CompiledSchedule::from_plan(spec.system, plan));
  using util::Table;
  EXPECT_EQ(row_value(r.out, "plan"), plan.to_string());
  EXPECT_EQ(row_value(r.out, "efficiency mean"),
            Table::pct(stats.efficiency.mean));
  EXPECT_EQ(row_value(r.out, "efficiency stddev"),
            Table::pct(stats.efficiency.stddev));
  EXPECT_EQ(row_value(r.out, "total time mean (min)"),
            Table::num(stats.total_time.mean, 1));
  EXPECT_EQ(row_value(r.out, "mean failures/run"),
            Table::num(stats.mean_failures, 1));
  const auto exponential =
      run({"simulate", "--system=D3", "--trials=30", "--seed=5"});
  ASSERT_EQ(exponential.code, 0) << exponential.err;
  EXPECT_NE(row_value(exponential.out, "plan"), plan.to_string());

  // energy selects each objective's plan under the law too, so its
  // time-optimal plan moves off the exponential one.
  const auto energy =
      run({"energy", "--system=D3", "--trials=10", "--law=" + law});
  ASSERT_EQ(energy.code, 0) << energy.err;
  EXPECT_EQ(energy.err.find("unrecognized"), std::string::npos) << energy.err;
  const auto energy_exponential =
      run({"energy", "--system=D3", "--trials=10"});
  ASSERT_EQ(energy_exponential.code, 0) << energy_exponential.err;
  // The plan is the row's first cell: "tau0=... levels=[...] counts=[...]".
  const auto plan_cell = [](const std::string& row) {
    return row.substr(0, row.find(']', row.find("counts=")) + 1);
  };
  EXPECT_NE(plan_cell(row_value(energy.out, "time")),
            plan_cell(row_value(energy_exponential.out, "time")));
}

TEST(Commands, EnergyRejectsNegativePower) {
  const auto r = run({"energy", "--system=D4", "--checkpoint-power=-1"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("power"), std::string::npos);
}

TEST(Commands, SensitivitySweepIsPeakedAtTheOptimum) {
  const auto r = run({"sensitivity", "--system=D5"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("tau0 factor"), std::string::npos);
  // The factor-1.00 row is the reference: "0.00%".
  EXPECT_NE(r.out.find("0.00%"), std::string::npos);
  // Every other row is at or below it (negative deltas).
  EXPECT_NE(r.out.find("-"), std::string::npos);
}

TEST(Commands, SelftestSmallRunPasses) {
  const auto r = run({"selftest", "--cases=5", "--welch-systems=0",
                      "--seed=7"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("selftest PASSED"), std::string::npos);
  EXPECT_NE(r.out.find("5 cases"), std::string::npos);
}

TEST(Commands, SelftestWritesParseableJsonReport) {
  const auto path =
      (std::filesystem::temp_directory_path() / "mlck_cmd_selftest.json")
          .string();
  const auto r = run({"selftest", "--cases=4", "--welch-systems=0",
                      "--out=" + path});
  ASSERT_EQ(r.code, 0) << r.err;
  const auto doc = util::Json::parse(core::read_file(path));
  EXPECT_DOUBLE_EQ(doc.at("cases_run").as_number(), 4.0);
  EXPECT_TRUE(doc.at("passed").as_bool());
  EXPECT_EQ(doc.at("seed").as_string(), "0x2a");
  std::filesystem::remove(path);
}

TEST(Commands, SelftestSingleCaseReplay) {
  const auto r = run({"selftest", "--cases=10", "--case=3"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("selftest PASSED"), std::string::npos);
  EXPECT_NE(r.out.find("1 case"), std::string::npos);
}

TEST(Commands, UnrecognizedOptionIsAUsageError) {
  const auto r = run({"systems", "--bogus=1"});
  EXPECT_EQ(r.code, 2);
  EXPECT_EQ(r.out, "");
  EXPECT_EQ(r.err.rfind("error: --bogus: unknown option\nusage: mlck systems",
                        0),
            0u)
      << r.err;
}

/// A valid value for a synopsis item's placeholder (or its default).
std::string sample_value(const std::string& placeholder) {
  if (placeholder.empty() || placeholder[0] != '<') return placeholder;
  if (placeholder == "<n>" || placeholder == "<u64>" || placeholder == "<x>") {
    return "3";
  }
  if (placeholder == "<law>") return "weibull:shape=0.7";
  if (placeholder == "<all|law+law...>") return "all";
  if (placeholder == "<name|file.json>") return "B";
  return "/nonexistent/value";
}

TEST(Commands, EveryDeclaredOptionParses) {
  // Each synopsis line is generated from its command's option table.
  // Passing every option it lists, each with a valid value, plus one
  // bogus flag must fail on the bogus flag alone: every documented flag
  // parses, and nothing runs before argv is checked.
  std::istringstream lines(usage());
  const std::regex command_re(R"(^usage: mlck (\S+))");
  const std::regex item_re(R"(\[--([a-z0-9-]+)(\[?=)?([^\]]*)\]?\])");
  std::vector<std::vector<std::string>> invocations;
  for (std::string line; std::getline(lines, line);) {
    std::smatch m;
    if (std::regex_search(line, m, command_re)) {
      invocations.push_back({m[1].str()});
    }
    ASSERT_FALSE(invocations.empty()) << line;
    for (auto it = std::sregex_iterator(line.begin(), line.end(), item_re);
         it != std::sregex_iterator(); ++it) {
      const std::string name = (*it)[1].str();
      if (!(*it)[2].matched) {
        invocations.back().push_back("--" + name);  // a flag
      } else {
        invocations.back().push_back("--" + name + "=" +
                                     sample_value((*it)[3].str()));
      }
    }
  }
  ASSERT_EQ(invocations.size(), 13u);
  for (auto args : invocations) {
    SCOPED_TRACE(testing::PrintToString(args));
    if (args[0] != "systems") {
      EXPECT_GT(args.size(), 1u);
    }
    args.push_back("--bogus-flag");
    const auto r = run(args);
    EXPECT_EQ(r.code, 2);
    EXPECT_EQ(r.out, "");
    EXPECT_EQ(first_line(r.err), "error: --bogus-flag: unknown option");
  }
}

}  // namespace
}  // namespace mlck::app
