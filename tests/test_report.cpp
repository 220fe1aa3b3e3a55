#include <gtest/gtest.h>

#include <sstream>

#include "exp/report.h"
#include "systems/test_systems.h"

namespace mlck::exp {
namespace {

std::vector<ScenarioResult> sample_rows() {
  engine::ScenarioSpec spec;
  spec.trials = 6;
  spec.seed = 42;
  std::vector<ScenarioResult> rows;
  for (const char* name : {"D1", "D4"}) {
    spec.system = systems::table1_system(name);
    rows.push_back(compare_models(spec, name, kMultilevelModels));
  }
  return rows;
}

TEST(Report, EfficiencyTableListsEveryScenarioOnce) {
  const auto rows = sample_rows();
  std::ostringstream os;
  print_efficiency_table(os, "title-line", rows);
  const std::string text = os.str();
  EXPECT_EQ(text.find("title-line"), 0u);
  // Column triplet per technique.
  EXPECT_NE(text.find("Dauwe et al. sim"), std::string::npos);
  EXPECT_NE(text.find("Moody et al. sim"), std::string::npos);
  // One row per scenario (labels at line starts).
  EXPECT_NE(text.find("\nD1"), std::string::npos);
  EXPECT_NE(text.find("\nD4"), std::string::npos);
}

TEST(Report, EmptyRowsPrintOnlyTheTitle) {
  std::ostringstream os;
  print_efficiency_table(os, "empty", {});
  EXPECT_EQ(os.str(), "empty\n");
}

TEST(Report, BreakdownSharesRoughlySumToOneHundred) {
  const auto rows = sample_rows();
  std::ostringstream os;
  print_breakdown_table(os, "b", rows);
  // Parse the first data row's percentages and check they total ~100.
  std::istringstream in(os.str());
  std::string line;
  std::getline(in, line);  // title
  std::getline(in, line);  // header
  std::getline(in, line);  // separator
  std::getline(in, line);  // first data row
  double total = 0.0;
  std::size_t pos = 0;
  int cells = 0;
  while ((pos = line.find('%', pos)) != std::string::npos) {
    std::size_t start = line.rfind(' ', pos);
    total += std::stod(line.substr(start + 1, pos - start - 1));
    ++cells;
    ++pos;
  }
  EXPECT_EQ(cells, 8);
  EXPECT_NEAR(total, 100.0, 0.5);  // rounding of 8 cells
}

TEST(Report, PredictionErrorsSortedByMagnitude) {
  const auto rows = sample_rows();
  std::ostringstream os;
  print_prediction_error_table(os, "e", rows, "Dauwe et al.");
  const std::string text = os.str();
  EXPECT_NE(text.find("Dauwe et al. err"), std::string::npos);
  // Both scenarios appear, numbered 1 and 2.
  EXPECT_NE(text.find("\n1  "), std::string::npos);
  EXPECT_NE(text.find("\n2  "), std::string::npos);
}

TEST(Report, CsvHasHeaderAndOneLinePerOutcome) {
  const auto rows = sample_rows();
  std::ostringstream os;
  write_efficiency_csv(os, rows);
  const std::string text = os.str();
  // Header + 2 scenarios x 3 techniques.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 7);
  EXPECT_EQ(text.find("scenario,technique,plan"), 0u);
  EXPECT_NE(text.find("D1,Dauwe et al."), std::string::npos);
  EXPECT_NE(text.find("D4,Moody et al."), std::string::npos);
}

TEST(Report, CsvQuotesCommaLabels) {
  auto rows = sample_rows();
  rows[0].label = "MTBF=3, PFS=40";
  std::ostringstream os;
  write_efficiency_csv(os, rows);
  EXPECT_NE(os.str().find("\"MTBF=3, PFS=40\""), std::string::npos);
}

TEST(Outcome, PredictionErrorIsPredictedMinusSimulated) {
  engine::ScenarioOutcome o;
  o.selected.predicted_efficiency = 0.8;
  o.stats.efficiency.mean = 0.75;
  EXPECT_NEAR(o.prediction_error(), 0.05, 1e-12);
}

}  // namespace
}  // namespace mlck::exp
