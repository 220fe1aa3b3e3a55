#include <gtest/gtest.h>

#include <sstream>

#include "exp/plot.h"
#include "systems/test_systems.h"

namespace mlck::exp {
namespace {

std::vector<ScenarioResult> tiny_rows() {
  engine::ScenarioSpec spec;
  spec.trials = 8;
  spec.seed = 99;
  std::vector<ScenarioResult> rows;
  for (const char* name : {"D2", "D3"}) {
    spec.system = systems::table1_system(name);
    rows.push_back(compare_models(spec, name, kMultilevelModels));
  }
  return rows;
}

TEST(Plot, EfficiencyDatHasOneLinePerScenario) {
  const auto rows = tiny_rows();
  std::ostringstream os;
  write_efficiency_dat(os, rows);
  const std::string text = os.str();
  EXPECT_NE(text.find("# scenario"), std::string::npos);
  EXPECT_NE(text.find("\"Dauwe et al. sim\""), std::string::npos);
  EXPECT_NE(text.find("0 \"D2\""), std::string::npos);
  EXPECT_NE(text.find("1 \"D3\""), std::string::npos);
  // Header + 2 data lines.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
}

TEST(Plot, EfficiencyDatColumnsParseAsNumbers) {
  const auto rows = tiny_rows();
  std::ostringstream os;
  write_efficiency_dat(os, rows);
  std::istringstream in(os.str());
  std::string header;
  std::getline(in, header);
  int index;
  std::string label;
  double sim, sd, pred;
  in >> index >> label;
  for (int t = 0; t < 3; ++t) {
    in >> sim >> sd >> pred;
    EXPECT_GT(sim, 0.0);
    EXPECT_GE(sd, 0.0);
    EXPECT_GT(pred, 0.0);
    EXPECT_LE(pred, 1.0);
  }
  EXPECT_TRUE(in.good());
}

TEST(Plot, EfficiencyScriptReferencesDataAndTechniques) {
  std::ostringstream os;
  write_efficiency_gp(os, "fig2.dat", "Figure 2",
                      {"Dauwe et al.", "Di et al."}, "fig2.png");
  const std::string gp = os.str();
  EXPECT_NE(gp.find("set output \"fig2.png\""), std::string::npos);
  EXPECT_NE(gp.find("\"fig2.dat\""), std::string::npos);
  EXPECT_NE(gp.find("histogram errorbars"), std::string::npos);
  EXPECT_NE(gp.find("Dauwe et al. predicted"), std::string::npos);
  EXPECT_NE(gp.find("using 3:4:xtic(2)"), std::string::npos);
  EXPECT_NE(gp.find("using 6:7:xtic(2)"), std::string::npos);
}

TEST(Plot, PredictionErrorDatSortedByChosenTechnique) {
  const auto rows = tiny_rows();
  std::ostringstream os;
  write_prediction_error_dat(os, rows, "Moody et al.");
  std::istringstream in(os.str());
  std::string header;
  std::getline(in, header);
  double previous = -1.0;
  for (int line = 0; line < 2; ++line) {
    int index;
    std::string label;
    double dauwe, di, moody;
    in >> index >> label >> dauwe >> di >> moody;
    EXPECT_EQ(index, line + 1);
    EXPECT_GE(std::abs(moody), previous);
    previous = std::abs(moody);
  }
}

TEST(Plot, PredictionErrorScriptHasZeroLine) {
  std::ostringstream os;
  write_prediction_error_gp(os, "fig6.dat", "Figure 6",
                            {"Dauwe et al.", "Di et al.", "Moody et al."});
  const std::string gp = os.str();
  EXPECT_NE(gp.find("zero(x)"), std::string::npos);
  EXPECT_NE(gp.find("with linespoints"), std::string::npos);
  EXPECT_NE(gp.find("Moody et al."), std::string::npos);
}

TEST(Plot, QuotingStripsEmbeddedQuotes) {
  std::ostringstream os;
  write_efficiency_gp(os, "a\"b.dat", "t", {"x"});
  EXPECT_EQ(os.str().find("a\"b.dat"), std::string::npos);
  EXPECT_NE(os.str().find("\"ab.dat\""), std::string::npos);
}

}  // namespace
}  // namespace mlck::exp
