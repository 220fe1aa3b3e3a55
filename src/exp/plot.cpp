#include "exp/plot.h"

#include <algorithm>
#include <cmath>
#include <ostream>

namespace mlck::exp {

namespace {

/// Gnuplot labels with spaces need quoting; embedded quotes are dropped
/// (labels here are system names and MTBF/PFS tags, never free text).
std::string quoted(const std::string& label) {
  std::string out = "\"";
  for (const char c : label) {
    if (c != '"') out += c;
  }
  out += '"';
  return out;
}

}  // namespace

void write_efficiency_dat(std::ostream& os,
                          const std::vector<ScenarioResult>& rows) {
  os << "# scenario";
  if (!rows.empty()) {
    for (const auto& o : rows.front().outcomes) {
      os << " \"" << o.selected.technique << " sim\" sd pred";
    }
  }
  os << "\n";
  int index = 0;
  for (const auto& row : rows) {
    os << index++ << ' ' << quoted(row.label);
    for (const auto& o : row.outcomes) {
      os << ' ' << o.stats.efficiency.mean << ' ' << o.stats.efficiency.stddev
         << ' ' << o.selected.predicted_efficiency;
    }
    os << "\n";
  }
}

void write_efficiency_gp(std::ostream& os, const std::string& dat_path,
                         const std::string& title,
                         const std::vector<std::string>& technique_names,
                         const std::string& output_png) {
  os << "set terminal pngcairo size 1400,700\n"
     << "set output " << quoted(output_png) << "\n"
     << "set title " << quoted(title) << "\n"
     << "set ylabel \"efficiency\"\n"
     << "set yrange [0:1.05]\n"
     << "set style data histogram\n"
     << "set style histogram errorbars gap 1 lw 1\n"
     << "set style fill solid 0.7 border -1\n"
     << "set boxwidth 0.9\n"
     << "set xtics rotate by -30\n"
     << "set key outside\n"
     << "plot ";
  // Bars with whiskers per technique, then the prediction diamonds.
  for (std::size_t t = 0; t < technique_names.size(); ++t) {
    const std::size_t sim_col = 3 + 3 * t;
    if (t) os << ", \\\n     ";
    os << quoted(dat_path) << " using " << sim_col << ":" << sim_col + 1
       << ":xtic(2) title " << quoted(technique_names[t]);
  }
  for (std::size_t t = 0; t < technique_names.size(); ++t) {
    const std::size_t pred_col = 5 + 3 * t;
    os << ", \\\n     " << quoted(dat_path) << " using :" << pred_col
       << " with points pt 12 ps 1.5 title "
       << quoted(technique_names[t] + " predicted");
  }
  os << "\n";
}

void write_prediction_error_dat(std::ostream& os,
                                const std::vector<ScenarioResult>& rows,
                                const std::string& sort_technique) {
  std::vector<const ScenarioResult*> order;
  order.reserve(rows.size());
  for (const auto& row : rows) order.push_back(&row);
  std::stable_sort(order.begin(), order.end(),
                   [&](const ScenarioResult* a, const ScenarioResult* b) {
                     return std::abs(
                                a->outcome(sort_technique).prediction_error()) <
                            std::abs(
                                b->outcome(sort_technique).prediction_error());
                   });
  os << "# test scenario";
  if (!rows.empty()) {
    for (const auto& o : rows.front().outcomes) {
      os << " \"" << o.selected.technique << " error\"";
    }
  }
  os << "\n";
  int index = 1;
  for (const ScenarioResult* row : order) {
    os << index++ << ' ' << quoted(row->label);
    for (const auto& o : row->outcomes) {
      os << ' ' << o.prediction_error();
    }
    os << "\n";
  }
}

void write_prediction_error_gp(
    std::ostream& os, const std::string& dat_path, const std::string& title,
    const std::vector<std::string>& technique_names,
    const std::string& output_png) {
  os << "set terminal pngcairo size 1400,600\n"
     << "set output " << quoted(output_png) << "\n"
     << "set title " << quoted(title) << "\n"
     << "set ylabel \"prediction error (predicted - simulated)\"\n"
     << "set xlabel \"test number (sorted by |" << technique_names.back()
     << " error|)\"\n"
     << "set key outside\n"
     << "set grid ytics\n"
     << "zero(x) = 0\n"
     << "plot zero(x) with lines lt rgb \"red\" notitle";
  for (std::size_t t = 0; t < technique_names.size(); ++t) {
    os << ", \\\n     " << quoted(dat_path) << " using 1:" << 3 + t
       << " with linespoints pt " << 5 + t << " title "
       << quoted(technique_names[t]);
  }
  os << "\n";
}

}  // namespace mlck::exp
