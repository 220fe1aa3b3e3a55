#include "exp/report.h"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "util/csv.h"
#include "util/table.h"

namespace mlck::exp {

using util::Table;

void print_efficiency_table(std::ostream& os, const std::string& title,
                            const std::vector<ScenarioResult>& rows) {
  os << title << '\n';
  if (rows.empty()) return;
  std::vector<std::string> header{"scenario"};
  for (const auto& o : rows.front().outcomes) {
    header.push_back(o.selected.technique + " sim");
    header.push_back("sd");
    header.push_back("pred");
  }
  Table table(std::move(header));
  for (const auto& row : rows) {
    std::vector<std::string> cells{row.label};
    for (const auto& o : row.outcomes) {
      cells.push_back(Table::pct(o.stats.efficiency.mean));
      cells.push_back(Table::pct(o.stats.efficiency.stddev));
      cells.push_back(Table::pct(o.selected.predicted_efficiency));
    }
    table.add_row(std::move(cells));
  }
  table.print(os);
}

void print_breakdown_table(std::ostream& os, const std::string& title,
                           const std::vector<ScenarioResult>& rows) {
  os << title << '\n';
  Table table({"scenario", "technique", "useful", "ckpt ok", "ckpt fail",
               "restart ok", "restart fail", "rework comp", "rework ckpt",
               "rework rst"});
  for (const auto& row : rows) {
    for (const auto& o : row.outcomes) {
      const auto& s = o.stats.time_shares;
      table.add_row({row.label, o.selected.technique, Table::pct(s.useful),
                     Table::pct(s.checkpoint_ok),
                     Table::pct(s.checkpoint_failed),
                     Table::pct(s.restart_ok), Table::pct(s.restart_failed),
                     Table::pct(s.rework_compute),
                     Table::pct(s.rework_checkpoint),
                     Table::pct(s.rework_restart)});
    }
  }
  table.print(os);
}

void print_prediction_error_table(std::ostream& os, const std::string& title,
                                  const std::vector<ScenarioResult>& rows,
                                  const std::string& sort_technique) {
  os << title << '\n';
  std::vector<const ScenarioResult*> order;
  order.reserve(rows.size());
  for (const auto& row : rows) order.push_back(&row);
  std::stable_sort(order.begin(), order.end(),
                   [&](const ScenarioResult* a, const ScenarioResult* b) {
                     return std::abs(a->outcome(sort_technique)
                                         .prediction_error()) <
                            std::abs(b->outcome(sort_technique)
                                         .prediction_error());
                   });

  if (rows.empty()) return;
  std::vector<std::string> header{"#", "scenario"};
  for (const auto& o : rows.front().outcomes) {
    header.push_back(o.selected.technique + " err");
  }
  Table table(std::move(header));
  int index = 1;
  for (const ScenarioResult* row : order) {
    std::vector<std::string> cells{std::to_string(index++), row->label};
    for (const auto& o : row->outcomes) {
      cells.push_back(Table::pct(o.prediction_error(), 2));
    }
    table.add_row(std::move(cells));
  }
  table.print(os);
}

void write_efficiency_csv(std::ostream& os,
                          const std::vector<ScenarioResult>& rows) {
  util::CsvWriter csv(os);
  csv.row({"scenario", "technique", "plan", "sim_efficiency_mean",
           "sim_efficiency_stddev", "predicted_efficiency", "trials",
           "capped_trials"});
  for (const auto& row : rows) {
    for (const auto& o : row.outcomes) {
      csv.row({row.label, o.selected.technique, o.selected.plan.to_string(),
               std::to_string(o.stats.efficiency.mean),
               std::to_string(o.stats.efficiency.stddev),
               std::to_string(o.selected.predicted_efficiency),
               std::to_string(o.stats.trials),
               std::to_string(o.stats.capped_trials)});
    }
  }
}

}  // namespace mlck::exp
