#include "obs/attribution.h"

#include <algorithm>
#include <map>
#include <ostream>

#include "util/table.h"

namespace mlck::obs {

std::string attribution_counter(const std::string& span_name) {
  // The join table: each instrumented phase's unit-of-work counter.
  // Extend alongside docs/OBSERVABILITY.md when a new phase is
  // instrumented.
  static const std::map<std::string, std::string> kJoin = {
      {"optimizer.coarse_sweep", "optimizer.plans_swept"},
      {"optimizer.sweep_block", "optimizer.plans_swept"},
      {"optimizer.refine", "optimizer.plans_refined"},
      {"engine.context_build", "engine.context_cache.misses"},
      {"scenario.select_plan", "engine.evaluations"},
      {"scenario.simulate", "sim.trials"},
      {"pool.task", "pool.tasks_run"},
  };
  const auto it = kJoin.find(span_name);
  return it == kJoin.end() ? std::string() : it->second;
}

std::vector<PhaseCost> attribute_costs(const std::vector<SpanEvent>& spans,
                                       const RegistrySnapshot& snapshot) {
  // Resolve nesting per thread: sort by (start asc, end desc) so a parent
  // precedes the spans it contains, then stack-walk containment. Each
  // span's duration is charged to its *direct* parent's child time only,
  // so a grandchild never double-counts into the grandparent.
  std::map<int, std::vector<std::size_t>> by_thread;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_thread[spans[i].thread_id].push_back(i);
  }
  std::vector<double> child_us(spans.size(), 0.0);
  for (auto& [thread_id, order] : by_thread) {
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (spans[a].start_us != spans[b].start_us) {
        return spans[a].start_us < spans[b].start_us;
      }
      return spans[a].end_us > spans[b].end_us;
    });
    std::vector<std::size_t> stack;
    for (const std::size_t i : order) {
      while (!stack.empty() && spans[stack.back()].end_us <= spans[i].start_us) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        child_us[stack.back()] += spans[i].end_us - spans[i].start_us;
      }
      stack.push_back(i);
    }
  }

  std::map<std::string, std::uint64_t> counters(snapshot.counters.begin(),
                                                snapshot.counters.end());
  std::map<std::string, PhaseCost> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanEvent& span = spans[i];
    PhaseCost& cost = by_name[span.name];
    if (cost.spans == 0) {
      cost.name = span.name;
      cost.category = span.category;
      cost.counter = attribution_counter(span.name);
      if (!cost.counter.empty()) {
        const auto it = counters.find(cost.counter);
        if (it != counters.end()) cost.events = it->second;
      }
    }
    const double duration = span.end_us - span.start_us;
    cost.spans += 1;
    cost.total_us += duration;
    cost.child_us += child_us[i];
  }

  std::vector<PhaseCost> phases;
  phases.reserve(by_name.size());
  for (auto& [name, cost] : by_name) {
    cost.self_us = std::max(0.0, cost.total_us - cost.child_us);
    if (cost.total_us > 0.0 && cost.events > 0) {
      cost.events_per_sec =
          static_cast<double>(cost.events) / (cost.total_us * 1e-6);
    }
    phases.push_back(std::move(cost));
  }
  std::sort(phases.begin(), phases.end(),
            [](const PhaseCost& a, const PhaseCost& b) {
              if (a.total_us != b.total_us) return a.total_us > b.total_us;
              return a.name < b.name;  // deterministic tie-break
            });
  return phases;
}

util::Json attribution_json(const std::vector<PhaseCost>& phases) {
  util::Json::Array array;
  array.reserve(phases.size());
  for (const PhaseCost& cost : phases) {
    util::Json::Object entry;
    entry["name"] = util::Json(cost.name);
    entry["category"] = util::Json(cost.category);
    entry["spans"] = util::Json(static_cast<double>(cost.spans));
    entry["total_us"] = util::Json(cost.total_us);
    entry["self_us"] = util::Json(cost.self_us);
    entry["child_us"] = util::Json(cost.child_us);
    if (!cost.counter.empty()) {
      entry["counter"] = util::Json(cost.counter);
      entry["events"] = util::Json(static_cast<double>(cost.events));
      entry["events_per_sec"] = util::Json(cost.events_per_sec);
    }
    array.emplace_back(std::move(entry));
  }
  util::Json::Object doc;
  doc["phases"] = util::Json(std::move(array));
  return util::Json(std::move(doc));
}

void print_attribution(std::ostream& out,
                       const std::vector<PhaseCost>& phases) {
  util::Table table({"phase", "spans", "total ms", "self ms", "child ms",
                     "events", "events/s"});
  for (const PhaseCost& cost : phases) {
    table.add_row({cost.name, std::to_string(cost.spans),
                   util::Table::num(cost.total_us / 1e3, 3),
                   util::Table::num(cost.self_us / 1e3, 3),
                   util::Table::num(cost.child_us / 1e3, 3),
                   cost.counter.empty() ? "-" : std::to_string(cost.events),
                   cost.counter.empty()
                       ? "-"
                       : util::Table::num(cost.events_per_sec, 1)});
  }
  table.print(out);
}

}  // namespace mlck::obs
