#include "obs/trace.h"

#include <algorithm>
#include <utility>

#include "sim/simulator.h"
#include "systems/system_config.h"

namespace mlck::obs {

// TraceSink and Span are header-only (see trace.h); this translation unit
// holds the exporters and the auditor, which need the full simulator and
// system definitions.

// ---- Exporters -----------------------------------------------------------

namespace {

constexpr int kHostPid = 1;
constexpr int kSimPid = 2;
/// One simulated minute is rendered as one second of trace time.
constexpr double kSimMinuteToUs = 1e6;

const char* kind_name(sim::TraceEvent::Kind kind) {
  switch (kind) {
    case sim::TraceEvent::Kind::kCompute:
      return "compute";
    case sim::TraceEvent::Kind::kCheckpoint:
      return "checkpoint";
    case sim::TraceEvent::Kind::kRestart:
      return "restart";
    case sim::TraceEvent::Kind::kScratchRestart:
      return "scratch restart";
  }
  return "unknown";
}

std::string sim_event_name(const sim::TraceEvent& ev) {
  std::string name = kind_name(ev.kind);
  if (ev.system_level >= 0) {
    name += " L" + std::to_string(ev.system_level);
  }
  return name;
}

util::Json sim_event_args(const sim::TraceEvent& ev) {
  util::Json::Object args;
  args["completed"] = ev.completed;
  args["failure_severity"] = ev.failure_severity;
  args["truncated_by_cap"] = ev.truncated_by_cap;
  args["work"] = ev.work;
  args["system_level"] = ev.system_level;
  return util::Json(std::move(args));
}

struct ChromeRow {
  int pid = 0;
  int tid = 0;
  double ts = 0.0;  ///< sort key; metadata rows use -1 to lead their track
  util::Json event;
};

util::Json chrome_metadata(int pid, int tid, const char* what,
                           std::string value) {
  util::Json::Object args;
  args["name"] = std::move(value);
  util::Json::Object obj;
  obj["ph"] = "M";
  obj["pid"] = pid;
  obj["tid"] = tid;
  obj["name"] = what;
  obj["args"] = util::Json(std::move(args));
  return util::Json(std::move(obj));
}

}  // namespace

util::Json chrome_trace_json(const TraceSink* host,
                             const sim::TrialTraceCapture* trials) {
  std::vector<ChromeRow> rows;

  if (host != nullptr) {
    rows.push_back(
        {kHostPid, 0, -1.0, chrome_metadata(kHostPid, 0, "process_name",
                                            "mlck host")});
    for (const auto& [tid, name] : host->thread_names()) {
      rows.push_back(
          {kHostPid, tid, -1.0,
           chrome_metadata(kHostPid, tid, "thread_name", name)});
    }
    for (const SpanEvent& span : host->events()) {
      util::Json::Object obj;
      obj["ph"] = "X";
      obj["pid"] = kHostPid;
      obj["tid"] = span.thread_id;
      obj["ts"] = span.start_us;
      obj["dur"] = span.end_us - span.start_us;
      obj["name"] = span.name;
      obj["cat"] = span.category;
      rows.push_back({kHostPid, span.thread_id, span.start_us,
                      util::Json(std::move(obj))});
    }
  }

  if (trials != nullptr && !trials->trials.empty()) {
    rows.push_back(
        {kSimPid, 0, -1.0, chrome_metadata(kSimPid, 0, "process_name",
                                           "mlck simulator")});
    for (const sim::TrialTrace& trial : trials->trials) {
      const int tid = static_cast<int>(trial.trial);
      rows.push_back(
          {kSimPid, tid, -1.0,
           chrome_metadata(kSimPid, tid, "thread_name",
                           "trial " + std::to_string(trial.trial))});
      for (const sim::TraceEvent& ev : trial.events) {
        const double ts = ev.start * kSimMinuteToUs;
        util::Json::Object obj;
        obj["ph"] = "X";
        obj["pid"] = kSimPid;
        obj["tid"] = tid;
        obj["ts"] = ts;
        obj["dur"] = (ev.end - ev.start) * kSimMinuteToUs;
        obj["name"] = sim_event_name(ev);
        obj["cat"] = "sim";
        obj["args"] = sim_event_args(ev);
        rows.push_back({kSimPid, tid, ts, util::Json(std::move(obj))});
      }
    }
  }

  // Monotonic timestamps per (pid, tid) track; metadata rows lead.
  std::stable_sort(rows.begin(), rows.end(),
                   [](const ChromeRow& a, const ChromeRow& b) {
                     if (a.pid != b.pid) return a.pid < b.pid;
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return a.ts < b.ts;
                   });

  util::Json::Array events;
  events.reserve(rows.size());
  for (ChromeRow& row : rows) events.push_back(std::move(row.event));
  util::Json::Object doc;
  doc["traceEvents"] = util::Json(std::move(events));
  doc["displayTimeUnit"] = "ms";
  return util::Json(std::move(doc));
}

std::string trace_jsonl(const TraceSink* host,
                        const sim::TrialTraceCapture* trials) {
  std::string out;
  if (host != nullptr) {
    const auto names = host->thread_names();
    for (const SpanEvent& span : host->events()) {
      util::Json::Object obj;
      obj["type"] = "span";
      obj["name"] = span.name;
      obj["category"] = span.category;
      obj["thread"] = span.thread_id;
      if (const auto it = names.find(span.thread_id); it != names.end()) {
        obj["thread_name"] = it->second;
      }
      obj["start_us"] = span.start_us;
      obj["end_us"] = span.end_us;
      out += util::Json(std::move(obj)).dump();
      out += '\n';
    }
  }
  if (trials != nullptr) {
    for (const sim::TrialTrace& trial : trials->trials) {
      for (const sim::TraceEvent& ev : trial.events) {
        util::Json::Object obj;
        obj["type"] = "sim_event";
        obj["trial"] = static_cast<long long>(trial.trial);
        obj["kind"] = kind_name(ev.kind);
        obj["start"] = ev.start;
        obj["end"] = ev.end;
        obj["system_level"] = ev.system_level;
        obj["completed"] = ev.completed;
        obj["failure_severity"] = ev.failure_severity;
        obj["truncated_by_cap"] = ev.truncated_by_cap;
        obj["work"] = ev.work;
        out += util::Json(std::move(obj)).dump();
        out += '\n';
      }
    }
  }
  return out;
}

// ---- Trace auditor -------------------------------------------------------

TraceAuditReport audit_trial_trace(const systems::SystemConfig& system,
                                   const sim::TrialResult& result,
                                   const std::vector<sim::TraceEvent>& events) {
  using Kind = sim::TraceEvent::Kind;
  TraceAuditReport report;
  auto fail = [&report](std::string msg) {
    report.errors.push_back(std::move(msg));
  };

  if (events.empty()) {
    fail("trace is empty: a simulated trial records at least one event");
    return report;
  }

  // --- Tiling: events cover [0, total_time] with no gaps or overlaps. ---
  if (events.front().start != 0.0) {
    fail("first event starts at " + util::format_g17(events.front().start) +
         ", not 0");
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    const sim::TraceEvent& ev = events[i];
    if (ev.end < ev.start) {
      fail("event " + std::to_string(i) + " runs backwards: [" +
           util::format_g17(ev.start) + ", " + util::format_g17(ev.end) +
           "]");
    }
    if (i > 0 && ev.start != events[i - 1].end) {
      fail("event " + std::to_string(i) + " starts at " +
           util::format_g17(ev.start) + " but the previous event ended at " +
           util::format_g17(events[i - 1].end));
    }
  }
  if (events.back().end != result.total_time) {
    fail("last event ends at " + util::format_g17(events.back().end) +
         " but the trial reports total_time " +
         util::format_g17(result.total_time));
  }

  // --- Replay: rebuild the breakdown from the stream alone. The replay
  // mirrors the simulator's per-event accumulation order exactly, using
  // elapsed time for failed/truncated phases, the system's per-level
  // costs for completed checkpoints/restarts, and the committed-work
  // annotations for rework, so agreement is bit-for-bit.
  sim::SimBreakdown recon;
  double prev_work = 0.0;
  long long failures = 0;
  long long checkpoints_completed = 0;
  long long restarts_completed = 0;
  long long restarts_failed = 0;
  long long scratch_restarts = 0;
  bool saw_truncation = false;

  auto add_rework = [&recon](Kind kind, double lost) {
    if (lost <= 0.0) return;  // same guard as the simulator's add_rework
    switch (kind) {
      case Kind::kCompute:
        recon.rework_compute += lost;
        break;
      case Kind::kCheckpoint:
        recon.rework_checkpoint += lost;
        break;
      case Kind::kRestart:
        recon.rework_restart += lost;
        break;
      case Kind::kScratchRestart:
        break;
    }
  };

  for (std::size_t i = 0; i < events.size(); ++i) {
    const sim::TraceEvent& ev = events[i];
    const double elapsed = ev.end - ev.start;
    const bool failed = !ev.completed && ev.failure_severity >= 0;
    if (failed) ++failures;
    if (ev.truncated_by_cap) {
      saw_truncation = true;
      if (ev.completed || ev.failure_severity >= 0) {
        fail("event " + std::to_string(i) +
             " is truncated_by_cap yet marked completed or attributed to a "
             "failure severity");
      }
      if (i + 1 != events.size()) {
        fail("event " + std::to_string(i) +
             " is truncated_by_cap but is not the last event: the simulator "
             "stops at the cap");
      }
    }

    switch (ev.kind) {
      case Kind::kCompute: {
        if (failed) {
          // The simulator charges (work before the segment + the partial
          // segment) minus the post-rollback position to rework_compute.
          add_rework(Kind::kCompute, (prev_work + elapsed) - ev.work);
        }
        // Completed and cap-truncated computation both survive as useful
        // work; the final annotation carries it to recon.useful below.
        break;
      }
      case Kind::kCheckpoint: {
        const auto level = static_cast<std::size_t>(ev.system_level);
        if (ev.system_level < 0 ||
            level >= system.checkpoint_cost.size()) {
          fail("event " + std::to_string(i) + " checkpoint has level " +
               std::to_string(ev.system_level) + " outside the system's " +
               std::to_string(system.checkpoint_cost.size()) + " levels");
          break;
        }
        if (ev.completed) {
          // The simulator credits the configured cost, not end - start
          // (bitwise these can differ after accumulated additions).
          recon.checkpoint_ok += system.checkpoint_cost[level];
          ++checkpoints_completed;
        } else {
          recon.checkpoint_failed += elapsed;
          // A failure mid-checkpoint loses work only via the rollback to
          // the restore point; nothing was attempted beyond prev_work.
          if (failed) add_rework(Kind::kCheckpoint, prev_work - ev.work);
        }
        break;
      }
      case Kind::kRestart: {
        const auto level = static_cast<std::size_t>(ev.system_level);
        if (ev.system_level < 0 || level >= system.restart_cost.size()) {
          fail("event " + std::to_string(i) + " restart has level " +
               std::to_string(ev.system_level) + " outside the system's " +
               std::to_string(system.restart_cost.size()) + " levels");
          break;
        }
        if (ev.completed) {
          recon.restart_ok += system.restart_cost[level];
          ++restarts_completed;
        } else {
          recon.restart_failed += elapsed;
          if (failed) {
            ++restarts_failed;
            // Falling back to an older (or no) checkpoint discards the
            // difference between the two restore points.
            add_rework(Kind::kRestart, prev_work - ev.work);
          }
        }
        break;
      }
      case Kind::kScratchRestart: {
        ++scratch_restarts;
        if (elapsed != 0.0) {
          fail("event " + std::to_string(i) +
               " scratch restart should be instantaneous, spans " +
               util::format_g17(elapsed));
        }
        if (ev.work != 0.0) {
          fail("event " + std::to_string(i) +
               " scratch restart should reset committed work to 0, has " +
               util::format_g17(ev.work));
        }
        break;
      }
    }
    prev_work = ev.work;
  }
  recon.useful = prev_work;
  report.reconstructed = recon;

  // --- Breakdown: bit-for-bit against the trial's own accounting. ---
  const auto check_bucket = [&fail](const char* name, double got,
                                    double want) {
    if (got != want) {
      fail(std::string("reconstructed ") + name + " = " +
           util::format_g17(got) + " differs from SimBreakdown's " +
           util::format_g17(want));
    }
  };
  const sim::SimBreakdown& want = result.breakdown;
  check_bucket("useful", recon.useful, want.useful);
  check_bucket("checkpoint_ok", recon.checkpoint_ok, want.checkpoint_ok);
  check_bucket("checkpoint_failed", recon.checkpoint_failed,
               want.checkpoint_failed);
  check_bucket("restart_ok", recon.restart_ok, want.restart_ok);
  check_bucket("restart_failed", recon.restart_failed, want.restart_failed);
  check_bucket("rework_compute", recon.rework_compute, want.rework_compute);
  check_bucket("rework_checkpoint", recon.rework_checkpoint,
               want.rework_checkpoint);
  check_bucket("rework_restart", recon.rework_restart, want.rework_restart);

  // --- Counters. ---
  const auto check_count = [&fail](const char* name, long long got,
                                   long long want_count) {
    if (got != want_count) {
      fail(std::string("trace contains ") + std::to_string(got) + " " + name +
           " but the trial counted " + std::to_string(want_count));
    }
  };
  check_count("failures", failures, result.failures);
  check_count("completed checkpoints", checkpoints_completed,
              result.checkpoints_completed);
  check_count("completed restarts", restarts_completed,
              result.restarts_completed);
  check_count("failed restarts", restarts_failed, result.restarts_failed);
  check_count("scratch restarts", scratch_restarts, result.scratch_restarts);
  if (saw_truncation && !result.capped) {
    fail("trace contains a cap-truncated event but the trial is not marked "
         "capped");
  }

  return report;
}

}  // namespace mlck::obs
