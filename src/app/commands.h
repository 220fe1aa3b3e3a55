#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace mlck::app {

/// Entry point of the `mlck` command-line tool, factored out of main()
/// so the test suite can drive every subcommand against in-memory
/// streams.
///
/// Each command declares its options once, in one table in commands.cpp
/// (name, value kind, default). argv is checked against it before the
/// command runs: an unknown flag, a stray argument, or a missing,
/// malformed or out-of-range value exits 2 with the command's synopsis,
/// which is generated from the same table. `mlck` alone prints every
/// synopsis.
///
/// Telemetry is always on (app::TelemetryScope, app/telemetry.h): the
/// commands that declare the telemetry options (optimize, predict, trace,
/// scenario, report, serve) own one metrics registry for the run, and
/// those flags only choose the outputs. `--metrics=file.json`
/// writes an observability sidecar (engine cache, optimizer sweep,
/// simulator, and thread-pool counters; schema and metric names in
/// docs/OBSERVABILITY.md) after the report; with no file the metrics
/// tables are printed instead. `--openmetrics=file.txt` writes the final
/// values in the OpenMetrics / Prometheus text exposition format.
/// `--timeline=file.jsonl` runs an obs::TelemetrySampler for the
/// duration of the run and writes the sampled per-metric time series —
/// cumulative values plus derived rates — as JSON Lines;
/// `--sample-period-ms` sets its cadence. Outputs are written in that
/// order (metrics, openmetrics, timeline). All of it is observe-only:
/// results are identical with and without any flag. Commands with a pool
/// size it by one rule: `--threads` when positive, else at least two
/// workers (app::pool_width).
///
/// `serve` runs mlckd, the persistent advisory daemon: a Unix-domain
/// socket speaking a length-prefixed JSON protocol (docs/SERVING.md).
/// Requests are admitted into a bounded queue, coalesced by canonical
/// request fingerprint so one optimizer run satisfies every waiter
/// asking the same question, executed on a shared thread pool, and
/// cached in a bounded multi-tenant LRU plan cache. Responses are
/// byte-identical to the direct evaluation path — cold, warm, or
/// coalesced. The daemon drains gracefully on SIGINT/SIGTERM or a
/// client `shutdown` op (in-flight work completes, new admissions are
/// rejected with a named error, telemetry flushes, exit 0). `optimize`
/// and `predict` gain `--connect=<socket>` to round-trip through a
/// running daemon instead of computing locally. For the Dauwe technique
/// and model both routes build the same request document; locally it is
/// answered by serve::evaluate, the daemon's own evaluation path.
///
/// `selftest` runs the randomized verification harness (src/verify,
/// docs/TESTING.md): generated cases checked against a numeric-quadrature
/// oracle, cross-implementation bit-identity, metamorphic properties, and
/// optimizer dominance, then a model-vs-simulator Welch validation.
/// Every failure line carries the case's stream seed and a one-line
/// replay command (`--case=K` reruns exactly that case). `--out` writes
/// the JSON report; exit 1 on any invariant failure (Welch rejections
/// gate only with `--welch-gate`).
///
/// `scenario` drives one declarative engine::ScenarioSpec end to end:
/// plan selection through the cached evaluation engine, then Monte-Carlo
/// validation under the spec's failure distribution. `--emit-spec` writes
/// a complete spec document for the given system to start from.
///
/// `scenario --trace=trace.json` writes a Chrome trace-event JSON file
/// (loadable in Perfetto / chrome://tracing) with host-side spans — plan
/// selection, optimizer sweep slices, context builds, pool tasks — one
/// track per pool worker, plus the event streams of the first
/// `--trace-trials` simulated trials, one track per trial.
///
/// `report` runs a scenario spec with a trace sink attached and prints the
/// per-phase cost attribution: wall time per span name (self vs nested
/// child time) joined with the phase's unit-of-work counter into an
/// events/sec throughput column (docs/OBSERVABILITY.md, "Cost
/// attribution"). `--json` writes the same table as JSON.
///
/// `trace` replays one deterministic trial (or `--trials=K` with derived
/// per-trial seeds) of the Dauwe-selected plan. `--format` picks the
/// event table, Chrome trace JSON, or JSONL; `--audit` replays each
/// captured stream through obs::audit_trial_trace and exits 1 unless the
/// events tile [0, total_time] and rebuild the trial's SimBreakdown
/// bit-for-bit (docs/OBSERVABILITY.md, "Tracing").
///
/// `--system` accepts a Table I name (M, B, D1..D9) or a path to a JSON
/// system document (see core/serialize.h for the schema).
///
/// Returns a process exit code: 0 success, 2 usage error, 1 runtime
/// failure (message on @p err).
int run_command(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err);

/// Every command's synopsis, one per line.
std::string usage();

}  // namespace mlck::app
