// mlck_bench: the one benchmark for mlckd and local answers.
//
//   mlck_bench --seed=S --out=BENCH_suite.json [--workload=NAME]
//              [--trace=spans.jsonl] [--repeat=N] [--seconds=T] [--smoke]
//
// Runs each workload (README.md) in its own child process, so set-up time
// and peak RSS belong to that workload; prints every metric by name with
// its unit; byte-checks the answers against serve::evaluate; and writes
// one artifact with a provenance block. --trace adds the traced
// per-layer replay and writes its spans as JSONL. --repeat=N runs seeds
// S..S+N-1 and prints each metric's run-to-run spread. --smoke runs
// every workload with 1 s phases and also checks the generator.
// Exit 0 when every answer was right, 1 otherwise, 2 on bad usage.
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/serialize.h"
#include "suite.h"
#include "util/cli.h"

namespace {

using mlck::util::Json;
namespace suite = mlck::bench_suite;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

Json provenance(const mlck::util::Cli& cli, std::uint64_t seed) {
  Json::Array argv;
  for (const std::string& a : cli.raw_args()) argv.emplace_back(a);
  return Json(Json::Object{
      {"commit", Json(MLCK_BENCH_COMMIT)},
      {"compiler", Json(MLCK_BENCH_COMPILER)},
      {"build_type", Json(MLCK_BENCH_BUILD_TYPE)},
      {"cxx_flags", Json(MLCK_BENCH_CXX_FLAGS)},
      {"cpu", Json(cpu_model())},
      {"nproc", Json(static_cast<double>(std::thread::hardware_concurrency()))},
      {"pool_width", Json(static_cast<double>(suite::pool_width()))},
      {"client_connections", Json(static_cast<double>(suite::kConnections))},
      {"client_sender_threads",
       Json(static_cast<double>(suite::kConnections))},
      {"seed", Json(static_cast<double>(seed))},
      {"argv", Json(std::move(argv))}});
}

/// Runs one workload in a fresh child process (this binary, --child)
/// and returns its result document, with the child's peak RSS added.
Json run_child(const std::string& workload, std::uint64_t seed,
               const std::string& seconds, const std::string& trace,
               bool smoke) {
  std::vector<std::string> args = {"mlck_bench", "--child=" + workload,
                                   "--seed=" + std::to_string(seed),
                                   "--seconds=" + seconds};
  if (!trace.empty()) args.push_back("--trace=" + trace);
  if (smoke) args.push_back("--smoke");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::execv("/proc/self/exe", argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  std::string out;
  char buf[65536];
  for (ssize_t n; (n = ::read(fds[0], buf, sizeof buf)) != 0;) {
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  struct rusage usage {};
  while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || out.empty()) {
    throw std::runtime_error("workload " + workload + " child failed");
  }
  Json doc = Json::parse(out);
  Json::Object& fields = doc.make_object();
  Json::Object e2e = fields["end_to_end"].as_object();
  // ru_maxrss is the child's VmHWM, in KiB.
  e2e["peak_rss_mb"] = suite::metric(
      static_cast<double>(usage.ru_maxrss) / 1024.0, "MB", "lower");
  fields["end_to_end"] = Json(std::move(e2e));
  return doc;
}

void print_metrics(const Json& metrics) {
  for (const auto& [name, m] : metrics.as_object()) {
    std::printf("  %-44s %14.6g %s\n", name.c_str(),
                m.at("value").as_number(), m.at("unit").as_string().c_str());
  }
}

void print_workload(const Json& w) {
  std::printf("%s  seed=%.0f  stream=%s  %s",
              w.at("workload").as_string().c_str(), w.at("seed").as_number(),
              w.at("stream_hash").as_string().c_str(),
              w.at("loop").as_string().c_str());
  if (const Json* rate = w.find("rate_rps")) {
    std::printf(" at %.0f req/s", rate->as_number());
  }
  std::printf(", limit %.3g ms, %.0f latency samples\n",
              w.at("limit_ms").as_number(),
              w.at("latency_samples").as_number());
  print_metrics(w.at("end_to_end"));
  if (const Json* layers = w.find("per_layer")) print_metrics(*layers);
  std::printf("  attempted %.0f, failed %.0f (error_ratio %.6g), identity "
              "%.0f checked, %.0f mismatched%s\n",
              w.at("attempted").as_number(), w.at("failed").as_number(),
              w.at("error_ratio").as_number(),
              w.at("identity").at("checked").as_number(),
              w.at("identity").at("mismatches").as_number(),
              w.at("correct").as_bool() ? "" : "  ** INCORRECT **");
  if (const Json* g = w.find("generator"); g && !g->at("valid").as_bool()) {
    std::printf("  ** generator overslept %.0f us at p99 (bound %.0f us): "
                "run invalid **\n",
                g->at("oversleep_us_p99").as_number(),
                g->at("oversleep_bound_us").as_number());
  }
  if (const Json* smoke = w.find("smoke_failures")) {
    for (const Json& f : smoke->as_array()) {
      std::printf("  ** smoke: %s **\n", f.as_string().c_str());
    }
  }
}

/// (max - min) / median of every end-to-end metric across the runs.
Json spreads(const Json::Array& runs) {
  std::map<std::string, std::map<std::string, std::vector<double>>> values;
  for (const Json& run : runs) {
    for (const auto& [workload, doc] : run.at("workloads").as_object()) {
      for (const auto& [name, m] : doc.at("end_to_end").as_object()) {
        values[workload][name].push_back(m.at("value").as_number());
      }
    }
  }
  Json::Object out;
  for (auto& [workload, metrics] : values) {
    Json::Object per;
    for (auto& [name, v] : metrics) {
      const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
      const double range = *hi - *lo;
      const double spread = range / suite::percentile(v, 0.5);
      per[name] = Json(spread);
      std::printf("  %-18s %-16s spread %.4f over %zu runs\n", workload.c_str(),
                  name.c_str(), spread, v.size());
    }
    out[workload] = Json(std::move(per));
  }
  return Json(std::move(out));
}

int child_main(const mlck::util::Cli& cli, const suite::WorkloadDef& w,
               const suite::RunOptions& options) {
  std::ofstream spans;
  suite::RunOptions o = options;
  if (const auto path = cli.value("trace"); path && !path->empty()) {
    spans.open(*path, std::ios::app);
    o.spans = &spans;
  }
  std::cout << suite::run_workload(w, o).dump() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const mlck::util::Cli cli(argc, argv);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const std::string out = cli.get_string("out", "BENCH_suite.json");
  const std::string only = cli.get_string("workload", "");
  const std::string trace = cli.get_string("trace", "");
  const int repeat = cli.get_int("repeat", 1);
  const bool smoke = cli.get_bool("smoke", false);
  const double seconds = cli.get_double("seconds", 25.0);
  const std::string child = cli.get_string("child", "");
  if (const auto unknown = cli.unrecognized(); !unknown.empty()) {
    for (const auto& u : unknown) std::cerr << "unknown option --" << u << "\n";
    return 2;
  }
  if (repeat < 1 || !(seconds > 0.0) ||
      (!only.empty() && suite::find_workload(only) == nullptr)) {
    std::cerr << "usage: mlck_bench --seed=S --out=FILE [--workload=NAME] "
                 "[--trace=FILE] [--repeat=N] [--seconds=T] [--smoke]\n";
    return 2;
  }

  try {
    if (!child.empty()) {
      const suite::WorkloadDef* w = suite::find_workload(child);
      if (w == nullptr) return 2;
      suite::RunOptions o;
      o.seed = seed;
      o.trace = !trace.empty();
      o.smoke = smoke;
      // A traced run halves the measured phases to make room for the
      // replay; its end-to-end numbers are not the benchmark's.
      const double measured = o.trace ? seconds / 2 : seconds;
      o.phases.open_s = o.phases.closed_s = smoke ? 1.0 : measured / 2;
      o.phases.local_s = smoke ? 1.0 : measured;
      o.phases.replay_s = smoke ? 1.0 : seconds / 2;
      return child_main(cli, *w, o);
    }

    if (!trace.empty()) std::ofstream(trace, std::ios::trunc);
    Json::Array runs;
    bool correct = true;
    for (int r = 0; r < repeat; ++r) {
      const std::uint64_t run_seed = seed + static_cast<std::uint64_t>(r);
      Json::Object per_workload;
      for (const suite::WorkloadDef& w : suite::workloads()) {
        if (!only.empty() && only != w.name) continue;
        Json doc = run_child(w.name, run_seed, cli.get_string("seconds", "25"),
                             trace, smoke);
        print_workload(doc);
        correct = correct && doc.at("correct").as_bool();
        per_workload[w.name] = std::move(doc);
      }
      runs.emplace_back(Json::Object{
          {"seed", Json(static_cast<double>(run_seed))},
          {"workloads", Json(std::move(per_workload))}});
    }
    Json::Object artifact;
    artifact["schema"] = Json("mlck_bench/1");
    artifact["provenance"] = provenance(cli, seed);
    artifact["smoke"] = Json(smoke);
    if (repeat > 1) artifact["spread"] = spreads(runs);
    artifact["runs"] = Json(std::move(runs));
    mlck::core::write_file(out, Json(std::move(artifact)).dump(2) + "\n");
    std::printf("wrote %s\n", out.c_str());
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "mlck_bench: " << e.what() << "\n";
    return 1;
  }
}
