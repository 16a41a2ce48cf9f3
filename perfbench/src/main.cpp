// funnel_perfbench — one workload of the FUNNEL end-to-end benchmark.
//
//   funnel_perfbench --workload assess-week|serve-week|ingest-flood
//                    --seed N --seconds S --trace 0|1
//                    --serve-bin PATH --work-dir DIR [--spans FILE]
//
// stdout: an environment stamp line, a line with the workload's own named
// end-to-end metrics (untraced runs), and as the last line the result
// object {"correct", "attempted", "failed", "metrics"}: the BENCHMARK.json
// end_to_end metrics with --trace 0, the per_layer metrics with --trace 1.
//
// Exit codes: 0 result printed, 2 usage, 3 refused build (sanitizers, or
// FUNNEL_OBS=OFF, which compiles out the HTTP server the daemon workloads
// need), 4 the workload could not run.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "obs/registry.h"
#include "util.h"
#include "workloads.h"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload assess-week|serve-week|ingest-flood "
               "--seed N --seconds S --trace 0|1 --serve-bin PATH "
               "--work-dir DIR [--spans FILE]\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string spans_path;
  if (argc % 2 == 0) {  // every flag takes a value
    usage(argv[0]);
    return 2;
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--serve-bin") {
      args.serve_bin = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  const bool daemon_workload =
      args.workload == "serve-week" || args.workload == "ingest-flood";
  if ((args.workload != "assess-week" && !daemon_workload) ||
      args.seconds <= 0.0 || args.work_dir.empty() ||
      (daemon_workload && args.serve_bin.empty())) {
    usage(argv[0]);
    return 2;
  }

  std::printf("{\"env\": %s}\n", perfbench::env_stamp_json(args).c_str());
  std::fflush(stdout);
  if (perfbench::sanitizer_build()) {
    std::fprintf(stderr, "refused: sanitizer builds never report numbers\n");
    return 3;
  }
  if (!funnel::obs::kEnabled) {
    // The daemon workloads need the HTTP server, which FUNNEL_OBS=OFF
    // compiles out; no workload reports numbers from such a build.
    std::fprintf(stderr, "%s: %s under FUNNEL_OBS=OFF\n",
                 daemon_workload ? "not runnable" : "refused",
                 args.workload.c_str());
    return 3;
  }
  std::signal(SIGPIPE, SIG_IGN);
  std::filesystem::create_directories(args.work_dir);

  perfbench::Result result;
  try {
    if (args.workload == "assess-week") {
      result = perfbench::run_assess_week(args);
    } else if (args.workload == "serve-week") {
      result = perfbench::run_serve_week(args);
    } else {
      result = perfbench::run_ingest_flood(args);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 4;
  }

  const perfbench::Outcome& out = result.outcome;
  for (const std::string& f : out.failures) {
    std::fprintf(stderr, "FAILED: %s\n", f.c_str());
  }
  const perfbench::Metrics& metrics = args.trace ? result.layers : result.gated;
  if (metrics.empty()) {
    std::fprintf(stderr, "error: the workload produced no measurements\n");
    return 4;
  }
  if (!args.trace) {
    perfbench::Metrics detail = result.detail;
    detail["failed_frac"] = {
        out.attempted == 0 ? 1.0
                           : static_cast<double>(out.failed) /
                                 static_cast<double>(out.attempted),
        "ratio"};
    std::printf("{\"detail\": %s}\n", perfbench::metrics_json(detail).c_str());
  }
  if (args.trace && !spans_path.empty() && !result.spans.write(spans_path)) {
    std::fprintf(stderr, "warning: cannot write %s\n", spans_path.c_str());
  }
  const bool correct = out.failed == 0 && out.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              perfbench::metrics_json(metrics).c_str());
  return 0;
}
