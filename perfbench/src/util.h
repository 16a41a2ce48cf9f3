// Shared plumbing of funnel_perfbench: clocks, process statistics,
// order statistics, the result/metric printer and the span recorder.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serve_bin;  ///< the funnel_serve built from the same sources
  std::string work_dir;   ///< working space for data roots and span files
};

/// Seconds on the steady clock.
double now_s();
/// CPU seconds consumed by this process (all threads).
double self_cpu_s();
/// CPU seconds consumed by process `pid` (all threads).
double pid_cpu_s(pid_t pid);
/// Peak resident set (VmHWM) in MB; pid 0 = this process.
double peak_rss_mb(pid_t pid = 0);

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double median(const std::vector<double>& v);
double mean(const std::vector<double>& v);

/// One named measurement with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Operation accounting shared by every workload: each check, request and
/// expected verdict is one attempted operation; any miss is one failure.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few reasons, for stderr

  void check(bool ok, const std::string& what);
  void count(std::uint64_t n, std::uint64_t bad, const std::string& what);
};

std::string metrics_json(const Metrics& m);
std::string json_escape(const std::string& s);

/// In-memory span recorder for the traced run. The benchmark opens spans
/// around its own calls into each layer's public functions; nothing inside
/// the program is instrumented. Spans are written out once, at the end.
class Spans {
 public:
  using Id = std::uint32_t;
  static constexpr Id kRoot = 0;

  /// Record a finished span and return its id (ids start at 1), which its
  /// children name as their parent.
  Id add(const char* layer, Id parent, double start_s, double end_s);
  /// JSON lines: {"id","parent","layer","start_s","dur_us"}.
  bool write(const std::string& path) const;

 private:
  struct Span {
    const char* layer;
    Id parent;
    double start_s;
    double end_s;
  };
  std::vector<Span> spans_;
};

/// What a workload hands back to main().
struct Result {
  Outcome outcome;
  Metrics gated;   ///< BENCHMARK.json end_to_end (untraced run)
  Metrics detail;  ///< the workload's own named end-to-end metrics
  Metrics layers;  ///< BENCHMARK.json per_layer (traced run)
  Spans spans;     ///< traced run only
};

/// The environment stamp printed with every output.
std::string env_stamp_json(const Args& args);

/// Build-time refusals: sanitizer builds never emit numbers.
bool sanitizer_build();

/// A minimal deterministic 64-bit mixer for seed derivation.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

}  // namespace perfbench
