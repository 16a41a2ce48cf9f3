#include "util.h"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

#include "obs/registry.h"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double self_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double pid_cpu_s(pid_t pid) {
  // The process CPU-time clock of another process: nanosecond resolution,
  // where /proc/<pid>/stat counts whole scheduler ticks.
  clockid_t clock = 0;
  timespec ts{};
  if (clock_getcpuclockid(pid, &clock) != 0 || clock_gettime(clock, &ts) != 0) {
    return 0.0;
  }
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb(pid_t pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

void Outcome::check(bool ok, const std::string& what) {
  count(1, ok ? 0 : 1, what);
}

void Outcome::count(std::uint64_t n, std::uint64_t bad,
                    const std::string& what) {
  attempted += n;
  failed += bad;
  if (bad > 0 && failures.size() < 16) {
    failures.push_back(what + " (" + std::to_string(bad) + " of " +
                       std::to_string(n) + ")");
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string metrics_json(const Metrics& m) {
  std::ostringstream out;
  out << '{';
  bool first = true;
  for (const auto& [name, metric] : m) {
    if (!first) out << ", ";
    first = false;
    char value[64];
    // Full precision: the numbers are reported as measured.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    out << '"' << json_escape(name) << "\": {\"value\": " << value
        << ", \"unit\": \"" << json_escape(metric.unit) << "\"}";
  }
  out << '}';
  return out.str();
}

Spans::Id Spans::add(const char* layer, Id parent, double start_s,
                     double end_s) {
  spans_.push_back({layer, parent, start_s, end_s});
  return static_cast<Id>(spans_.size());
}

bool Spans::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"id\":%zu,\"parent\":%u,\"layer\":\"%s\","
                  "\"start_s\":%.9f,\"dur_us\":%.3f}\n",
                  i + 1, s.parent, s.layer, s.start_s,
                  1e6 * (s.end_s - s.start_s));
    out << line;
  }
  return static_cast<bool>(out);
}

bool sanitizer_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return false;
#endif
}

std::string env_stamp_json(const Args& args) {
  const char* rev = std::getenv("PERFBENCH_REVISION");
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"compiler\": \"" << json_escape(__VERSION__) << "\""
      << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\""
      << ", \"funnel_obs\": \"" << (funnel::obs::kEnabled ? "ON" : "OFF")
      << "\", \"revision\": \"" << json_escape(rev != nullptr ? rev : "unknown")
      << "\", \"workload\": \"" << json_escape(args.workload)
      << "\", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
      << ", \"trace\": " << (args.trace ? 1 : 0) << "}";
  return out.str();
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
