#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

/// \file common.hpp
/// Shared pieces of the benchmark: command-line arguments, timing and
/// statistics helpers, and the result every workload run reports.

namespace perfbench {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to);
double seconds_since(Clock::time_point from);

/// Linear interpolation between closest ranks (the "inclusive" method of
/// Python's statistics.quantiles); p in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double p);
double geomean(const std::vector<double>& values);

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans.
  std::string trace_dir = ".bench_build/traces";
  /// Hand-written expectations for the paper's examples.
  std::string paper_expected = "perfbench/paper_expected.txt";
  /// Self-test hook: corrupt the Nth checked answer (one register
  /// segment moved to memory) before the correctness check runs, which
  /// must then fail. -1 = off.
  int corrupt = -1;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports.
struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool correct = true;
  /// One line per failed check, printed before the result.
  std::vector<std::string> failures;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// End-to-end metrics printed for readers but kept out of the JSON
  /// result, because BENCHMARK.json does not bound them.
  std::vector<Metric> reported;
  /// Human-readable context lines (per-phase rows and the like).
  std::vector<std::string> notes;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records a correctness failure; the run then exits nonzero.
  void fail(const std::string& why) {
    correct = false;
    failures.push_back(why);
  }
};

/// Runs \p setup \p times times (the workload's set-up: input generation,
/// engine/server construction and warm-up) and returns the median wall
/// time in seconds; the last set-up's state is the one that is kept.
template <typename F>
double median_setup_seconds(int times, F&& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < times; ++i) {
    const Clock::time_point start = Clock::now();
    setup();
    seconds.push_back(seconds_since(start));
  }
  return quantile(seconds, 0.5);
}

/// splitmix64 step: decorrelated sub-seeds from the workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

RunResult run_scale_cold(const Args& args);
RunResult run_dsp_app(const Args& args);
RunResult run_server_mix(const Args& args);

}  // namespace perfbench
