// lera_perfbench: runs one benchmark workload and prints its metrics.
//
//   lera_perfbench --workload scale_cold|dsp_app|server_mix --seed N
//                  --seconds S --trace 0|1 [--trace-dir DIR]
//                  [--paper-expected FILE] [--corrupt K]
//
// With --trace 0 the run measures the end-to-end metrics; with --trace 1
// it replays every request stage by stage under spans and reports the
// per-layer metrics. Either way every answer is checked after the
// measured loop, and the paper's examples are checked once. The last
// line of stdout is one JSON object; the exit code is 0 only when every
// check passed.

#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "check.hpp"
#include "common.hpp"

namespace {

using perfbench::Args;
using perfbench::RunResult;

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        args.trace = value != "0";
      } else if (key == "--trace-dir") {
        args.trace_dir = value;
      } else if (key == "--paper-expected") {
        args.paper_expected = value;
      } else if (key == "--corrupt") {
        args.corrupt = std::stoi(value);
      } else {
        return false;
      }
    } catch (...) {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: lera_perfbench --workload scale_cold|dsp_app|"
                 "server_mix --seed N --seconds S --trace 0|1\n";
    return 2;
  }
  RunResult result;
  if (args.workload == "scale_cold") {
    result = perfbench::run_scale_cold(args);
  } else if (args.workload == "dsp_app") {
    result = perfbench::run_dsp_app(args);
  } else if (args.workload == "server_mix") {
    result = perfbench::run_server_mix(args);
  } else {
    std::cerr << "unknown workload " << args.workload << "\n";
    return 2;
  }

  int paper_checked = 0;
  const std::vector<std::string> paper =
      perfbench::check_paper(args.paper_expected, paper_checked);
  result.attempted += paper_checked;
  result.failed += static_cast<std::int64_t>(paper.size());
  for (const std::string& why : paper) result.fail(why);

  for (const std::string& note : result.notes) std::cout << note << "\n";
  constexpr std::size_t kShownFailures = 20;
  for (std::size_t i = 0; i < result.failures.size(); ++i) {
    if (i == kShownFailures) {
      std::cout << "FAIL ... " << result.failures.size() - kShownFailures
                << " more\n";
      break;
    }
    std::cout << "FAIL " << result.failures[i] << "\n";
  }
  const double failed_ratio =
      result.attempted > 0 ? static_cast<double>(result.failed) /
                                 static_cast<double>(result.attempted)
                           : 1.0;
  for (const perfbench::Metric& m : result.metrics) {
    std::cout << "metric " << m.name << " " << number(m.value) << " "
              << m.unit << "\n";
  }
  // failed_ratio is 0 on a correct build, so it is printed for readers
  // and carried in the JSON result as the attempted/failed counts.
  if (!args.trace) {
    for (const perfbench::Metric& m : result.reported) {
      std::cout << "metric " << m.name << " " << number(m.value) << " "
                << m.unit << "\n";
    }
    std::cout << "metric failed_ratio " << number(failed_ratio) << " ratio\n";
  }

  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    std::cout << (i > 0 ? ", " : "") << "\"" << m.name
              << "\": {\"value\": " << number(m.value) << ", \"unit\": \""
              << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return result.correct ? 0 : 1;
}
