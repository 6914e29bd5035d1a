// dsp_app: the paper's §5 per-block methodology. Closed-loop
// engine::Engine::run over seeded applications built from the DSP
// kernel suite (FIR, IIR, elliptic wave filter, FFT-8 and FFT-16, DCT,
// matmul, 3x3 convolution, lattice, LMS, Viterbi, Goertzel, radar
// proxy), with trace-measured activities and memory relayout, on a fixed
// two-thread engine. Blocks have 11 to ~550 segments, so problem
// building, relayout, scheduling and per-solve fixed costs weigh about
// as much as the solves: a large-graph solver speedup should barely
// move this workload, and added per-call overhead shows.

#include <algorithm>
#include <limits>
#include <optional>
#include <random>

#include "alloc/memory_layout.hpp"
#include "check.hpp"
#include "common.hpp"
#include "engine/engine.hpp"
#include "stages.hpp"
#include "trace.hpp"
#include "workloads/kernels.hpp"

namespace perfbench {

using namespace lera;

namespace {

constexpr int kThreads = 2;
constexpr int kRegisters = 8;
/// Distinct applications per run, requested round-robin.
constexpr std::size_t kApps = 16;
constexpr double kLatencyLimitMs = 250;

/// Every application holds each kernel of the suite once, with seeded
/// sizes, order and dependencies. Keeping FFT-16 (the largest block) in
/// every application keeps request times unimodal, so the percentiles
/// do not flip between modes from run to run.
ir::TaskGraph make_app(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto pick = [&rng](int lo, int hi) {
    const auto span = static_cast<std::uint64_t>(hi - lo + 1);
    return lo + static_cast<int>(rng() % span);
  };
  std::vector<std::pair<std::string, ir::BasicBlock>> kernels = {
      {"fir", workloads::make_fir(pick(4, 12))},
      {"iir", workloads::make_iir_biquad()},
      {"ewf", workloads::make_elliptic_wave_filter()},
      {"fft8", workloads::make_fft(8)},
      {"fft16", workloads::make_fft(16)},
      {"dct", workloads::make_dct4()},
      {"matmul", workloads::make_matmul(pick(2, 3))},
      {"conv", workloads::make_conv3x3()},
      {"lattice", workloads::make_lattice(pick(2, 6))},
      {"lms", workloads::make_lms(pick(2, 8))},
      {"viterbi", workloads::make_viterbi_acs()},
      {"goertzel", workloads::make_goertzel(pick(2, 8))},
      {"rsp", workloads::make_rsp(pick(3, 6))},
  };
  std::shuffle(kernels.begin(), kernels.end(), rng);
  ir::TaskGraph graph;
  for (auto& [name, block] : kernels) {
    std::vector<ir::TaskId> deps;
    if (graph.num_tasks() > 0 && rng() % 2 == 0) {
      deps.push_back(static_cast<ir::TaskId>(rng() % graph.num_tasks()));
    }
    graph.add_task(name, std::move(block), deps);
  }
  return graph;
}

engine::EngineOptions engine_options(std::uint64_t seed, int threads) {
  engine::EngineOptions o;
  o.threads = threads;
  o.num_registers = kRegisters;
  o.params.register_model = energy::RegisterModel::kActivity;
  o.trace_seed = mix_seed(seed, 11);
  return o;
}

/// The allocator options the engine applies to a task solve.
alloc::AllocatorOptions task_alloc_options(const engine::EngineOptions& o) {
  alloc::AllocatorOptions a = o.alloc;
  a.fallback_to_baseline =
      a.fallback_to_baseline || o.degrade_on_solver_failure;
  return a;
}

/// One task's problem as the engine builds it: list schedule, then the
/// block under trace rows seeded trace_seed + task id (the engine's
/// uniform 16-bit rows, which workloads::random_inputs also produces).
alloc::AllocationProblem task_problem(const ir::Task& task,
                                      const engine::EngineOptions& o,
                                      Tracer* tracer, int root) {
  sched::Schedule schedule;
  {
    const int span =
        tracer != nullptr ? tracer->open("sched.list_schedule", root) : 0;
    schedule = sched::list_schedule(task.block, o.resources);
    if (tracer != nullptr) tracer->close(span);
  }
  const auto rows = workloads::random_inputs(
      task.block, o.trace_samples,
      o.trace_seed + static_cast<std::uint64_t>(task.id));
  const int span = tracer != nullptr ? tracer->open("alloc.problem", root) : 0;
  alloc::AllocationProblem p = alloc::make_problem_from_block(
      task.block, schedule, o.num_registers, o.params, rows, o.split);
  if (tracer != nullptr) tracer->close(span);
  return p;
}

std::string diff_layouts(const alloc::MemoryLayout& a,
                         const alloc::MemoryLayout& b) {
  if (a.feasible != b.feasible || a.locations != b.locations ||
      a.address != b.address) {
    return "memory layout differs";
  }
  if (a.optimized_activity != b.optimized_activity ||
      a.optimized_energy != b.optimized_energy ||
      a.naive_energy != b.naive_energy) {
    return "memory layout energy differs";
  }
  return "";
}

std::string diff_reports(const engine::PipelineReport& a,
                         const engine::PipelineReport& b) {
  if (a.tasks.size() != b.tasks.size()) return "task count differs";
  for (std::size_t t = 0; t < a.tasks.size(); ++t) {
    std::string why = diff_results(a.tasks[t].result, b.tasks[t].result);
    if (why.empty()) why = diff_layouts(a.tasks[t].layout, b.tasks[t].layout);
    if (!why.empty()) return "task " + a.tasks[t].name + ": " + why;
  }
  return "";
}

/// Engine::run replayed task by task on the calling thread under the
/// request root \p root; returns "" when every task's answer and layout
/// equal \p report's.
std::string traced_run(const ir::TaskGraph& graph,
                       const engine::EngineOptions& o,
                       const engine::PipelineReport& report, Tracer& tracer,
                       int root) {
  const std::vector<ir::TaskId> order = graph.topological_order();
  std::string why;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const ir::Task& task = graph.task(order[i]);
    const alloc::AllocationProblem p = task_problem(task, o, &tracer, root);
    const alloc::AllocationResult r =
        traced_allocate(p, task_alloc_options(o), tracer, root);
    alloc::MemoryLayout layout;
    if (r.feasible && o.relayout_memory) {
      ScopedSpan span(tracer, "alloc.relayout", root);
      layout = alloc::optimize_memory_layout(p, r.assignment, o.alloc.quantizer,
                                             o.alloc.solver);
    }
    if (why.empty() && i < report.tasks.size()) {
      why = diff_results(report.tasks[i].result, r);
      if (why.empty()) why = diff_layouts(report.tasks[i].layout, layout);
      if (!why.empty()) why = "task " + task.name + ": " + why;
    }
  }
  return why;
}

/// Untimed check of one application's answers. Returns "" when every
/// task is certified optimal with a consistent layout; \p ratio gets the
/// application's storage energy over the two-phase baseline's.
std::string check_app(const ir::TaskGraph& graph,
                      const engine::EngineOptions& o,
                      engine::PipelineReport& report, int& checked,
                      int corrupt, double& ratio) {
  if (!report.all_feasible) return "infeasible tasks";
  if (report.tasks_degraded > 0) return "degraded tasks";
  double energy = 0;
  double baseline = 0;
  for (engine::TaskReport& tr : report.tasks) {
    const alloc::AllocationProblem p =
        task_problem(graph.task(tr.task), o, nullptr, 0);
    if (checked++ == corrupt) corrupt_result(tr.result);
    std::string why = check_answer(p, tr.result, task_alloc_options(o));
    const alloc::MemoryLayout& layout = tr.layout;
    if (why.empty() && o.relayout_memory) {
      bool consistent = layout.feasible &&
                        layout.address.size() == tr.result.assignment.size();
      for (std::size_t s = 0; consistent && s < layout.address.size(); ++s) {
        consistent = tr.result.assignment.in_register(s)
                         ? layout.address[s] == -1
                         : layout.address[s] >= 0 &&
                               layout.address[s] < layout.locations;
      }
      if (!consistent) why = "memory layout does not match the assignment";
    }
    if (!why.empty()) return "task " + tr.name + ": " + why;
    const double base = two_phase_energy(p);
    if (base <= 0) return "task " + tr.name + ": two-phase baseline infeasible";
    energy += tr.result.model_energy;
    baseline += base;
  }
  ratio = energy / baseline;
  return "";
}

}  // namespace

RunResult run_dsp_app(const Args& args) {
  RunResult out;
  const engine::EngineOptions options = engine_options(args.seed, kThreads);
  std::vector<ir::TaskGraph> apps;
  std::unique_ptr<engine::Engine> eng;
  const double setup_s = median_setup_seconds(5, [&] {
    apps.clear();
    for (std::size_t a = 0; a < kApps; ++a) {
      apps.push_back(make_app(mix_seed(args.seed, 100 + a)));
    }
    eng.reset();
    eng = std::make_unique<engine::Engine>(options);
    // Warm-up: one application pages in the code and fills the
    // engine's pooled solver workspaces.
    if (!eng->run(apps[0]).all_feasible) out.fail("warm-up run infeasible");
  });
  // The traced run compares against the same work on one thread.
  const engine::EngineOptions sequential_options =
      engine_options(args.seed, 1);
  const engine::Engine sequential(sequential_options);
  // Its first run fills its pooled solver workspaces; keep that out of
  // the reference, as the set-up warm-up does for the measured engine.
  if (args.trace) sequential.run(apps[0]);

  Tracer tracer;
  // Repeats of an application must reproduce its first answer; only the
  // first report of each is kept for the full check.
  std::vector<std::optional<engine::PipelineReport>> first(kApps);
  std::vector<double> request_ms;
  std::vector<std::size_t> request_app;
  std::vector<std::string> request_diff;
  double busy_ms = 0;
  double wall_threads_ms = 0;
  // Traced run: per request, stage time and traced time over the same
  // Engine::run on one thread.
  std::vector<double> shares;
  std::vector<double> overheads;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i == 0 || seconds_since(start) < args.seconds; ++i) {
    const std::size_t app = i % kApps;
    const Clock::time_point t0 = Clock::now();
    engine::PipelineReport report = eng->run(apps[app]);
    const double ms = ms_between(t0, Clock::now());
    busy_ms += ms;
    request_ms.push_back(ms);
    request_app.push_back(app);
    request_diff.push_back(first[app] ? diff_reports(*first[app], report) : "");
    if (args.trace) {
      wall_threads_ms += ms * kThreads;
      // Alternate which of the two goes first (see scale_cold).
      std::string why;
      int root = 0;
      const auto replay = [&] {
        root = tracer.open("engine", Tracer::kRoot);
        why = traced_run(apps[app], options, report, tracer, root);
        tracer.close(root);
      };
      if (i % 2 == 1) replay();
      const Clock::time_point s0 = Clock::now();
      const engine::PipelineReport one = sequential.run(apps[app]);
      const double sequential_ms = ms_between(s0, Clock::now());
      if (i % 2 == 0) replay();
      shares.push_back(tracer.stage_ms(root) / sequential_ms);
      overheads.push_back(static_cast<double>(tracer.duration_ns(root)) /
                          1e6 / sequential_ms);
      if (why.empty()) why = diff_reports(report, one);
      if (!why.empty()) {
        out.fail("replay of request " + std::to_string(i) + " differs: " + why);
      }
    }
    if (!first[app]) first[app] = std::move(report);
  }
  const double peak_rss = peak_rss_mb();

  // Untimed check of each application's first answer.
  const Clock::time_point check_start = Clock::now();
  std::vector<std::string> app_failure(kApps);
  std::vector<double> app_ratio(kApps, 0.0);
  int checked = 0;
  for (std::size_t a = 0; a < kApps; ++a) {
    if (!first[a]) continue;
    app_failure[a] = check_app(apps[a], options, *first[a], checked,
                               args.corrupt, app_ratio[a]);
  }
  std::vector<double> latencies;
  std::vector<double> energy_ratio;
  for (std::size_t i = 0; i < request_ms.size(); ++i) {
    ++out.attempted;
    const std::size_t app = request_app[i];
    const std::string why =
        request_diff[i].empty()
            ? app_failure[app]
            : "differs from an earlier answer: " + request_diff[i];
    if (!why.empty()) {
      ++out.failed;
      latencies.push_back(std::numeric_limits<double>::infinity());
      out.fail("request " + std::to_string(i) + ": " + why);
      continue;
    }
    latencies.push_back(request_ms[i]);
    energy_ratio.push_back(app_ratio[app]);
  }
  out.notes.push_back("dsp_app: " + std::to_string(request_ms.size()) +
                      " Engine::run requests over " + std::to_string(kApps) +
                      " applications of 13 tasks, " +
                      std::to_string(kThreads) + " engine threads; check " +
                      std::to_string(seconds_since(check_start)) + " s");

  if (args.trace) {
    std::map<std::string, double> values;
    add_span_metrics(tracer, static_cast<double>(tracer.roots()), values);
    values["engine.parallel_efficiency"] =
        tracer.stage_self_ms() / wall_threads_ms;
    // Medians over requests, as in scale_cold.
    values["trace.attributed_share"] = quantile(shares, 0.5);
    values["trace.overhead_ratio"] = quantile(overheads, 0.5);
    emit_metrics(per_layer_metrics(), values, out);
    if (!tracer.write(args.trace_dir + "/dsp_app-seed" +
                      std::to_string(args.seed) + ".tsv")) {
      out.notes.push_back("could not write the span file");
    }
    return out;
  }
  const double p90 = quantile(latencies, 0.9);
  const double throughput =
      static_cast<double>(request_ms.size()) / (busy_ms / 1000.0);
  std::map<std::string, double> values = {
      {"setup_s", setup_s},
      {"latency_ms_p50", quantile(latencies, 0.5)},
      {"latency_ms_p90", p90},
      {"throughput_rps", throughput},
      {"energy_vs_two_phase", geomean(energy_ratio)},
      {"peak_rss_mb", peak_rss},
  };
  emit_metrics(end_to_end_metrics(), values, out);
  // One closed-loop client: its sustained rate is its completion rate,
  // provided p90 meets the latency limit (see scale_cold).
  out.reported.push_back(
      {"max_rate_rps",
       p90 <= kLatencyLimitMs && out.failed == 0 ? throughput : 0.0, "req/s"});
  return out;
}

}  // namespace perfbench
