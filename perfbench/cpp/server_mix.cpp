// server_mix: the service path. Open-loop SOLVE traffic from one
// generator thread over two connections (two independent build-farm
// clients, one tenant each) into an in-process server::Server with the
// allocation cache on. Payloads are medium .lt instances: a Zipf-weighted
// pool sent as exact repeats and as permuted/renamed repeats, plus
// cost-jittered near-repeats and cold uniques, so cache reads (hits) run
// beside cache writes (inserts and evictions). After the nominal rate, a
// closed loop with a fixed number of requests outstanding saturates the
// server and measures its capacity.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include <pthread.h>
#include <sched.h>

#include "alloc/fingerprint.hpp"
#include "check.hpp"
#include "common.hpp"
#include "server/server.hpp"
#include "server/worker.hpp"
#include "stages.hpp"
#include "trace.hpp"
#include "workloads/problem_io.hpp"

namespace perfbench {

using namespace lera;

namespace {

constexpr int kPoolSize = 32;
/// Variables of a pool instance; cold uniques draw 100 to 160. The few
/// most popular entries carry most repeats and jitters, so with seeded
/// sizes p50, p90 and capacity would follow the sizes the seed gave them.
constexpr int kPoolVars = 130;
/// Offered rate of the nominal phase. No measured traffic backs it. It is
/// fixed, so every build is measured under the same offered load, and set
/// at about a seventh of the capacity the closed loop below measures on a
/// 4-vCPU x86 VM, where the server is mostly idle between requests and
/// p50/p90 measure service time rather than queueing.
constexpr double kNominalRps = 100;
/// The capacity phase: a closed loop that keeps kCapacityWindow requests
/// outstanding (half per tenant, within the admission quotas), so the
/// engine never idles. Its answers are counted in kCapacitySlices equal
/// slices of the phase; the capacity is the median slice's rate, so a
/// stall of the host in one slice does not move it.
constexpr std::size_t kCapacityWindow = 8;
constexpr int kCapacitySlices = 16;
/// Shares of --seconds spent at the nominal rate and in the closed loop.
constexpr double kNominalShare = 0.55;
constexpr double kCapacityShare = 0.4;
/// The latency limit of a sustained rate: the closed loop's p90, which is
/// about kCapacityWindow over its rate, must stay under it.
constexpr double kLatencyLimitMs = 50;
constexpr int kEngineThreads = 2;
constexpr std::size_t kCacheEntries = 256;

// --- Payloads --------------------------------------------------------------

struct Instance {
  struct Var {
    int write = 0;
    std::vector<int> reads;
    bool live_out = false;
  };
  int steps = 0;
  int registers = 0;
  std::vector<Var> vars;
  /// Pairwise switching activities (a < b), three decimals.
  std::vector<std::tuple<int, int, int>> activity;
};

/// A random instance of \p n variables over n steps, with n / 12
/// registers and n pairwise activities.
Instance random_instance(std::mt19937_64& rng, int n) {
  Instance in;
  in.steps = n;
  in.registers = n / 12;
  for (int v = 0; v < n; ++v) {
    Instance::Var var;
    var.write = 1 + static_cast<int>(rng() % static_cast<std::uint64_t>(n - 2));
    const int first =
        var.write + 1 +
        static_cast<int>(rng() % static_cast<std::uint64_t>(n - var.write));
    var.reads.push_back(first);
    if (first < n && rng() % 2 == 0) {
      var.reads.push_back(
          first + 1 +
          static_cast<int>(rng() % static_cast<std::uint64_t>(n - first)));
    }
    var.live_out = rng() % 10 == 0;
    in.vars.push_back(var);
  }
  std::set<std::pair<int, int>> pairs;
  while (static_cast<int>(pairs.size()) < n) {
    int a = static_cast<int>(rng() % static_cast<std::uint64_t>(n));
    int b = static_cast<int>(rng() % static_cast<std::uint64_t>(n));
    if (a == b) continue;
    if (a > b) std::swap(a, b);
    if (pairs.insert({a, b}).second) {
      in.activity.emplace_back(a, b, static_cast<int>(rng() % 1000));
    }
  }
  return in;
}

/// Renders \p in as .lt text. With \p rename set, variables get fresh
/// names and the var and activity lines are shuffled: the same instance
/// in another declaration order.
std::string render(const Instance& in, std::mt19937_64* rename) {
  std::vector<std::string> names;
  const std::string prefix =
      rename != nullptr ? "n" + std::to_string((*rename)() % 100000) + "_"
                        : "v";
  for (std::size_t v = 0; v < in.vars.size(); ++v) {
    names.push_back(prefix + std::to_string(v));
  }
  std::vector<std::string> var_lines;
  for (std::size_t v = 0; v < in.vars.size(); ++v) {
    std::string line = "var " + names[v] + " write " +
                       std::to_string(in.vars[v].write) + " reads";
    for (int r : in.vars[v].reads) line += " " + std::to_string(r);
    if (in.vars[v].live_out) line += " liveout";
    var_lines.push_back(line);
  }
  std::vector<std::string> activity_lines;
  for (const auto& [a, b, milli] : in.activity) {
    char value[16];
    std::snprintf(value, sizeof value, "%d.%03d", milli / 1000, milli % 1000);
    activity_lines.push_back("activity " + names[static_cast<std::size_t>(a)] +
                             " " + names[static_cast<std::size_t>(b)] + " " +
                             value);
  }
  if (rename != nullptr) {
    std::shuffle(var_lines.begin(), var_lines.end(), *rename);
    std::shuffle(activity_lines.begin(), activity_lines.end(), *rename);
  }
  std::string text = "steps " + std::to_string(in.steps) + "\nregisters " +
                     std::to_string(in.registers) + "\n";
  for (const std::string& line : var_lines) text += line + "\n";
  for (const std::string& line : activity_lines) text += line + "\n";
  return text;
}

enum class Kind { kExact, kPermuted, kJittered, kCold };

struct Payload {
  std::string text;
  Kind kind = Kind::kCold;
  /// Equal for payloads that are the same instance up to renaming.
  std::int64_t semantic = 0;
};

/// The seeded traffic mix: 40% exact repeats, 20% permuted/renamed
/// repeats, 20% cost-jittered near-repeats (one activity changed), 20%
/// cold uniques; pool entries are Zipf-weighted (entry k ~ 1/(k+1)).
/// No trace of real compile-service traffic backs these shares: they are
/// assumptions, the same split and weights as bench_server's cache phase
/// (which also draws random lifetime sets), kept so the two agree.
class PayloadSource {
 public:
  explicit PayloadSource(std::uint64_t seed) : rng_(seed) {
    double z = 0;
    for (int k = 0; k < kPoolSize; ++k) {
      pool_.push_back(random_instance(rng_, kPoolVars));
      pool_text_.push_back(render(pool_.back(), nullptr));
      z += 1.0 / (k + 1);
      cdf_.push_back(z);
    }
  }

  /// The pool as exact payloads (the cache warm-up).
  std::vector<Payload> pool() const {
    std::vector<Payload> out;
    for (int k = 0; k < kPoolSize; ++k) {
      out.push_back({pool_text_[static_cast<std::size_t>(k)], Kind::kExact, k});
    }
    return out;
  }

  Payload next() {
    const std::uint64_t roll = rng_() % 100;
    const double u = static_cast<double>(rng_() % 1000000) / 1000000.0 *
                     cdf_.back();
    const int k = static_cast<int>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    const auto slot = static_cast<std::size_t>(std::min(k, kPoolSize - 1));
    if (roll < 40) return {pool_text_[slot], Kind::kExact, k};
    if (roll < 60) return {render(pool_[slot], &rng_), Kind::kPermuted, k};
    if (roll < 80) {
      // Named by what changed, so two equal jitters are one instance.
      Instance jittered = pool_[slot];
      const std::size_t which = rng_() % jittered.activity.size();
      int& milli = std::get<2>(jittered.activity[which]);
      milli = (milli + 1 + static_cast<int>(rng_() % 999)) % 1000;
      const std::int64_t semantic =
          kPoolSize + (static_cast<std::int64_t>(slot) * 4096 +
                       static_cast<std::int64_t>(which)) * 1000 + milli;
      return {render(jittered, nullptr), Kind::kJittered, semantic};
    }
    const int n = 100 + static_cast<int>(rng_() % 61);
    return {render(random_instance(rng_, n), nullptr), Kind::kCold,
            next_cold_++};
  }

 private:
  std::mt19937_64 rng_;
  std::vector<Instance> pool_;
  std::vector<std::string> pool_text_;
  std::vector<double> cdf_;
  std::int64_t next_cold_ = std::int64_t{1} << 40;
};

// --- Client side ------------------------------------------------------------

struct Response {
  std::string line;
  Clock::time_point at;
};

/// Verdict lines of every request, indexed by the request number in
/// their id ("r<N>"), plus the last STATS block; shared by the reader
/// threads of both connections.
class Inbox {
 public:
  void deliver(const std::string& line, Clock::time_point at) {
    std::istringstream fields(line);
    std::string type, id;
    fields >> type >> id;
    std::lock_guard<std::mutex> lock(mutex_);
    if (type == "LERA_METRIC") {
      double value = 0;
      fields >> value;
      stats_[id] = value;
    } else if (type == "LERA_STATS_END") {
      stats_done_ = true;
    } else if (id.size() > 1 && id[0] == 'r' &&
               id.find_first_not_of("0123456789", 1) == std::string::npos) {
      const std::size_t index = std::strtoul(id.c_str() + 1, nullptr, 10);
      if (index >= responses_.size()) responses_.resize(index + 1);
      if (!responses_[index].has_value()) ++answered_;
      responses_[index] = Response{line, at};
    }
    cv_.notify_all();
  }

  std::size_t answered() {
    std::lock_guard<std::mutex> lock(mutex_);
    return answered_;
  }

  bool wait_answered(std::size_t count, double timeout_s) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                        [&] { return answered_ >= count; });
  }

  std::optional<Response> response(std::size_t index) {
    std::lock_guard<std::mutex> lock(mutex_);
    return index < responses_.size() ? responses_[index] : std::nullopt;
  }

  void expect_stats() {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_done_ = false;
  }

  std::optional<std::map<std::string, double>> wait_stats(double timeout_s) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                      [&] { return stats_done_; })) {
      return std::nullopt;
    }
    return stats_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::optional<Response>> responses_;
  std::size_t answered_ = 0;
  std::map<std::string, double> stats_;
  bool stats_done_ = false;
};

/// One client connection: a MemoryChannel, the thread serving its server
/// end, and a reader thread delivering response lines to the inbox.
class Connection {
 public:
  Connection(server::Server& server, Inbox& inbox)
      : inbox_(inbox),
        server_thread_(
            [this, &server] { server.serve(channel_.server_end()); }),
        reader_thread_([this] { read_loop(); }) {}
  ~Connection() { finish(); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool send(const server::Frame& frame) {
    return channel_.client_end().write(server::encode_frame(frame));
  }

  /// Ends the request stream and waits for both threads.
  void finish() {
    if (finished_) return;
    finished_ = true;
    channel_.close_client_writes();
    server_thread_.join();
    channel_.close_server_writes();
    reader_thread_.join();
  }

 private:
  void read_loop() {
    char buffer[8192];
    std::string pending;
    for (;;) {
      const std::ptrdiff_t n =
          channel_.client_end().read(buffer, sizeof buffer);
      if (n == server::ByteStream::kReadAgain) continue;
      if (n <= 0) break;
      const Clock::time_point at = Clock::now();
      pending.append(buffer, static_cast<std::size_t>(n));
      std::size_t newline;
      while ((newline = pending.find('\n')) != std::string::npos) {
        inbox_.deliver(pending.substr(0, newline), at);
        pending.erase(0, newline + 1);
      }
    }
  }

  server::MemoryChannel channel_;
  Inbox& inbox_;
  bool finished_ = false;
  std::thread server_thread_;
  std::thread reader_thread_;
};

server::ServerOptions server_options() {
  server::ServerOptions o;
  o.engine.threads = kEngineThreads;
  o.engine.params.register_model = energy::RegisterModel::kActivity;
  o.engine.cache_entries = kCacheEntries;
  o.echo_assignment = true;  // The check reads the assignment back.
  return o;
}

/// Where the threads of a run go: the client side (the generator, the
/// client readers, and the server's per-connection reader and writer
/// threads, which start with the connections) on the first CPU the
/// process may use, the engine's solver threads on the others. Spread
/// over all CPUs, every hop of a request may have to wake a halted
/// virtual CPU, and on a busy host each such wake-up waits for the
/// host's scheduler: p50 then doubled from run to run.
struct CpuSplit {
  cpu_set_t client;
  cpu_set_t engine;
};

/// The split of the process's CPUs, or nothing with fewer than three.
std::optional<CpuSplit> split_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0 ||
      CPU_COUNT(&allowed) < 3) {
    return std::nullopt;
  }
  CpuSplit split;
  CPU_ZERO(&split.client);
  CPU_ZERO(&split.engine);
  bool first = true;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    CPU_SET(cpu, first ? &split.client : &split.engine);
    first = false;
  }
  return split;
}

/// A server plus its two client connections; connections end before
/// the server goes. Threads inherit the affinity of the thread that
/// starts them, so the calling thread is moved to the engine CPUs while
/// the server starts its engine, then to the client CPU for the rest of
/// the run.
struct Service {
  std::unique_ptr<server::Server> server;
  Inbox inbox;
  std::vector<std::unique_ptr<Connection>> connections;
  std::size_t sent = 0;

  explicit Service(const std::optional<CpuSplit>& cpus) {
    if (cpus) pthread_setaffinity_np(pthread_self(), sizeof(cpu_set_t),
                                     &cpus->engine);
    server = std::make_unique<server::Server>(server_options());
    if (cpus) pthread_setaffinity_np(pthread_self(), sizeof(cpu_set_t),
                                     &cpus->client);
    for (int c = 0; c < 2; ++c) {
      connections.push_back(std::make_unique<Connection>(*server, inbox));
    }
  }
  ~Service() { connections.clear(); }
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  std::size_t send(const std::string& payload) {
    const std::size_t index = sent++;
    server::Frame frame;
    frame.verb = server::FrameVerb::kSolve;
    frame.id = "r" + std::to_string(index);
    frame.tenant = index % 2 == 0 ? "farm-a" : "farm-b";
    frame.payload = payload;
    connections[index % 2]->send(frame);
    return index;
  }

  std::optional<std::map<std::string, double>> stats() {
    inbox.expect_stats();
    server::Frame frame;
    frame.verb = server::FrameVerb::kStats;
    frame.id = "stats";
    connections[0]->send(frame);
    return inbox.wait_stats(60);
  }
};

// --- Phases -----------------------------------------------------------------

struct Phase {
  std::string name;
  double rate = 0;  ///< Offered rate; 0 for the closed loop.
  std::size_t first = 0;  ///< Request number of the first send.
  std::vector<Payload> payloads;
  /// When each request was due: its slot in the open loop's schedule,
  /// its send in the closed loop.
  std::vector<Clock::time_point> due;
  std::vector<Clock::time_point> sent;
  Clock::time_point end;  ///< When the closed loop stopped sending.
  std::size_t backlog = 0;  ///< Unanswered requests at the last send.
  bool drained = false;
};

/// Sends \p phase.payloads at \p phase.rate on a fixed schedule (open
/// loop: a send never waits for an answer), then waits for the answers.
void run_open(Service& service, Phase& phase) {
  phase.first = service.sent;
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / phase.rate));
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  for (std::size_t j = 0; j < phase.payloads.size(); ++j) {
    const Clock::time_point due =
        start + interval * static_cast<Clock::rep>(j);
    std::this_thread::sleep_until(due);
    phase.due.push_back(due);
    phase.sent.push_back(Clock::now());
    service.send(phase.payloads[j].text);
  }
  phase.backlog = service.sent - service.inbox.answered();
  phase.drained = service.inbox.wait_answered(service.sent, 60);
}

/// Sends payloads from \p source for \p seconds, each as soon as fewer
/// than kCapacityWindow requests are unanswered (closed loop), then waits
/// for the answers. The next payload is made while the window is full.
void run_closed(Service& service, PayloadSource& source, Phase& phase,
                double seconds) {
  phase.first = service.sent;
  const Clock::time_point stop =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  Payload next = source.next();
  while (Clock::now() < stop) {
    if (service.sent >= kCapacityWindow &&
        !service.inbox.wait_answered(service.sent - kCapacityWindow + 1, 60)) {
      break;
    }
    const Clock::time_point now = Clock::now();
    phase.due.push_back(now);
    phase.sent.push_back(now);
    service.send(next.text);
    phase.payloads.push_back(std::move(next));
    next = source.next();
  }
  phase.end = Clock::now();
  phase.backlog = service.sent - service.inbox.answered();
  phase.drained = service.inbox.wait_answered(service.sent, 60);
}

/// A verdict line taken apart: its type and its key=value fields.
struct Verdict {
  std::string type;
  std::map<std::string, std::string> fields;
  bool cached = false;
  double latency_ms = 0;

  /// The field's value; "" when the line lacks it.
  std::string field(const std::string& key) const {
    const auto it = fields.find(key);
    return it == fields.end() ? "" : it->second;
  }
};

Verdict parse_verdict(const std::string& line) {
  Verdict v;
  std::istringstream in(line);
  std::string id, token;
  in >> v.type >> id;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) continue;
    v.fields[token.substr(0, eq)] = token.substr(eq + 1);
  }
  v.cached = v.fields.count("cached") != 0;
  v.latency_ms = std::strtod(v.field("latency_ms").c_str(), nullptr);
  return v;
}

/// \p line without its " latency_ms=<x>" field.
std::string strip_latency(const std::string& line) {
  const std::size_t pos = line.find(" latency_ms=");
  if (pos == std::string::npos) return line;
  const std::size_t end = line.find(' ', pos + 1);
  return line.substr(0, pos) +
         (end == std::string::npos ? "" : line.substr(end));
}

/// \p line without its request id and latency: requests with the same
/// payload and the same key carry the same answer.
std::string answer_key(const std::string& line) {
  const std::string s = strip_latency(line);
  const std::size_t a = s.find(' ');
  if (a == std::string::npos) return s;
  const std::size_t b = s.find(' ', a + 1);
  return s.substr(0, a) + (b == std::string::npos ? "" : s.substr(b));
}

netflow::SolverKind solver_named(const std::string& name) {
  for (auto kind : {netflow::SolverKind::kSuccessiveShortestPaths,
                    netflow::SolverKind::kCycleCanceling,
                    netflow::SolverKind::kNetworkSimplex,
                    netflow::SolverKind::kCostScaling}) {
    if (netflow::to_string(kind) == name) return kind;
  }
  return netflow::SolverKind::kAuto;
}

alloc::AllocatorOptions served_alloc_options() {
  alloc::AllocatorOptions o = server_options().engine.alloc;
  o.fallback_to_baseline = true;  // The server forces this on.
  return o;
}

/// Verdict of the untimed check on one (payload, answer line) pair.
struct LineCheck {
  std::string why;
  double energy = 0;
  /// Two-phase baseline energy; computed only for nominal-rate answers,
  /// the ones energy_vs_two_phase covers.
  double baseline = 0;
};

/// Rebuilds the answer from the line's assignment echo and checks it
/// like every other answer: the printed figures must match the
/// recount, the result must be clean under a full-cost audit and match
/// a second backend's objective.
LineCheck check_line(const std::string& payload, const Verdict& v,
                     bool corrupt) {
  LineCheck out;
  if (v.type != "LERA_RESULT") {
    out.why = v.type;
    return out;
  }
  if (v.field("status") != "ok") {
    out.why = "status=" + v.field("status");
    return out;
  }
  const energy::EnergyParams params = server_options().engine.params;
  const workloads::ProblemParseResult parsed =
      workloads::parse_problem(payload, params);
  if (!parsed.ok()) {
    out.why = "payload does not parse: " + parsed.error;
    return out;
  }
  const alloc::AllocationProblem& p = *parsed.problem;
  alloc::AllocationResult r;
  r.assignment = alloc::Assignment(p.segments.size());
  std::size_t seg = 0;
  std::istringstream tokens(v.field("assign"));
  std::string token;
  while (std::getline(tokens, token, ',')) {
    if (seg < p.segments.size() && token.size() > 1 && token[0] == 'r') {
      r.assignment.assign_register(
          seg, static_cast<int>(std::strtol(token.c_str() + 1, nullptr, 10)));
    }
    ++seg;
  }
  if (seg != p.segments.size()) {
    out.why = "assignment echo covers " + std::to_string(seg) + " of " +
              std::to_string(p.segments.size()) + " segments";
    return out;
  }
  const std::string issues = alloc::validate_assignment(p, r.assignment);
  if (!issues.empty()) {
    out.why = "invalid assignment: " + issues;
    return out;
  }
  r.feasible = true;
  r.solve_diagnostics.solver_used = solver_named(v.field("solver"));
  alloc::finish_result(p, r);
  r.model_energy = r.energy(p);
  if (corrupt) corrupt_result(r);
  // The line prints energy with six significant digits.
  const double printed = std::strtod(v.field("energy").c_str(), nullptr);
  if (std::fabs(printed - r.energy(p)) > 1e-5 * std::max(1.0, printed) ||
      std::to_string(r.stats.mem_accesses()) != v.field("mem_accesses") ||
      std::to_string(r.stats.reg_accesses()) != v.field("reg_accesses") ||
      std::to_string(r.stats.mem_locations) != v.field("mem_locations") ||
      std::to_string(r.registers_used) != v.field("registers_used")) {
    out.why = "printed figures do not match the assignment";
    return out;
  }
  out.why = check_answer(p, r, served_alloc_options());
  out.energy = r.energy(p);
  return out;
}

/// Two-phase baseline energy of a payload (0 when infeasible).
double payload_baseline(const std::string& payload) {
  const workloads::ProblemParseResult parsed =
      workloads::parse_problem(payload, server_options().engine.params);
  return parsed.ok() ? two_phase_energy(*parsed.problem) : 0.0;
}

/// Per-request outcome after the check.
struct Outcome {
  bool ok = false;
  bool rejected = false;
  double latency_ms = std::numeric_limits<double>::infinity();
  double wire_ms = 0;
  double energy_ratio = 0;
  bool cached = false;
};

struct PhaseSummary {
  std::size_t sent = 0, answered = 0, ok = 0, rejected = 0, failed = 0;
  double p50 = 0, p90 = 0, lag_p90 = 0, achieved_rps = 0;
  bool passed = false;
};

PhaseSummary summarize(const Phase& phase, const std::vector<Outcome>& outcome,
                       Service& service) {
  PhaseSummary s;
  s.sent = phase.payloads.size();
  std::vector<double> latencies, lags;
  Clock::time_point last = phase.due.empty() ? Clock::now() : phase.due.front();
  for (std::size_t j = 0; j < s.sent; ++j) {
    const Outcome& o = outcome[phase.first + j];
    const std::optional<Response> resp =
        service.inbox.response(phase.first + j);
    if (resp.has_value()) {
      ++s.answered;
      last = std::max(last, resp->at);
    }
    if (o.ok) ++s.ok;
    else if (o.rejected) ++s.rejected;
    else ++s.failed;
    latencies.push_back(o.latency_ms);
    lags.push_back(ms_between(phase.due[j], phase.sent[j]));
  }
  s.p50 = quantile(latencies, 0.5);
  s.p90 = quantile(latencies, 0.9);
  s.lag_p90 = quantile(lags, 0.9);
  const double span_s =
      phase.due.empty() ? 0 : ms_between(phase.due.front(), last) / 1000.0;
  s.achieved_rps = span_s > 0 ? static_cast<double>(s.ok) / span_s : 0;
  s.passed = phase.drained && s.ok == s.sent && s.p90 <= kLatencyLimitMs;
  return s;
}

/// The median over kCapacitySlices equal slices of the time \p phase
/// sent in of the rate of correct answers that arrived in the slice.
double median_slice_rps(const Phase& phase, const std::vector<Outcome>& outcome,
                        Service& service) {
  if (phase.sent.empty()) return 0;
  const Clock::time_point start = phase.sent.front();
  const double slice_ms = ms_between(start, phase.end) / kCapacitySlices;
  if (slice_ms <= 0) return 0;
  std::vector<double> answers(kCapacitySlices, 0);
  for (std::size_t j = 0; j < phase.payloads.size(); ++j) {
    if (!outcome[phase.first + j].ok) continue;
    const double at_ms =
        ms_between(start, service.inbox.response(phase.first + j)->at);
    const auto slice = static_cast<std::size_t>(at_ms / slice_ms);
    if (slice < answers.size()) ++answers[slice];
  }
  for (double& a : answers) a /= slice_ms / 1000.0;
  return quantile(answers, 0.5);
}

}  // namespace

RunResult run_server_mix(const Args& args) {
  RunResult out;
  std::unique_ptr<PayloadSource> source;
  std::unique_ptr<Service> service;
  std::vector<Payload> warmup;
  const std::optional<CpuSplit> cpus = split_cpus();
  const double setup_s = median_setup_seconds(5, [&] {
    service.reset();
    source = std::make_unique<PayloadSource>(mix_seed(args.seed, 21));
    service = std::make_unique<Service>(cpus);
    // Warm-up: every pool entry once, so the cache holds the popular
    // instances before the first timed request. Batches of 16 stay
    // within each tenant's admission quota.
    warmup = source->pool();
    for (std::size_t i = 0; i < warmup.size(); ++i) {
      service->send(warmup[i].text);
      if ((i + 1) % 16 == 0 || i + 1 == warmup.size()) {
        if (!service->inbox.wait_answered(service->sent, 60)) {
          out.fail("warm-up request went unanswered");
          return;
        }
      }
    }
  });

  // The nominal rate, then the closed loop; the answers are checked
  // after both.
  std::vector<Phase> phases(2);
  Phase& nominal = phases[0];
  Phase& capacity = phases[1];
  nominal.name = "nominal";
  nominal.rate = kNominalRps;
  const auto count =
      static_cast<std::size_t>(kNominalRps * args.seconds * kNominalShare);
  for (std::size_t j = 0; j < count; ++j) {
    nominal.payloads.push_back(source->next());
  }
  run_open(*service, nominal);
  // Read after the nominal phase: how many requests the closed loop
  // sends, and so how many the benchmark keeps for the check, depends on
  // the server's speed.
  const double peak_rss = peak_rss_mb();
  const server::MetricsSnapshot nominal_snapshot = service->server->metrics();
  std::optional<std::map<std::string, double>> nominal_stats =
      service->stats();
  capacity.name = "closed loop";
  run_closed(*service, *source, capacity, args.seconds * kCapacityShare);
  const server::MetricsSnapshot final_snapshot = service->server->metrics();

  std::vector<Outcome> outcome(service->sent);
  std::vector<PhaseSummary> summaries;
  std::vector<bool> first_occurrence(warmup.size(), true);
  std::unordered_set<std::int64_t> seen;
  for (const Payload& p : warmup) seen.insert(p.semantic);
  for (const Phase& phase : phases) {
    for (const Payload& p : phase.payloads) {
      first_occurrence.push_back(seen.insert(p.semantic).second);
    }
  }

  // Untimed check of every answer; identical (payload, answer) pairs
  // are checked once.
  const Clock::time_point check_start = Clock::now();
  std::unordered_map<std::string, LineCheck> checked_lines;
  int checked = 0;
  const std::size_t nominal_end = nominal.first + nominal.payloads.size();
  std::size_t repeats = 0, repeat_hits = 0, first_hits = 0;
  for (const Phase& phase : phases) {
    for (std::size_t j = 0; j < phase.payloads.size(); ++j) {
      const std::size_t index = phase.first + j;
      const Payload& payload = phase.payloads[j];
      Outcome& o = outcome[index];
      const std::optional<Response> resp = service->inbox.response(index);
      const bool in_nominal = index < nominal_end;
      ++out.attempted;
      if (!resp.has_value()) {
        ++out.failed;
        out.fail("request " + std::to_string(index) + " unanswered");
        continue;
      }
      const Verdict v = parse_verdict(resp->line);
      if (v.type == "LERA_REJECT") {
        o.rejected = true;
        ++out.failed;
        out.fail("request " + std::to_string(index) + " rejected in the " +
                 phase.name + ": " + resp->line);
        continue;
      }
      const bool repeat =
          payload.kind == Kind::kExact || payload.kind == Kind::kPermuted;
      if (in_nominal && repeat) {
        ++repeats;
        if (v.cached) ++repeat_hits;
      }
      if (v.cached && first_occurrence[index]) {
        ++first_hits;
        ++out.failed;
        out.fail("request " + std::to_string(index) +
                 " was served from the cache on its first occurrence");
        continue;
      }
      const std::string key = payload.text + "\n" + answer_key(resp->line);
      LineCheck* c = nullptr;
      const bool corrupt = checked == args.corrupt;
      const auto it = checked_lines.find(key);
      if (it != checked_lines.end() && !corrupt) {
        c = &it->second;
      } else {
        ++checked;
        c = &checked_lines[key];
        *c = check_line(payload.text, v, corrupt);
      }
      if (c->why.empty() && in_nominal && c->baseline == 0) {
        c->baseline = payload_baseline(payload.text);
        if (c->baseline <= 0) c->why = "two-phase baseline infeasible";
      }
      if (!c->why.empty()) {
        ++out.failed;
        out.fail("request " + std::to_string(index) + ": " + c->why);
        continue;
      }
      o.ok = true;
      o.cached = v.cached;
      o.latency_ms = ms_between(phase.due[j], resp->at);
      o.wire_ms = ms_between(phase.sent[j], resp->at) - v.latency_ms;
      if (in_nominal) o.energy_ratio = c->energy / c->baseline;
    }
  }
  for (const Phase& phase : phases) {
    const PhaseSummary s = summarize(phase, outcome, *service);
    summaries.push_back(s);
    std::ostringstream note;
    note << phase.name;
    if (phase.rate > 0) note << " rate " << phase.rate << " req/s";
    note << ": sent " << s.sent
         << ", answered " << s.answered << ", ok " << s.ok << ", rejected "
         << s.rejected << ", failed " << s.failed << ", p50 " << s.p50
         << " ms, p90 " << s.p90 << " ms, generator lag p90 " << s.lag_p90
         << " ms, backlog at last send " << phase.backlog << " -> "
         << (s.passed ? "sustained" : "not sustained");
    out.notes.push_back(note.str());
  }

  out.notes.push_back("server_mix: check " +
                      std::to_string(seconds_since(check_start)) + " s");
  std::vector<double> latencies, wires, lags, ratios;
  for (std::size_t j = 0; j < nominal.payloads.size(); ++j) {
    const Outcome& o = outcome[nominal.first + j];
    latencies.push_back(o.latency_ms);
    lags.push_back(ms_between(nominal.due[j], nominal.sent[j]));
    if (o.ok) {
      wires.push_back(o.wire_ms);
      ratios.push_back(o.energy_ratio);
    }
  }
  // The closed loop's rate, provided both phases met the latency limit
  // with every answer correct.
  const double max_rate = summaries[0].passed && summaries[1].passed
                              ? median_slice_rps(capacity, outcome, *service)
                              : 0.0;

  if (args.trace) {
    Tracer tracer;
    std::map<std::string, double> values;
    const alloc::AllocatorOptions options = served_alloc_options();
    const energy::EnergyParams params = server_options().engine.params;
    // Replay each answered nominal request's stages: a cold answer went
    // through parse, fingerprint and the allocate() stages; a cache hit
    // through parse and fingerprint, unless its exact bytes were already
    // served from the cache, which the server's text front answers
    // without either.
    std::unordered_set<std::string> text_front;
    double untraced_ms = 0;
    double traced_ms = 0;
    for (std::size_t j = 0; j < nominal.payloads.size(); ++j) {
      const std::size_t index = nominal.first + j;
      if (!outcome[index].ok) continue;
      const std::optional<Response> resp = service->inbox.response(index);
      const std::string& text = nominal.payloads[j].text;
      const int root = tracer.add(
          "server", Tracer::kRoot, tracer.ns_at(nominal.sent[j]),
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              resp->at - nominal.sent[j])
              .count());
      if (outcome[index].cached && !text_front.insert(text).second) continue;
      const bool cold = !outcome[index].cached;

      // Alternate which of the two replays goes first (see scale_cold).
      alloc::AllocationResult untraced;
      const auto run_untraced = [&] {
        const Clock::time_point t0 = Clock::now();
        const workloads::ProblemParseResult parsed =
            workloads::parse_problem(text, params);
        const alloc::FingerprintResult fp =
            alloc::fingerprint_problem(*parsed.problem);
        if (cold) untraced = alloc::allocate(*parsed.problem, options);
        untraced_ms += ms_between(t0, Clock::now());
      };
      alloc::AllocationResult r;
      const auto run_traced = [&] {
        const Clock::time_point t0 = Clock::now();
        workloads::ProblemParseResult parsed;
        {
          ScopedSpan span(tracer, "workloads.parse", root);
          parsed = workloads::parse_problem(text, params);
        }
        {
          ScopedSpan span(tracer, "alloc.fingerprint", root);
          const alloc::FingerprintResult fp =
              alloc::fingerprint_problem(*parsed.problem);
        }
        if (cold) r = traced_allocate(*parsed.problem, options, tracer, root);
        traced_ms += ms_between(t0, Clock::now());
      };
      if (j % 2 == 0) run_untraced();
      run_traced();
      if (j % 2 == 1) run_untraced();
      if (!cold) continue;
      const std::string replayed = server::format_verdict_line(
          "r" + std::to_string(index), r, server::classify_result(r), 0.0,
          true, false);
      std::string why = diff_results(untraced, r);
      if (why.empty() &&
          strip_latency(replayed) != strip_latency(resp->line) + "\n") {
        why = "another verdict line";
      }
      if (!why.empty()) {
        out.fail("replay of request " + std::to_string(index) + ": " + why);
      }
    }
    add_span_metrics(tracer, static_cast<double>(tracer.roots()), values);
    values["server.cache_hit_ratio"] =
        repeats > 0 ? static_cast<double>(repeat_hits) /
                          static_cast<double>(repeats)
                    : 0;
    if (nominal_stats.has_value()) {
      values["server.cache_text_hits"] =
          (*nominal_stats)["server_cache_text_hits"];
    }
    values["server.cache_hit_ms_p50"] =
        nominal_snapshot.cache_hit_latency.p50_ms;
    values["server.cache_first_occurrence_hits"] =
        static_cast<double>(first_hits);
    values["server.queue_wait_ms_p50"] = nominal_snapshot.queue_wait.p50_ms;
    values["server.queue_wait_ms_p95"] = nominal_snapshot.queue_wait.p95_ms;
    values["server.service_ms_p50"] = nominal_snapshot.latency.p50_ms;
    values["server.wire_ms_p50"] = quantile(wires, 0.5);
    values["server.capacity_rps"] = max_rate;
    for (int r = 0; r < server::kNumRejectReasons; ++r) {
      values["server.rejects." +
             server::to_string(static_cast<server::RejectReason>(r))] =
          static_cast<double>(final_snapshot.rejected_by_reason[
              static_cast<std::size_t>(r)]);
    }
    values["server.generator_lag_ms_p90"] = quantile(lags, 0.9);
    values["trace.attributed_share"] =
        tracer.stage_self_ms() / tracer.root_ms();
    values["trace.overhead_ratio"] =
        untraced_ms > 0 ? traced_ms / untraced_ms : 0;
    emit_metrics(per_layer_metrics(), values, out);
    if (!tracer.write(args.trace_dir + "/server_mix-seed" +
                      std::to_string(args.seed) + ".tsv")) {
      out.notes.push_back("could not write the span file");
    }
    return out;
  }

  const PhaseSummary& s = summaries.front();
  std::map<std::string, double> values = {
      {"setup_s", setup_s},
      {"latency_ms_p50", quantile(latencies, 0.5)},
      {"latency_ms_p90", quantile(latencies, 0.9)},
      // Open loop: answered requests per second at the nominal rate.
      {"throughput_rps", s.achieved_rps},
      {"energy_vs_two_phase", geomean(ratios)},
      {"peak_rss_mb", peak_rss},
  };
  emit_metrics(end_to_end_metrics(), values, out);
  out.reported.push_back({"max_rate_rps", max_rate, "req/s"});
  return out;
}

}  // namespace perfbench
