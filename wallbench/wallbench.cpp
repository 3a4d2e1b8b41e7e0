// Wall-clock benchmark of ptwgr: three seeded closed-loop workloads driven
// through the library's public calls only.  README.md in this directory
// gives the workloads, the metrics and which layer metric should move which
// end-to-end metric; run.py builds this program and is the entry point.
//
//   wallbench --workload NAME --seed N --seconds S --trace 0|1
//             --workdir DIR [--size full|tiny] [--inject none|drop-wire|fail-job]
//
// Untraced (--trace 0) runs install no collector and record no span; they
// print the end-to-end metrics.  Traced runs (--trace 1) first repeat the
// untraced loop, then run it again with the benchmark's own spans around
// every call into a layer (plus, around serial routes, the resource
// collector), and print the per-layer metrics.  Every repetition is checked;
// a failed check counts as a failed operation and its timing is dropped.
// The last stdout line is the result object run.py passes on.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ptwgr/circuit/generator.h"
#include "ptwgr/circuit/io.h"
#include "ptwgr/circuit/suite.h"
#include "ptwgr/obs/resource.h"
#include "ptwgr/parallel/parallel_router.h"
#include "ptwgr/route/metrics.h"
#include "ptwgr/route/router.h"
#include "ptwgr/serve/engine.h"
#include "ptwgr/support/rng.h"

namespace {

using namespace ptwgr;

// --- clocks and statistics -------------------------------------------------

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// The highest percentile with at least ten samples beyond it: the 11th
/// largest sample.  With 20 samples or fewer that percentile is not above the
/// median (or does not exist), so the highest one with a single sample beyond
/// it stands in: the second-largest sample, which one slow outlier cannot set
/// on its own (the maximum would be that outlier).  Below three samples the
/// median is all there is.  `percentile` says which one was taken.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
};

std::string percentile_label(const Tail& tail) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "p%.1f", tail.percentile);
  return buf;
}

Tail tail_of(std::vector<double> v) {
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t beyond = n > 20 ? 10 : 1;
  if (n <= beyond + 1) return {median(v), 50.0};
  return {v[n - beyond - 1],
          100.0 * static_cast<double>(n - beyond) / static_cast<double>(n)};
}

// --- output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< repetitions behind a median; 0 = single value
  std::string note;
  bool info = false;  ///< printed in the table only, not in the result
};

struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void add(std::string name, double value, std::string unit,
           std::size_t samples = 0, std::string note = "") {
    metrics.push_back(Metric{std::move(name), value, std::move(unit), samples,
                             std::move(note)});
  }
  void info(std::string name, double value, std::string unit,
            std::size_t samples, std::string note = "") {
    add(std::move(name), value, std::move(unit), samples, std::move(note));
    metrics.back().info = true;
  }
  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 20) failures.push_back(why);
    std::fprintf(stderr, "wallbench: check failed: %s\n", why.c_str());
  }
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// A readable table, one details line (sample counts and failures), then the
/// result object as the last line.
void print_report(const Report& report, const std::string& workload) {
  for (const Metric& m : report.metrics) {
    std::printf("%-34s %16.6f %-6s", m.name.c_str(), m.value, m.unit.c_str());
    if (m.samples > 0) std::printf("  n=%zu", m.samples);
    if (!m.note.empty()) std::printf("  (%s)", m.note.c_str());
    std::printf("\n");
  }
  std::string details = "{\"workload\": " + json_string(workload) +
                        ", \"failures\": [";
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    details += (i ? ", " : "") + json_string(report.failures[i]);
  }
  details += "], \"samples\": {";
  bool first = true;
  for (const Metric& m : report.metrics) {
    if (m.samples == 0) continue;
    details += std::string(first ? "" : ", ") + json_string(m.name) + ": " +
               std::to_string(m.samples);
    first = false;
  }
  std::printf("details %s}}\n", details.c_str());

  std::vector<const Metric*> results;
  for (const Metric& m : report.metrics) {
    if (!m.info) results.push_back(&m);
  }
  std::string result = "{\"correct\": ";
  result += report.failed == 0 ? "true" : "false";
  result += ", \"attempted\": " + std::to_string(report.attempted);
  result += ", \"failed\": " + std::to_string(report.failed);
  result += ", \"metrics\": {";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Metric& m = *results[i];
    result += (i ? ", " : "") + json_string(m.name) +
              ": {\"value\": " + json_number(m.value) +
              ", \"unit\": " + json_string(m.unit) + "}";
  }
  std::printf("%s}}\n", result.c_str());
  std::fflush(stdout);
}

// --- spans -----------------------------------------------------------------

/// The benchmark's own spans around calls into a layer.  Only traced
/// repetitions get a recorder; untraced ones pass nullptr and record nothing.
struct SpanLog {
  struct Span {
    std::string layer;
    double t0 = 0.0;
    double t1 = 0.0;
  };
  std::vector<Span> spans;

  double covered() const {
    double sum = 0.0;
    for (const Span& s : spans) sum += s.t1 - s.t0;
    return sum;
  }
};

/// Times `fn`, records a span when `log` is set, and returns the seconds.
template <class F>
double timed(SpanLog* log, const char* layer, F&& fn) {
  const double t0 = now_s();
  fn();
  const double t1 = now_s();
  if (log != nullptr) log->spans.push_back(SpanLog::Span{layer, t0, t1});
  return t1 - t0;
}

/// The per-layer "process" metrics of a traced run: tracing cost against the
/// untraced repetitions, and the share of the traced wall no span covers.
/// Spans come from one thread and never nest, so covering more than the wall
/// means two spans overlap — a broken measurement, counted as a failure.
void add_process_metrics(Report& report, double untraced_rep_s,
                         double traced_rep_s, const SpanLog& log,
                         double traced_wall_s) {
  const double covered = log.covered();
  if (covered > traced_wall_s * (1.0 + 1e-9) + 1e-6) {
    report.fail("layer spans sum to " + std::to_string(covered) +
                " s, more than the traced wall " +
                std::to_string(traced_wall_s) + " s");
  }
  std::map<std::string, double> by_layer;
  for (const SpanLog::Span& span : log.spans) {
    by_layer[span.layer] += span.t1 - span.t0;
  }
  for (const auto& [layer, seconds] : by_layer) {
    report.info("spans." + layer + "_s", seconds, "s", 0,
                "traced loop time inside calls into this layer");
  }
  report.info("untraced_rep_s", untraced_rep_s, "s", 0,
              "median repetition (serve: job cycle) without tracing");
  report.info("traced_rep_s", traced_rep_s, "s", 0, "the same, traced");
  report.add("trace_overhead",
             untraced_rep_s > 0 ? traced_rep_s / untraced_rep_s - 1.0 : 0.0,
             "ratio");
  report.add("unattributed_frac",
             traced_wall_s > 0 ? 1.0 - covered / traced_wall_s : 0.0, "ratio");
}

// --- inputs ----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string inject = "none";
  std::string workdir = ".";
};

bool same_metrics(const RoutingMetrics& a, const RoutingMetrics& b) {
  return a.track_count == b.track_count && a.area == b.area &&
         a.total_wirelength == b.total_wirelength &&
         a.feedthrough_count == b.feedthrough_count &&
         a.channel_density == b.channel_density &&
         a.coarse_decisions == b.coarse_decisions &&
         a.coarse_flips == b.coarse_flips &&
         a.switch_decisions == b.switch_decisions &&
         a.switch_flips == b.switch_flips;
}

struct SetupTimes {
  std::vector<double> total, generate, write;
};

/// Generates and writes the inputs five times (setup_s is their median);
/// the circuits of the last round are the ones routed.
constexpr int kSetupRounds = 5;

void add_setup_metrics(Report& report, const SetupTimes& t,
                       const std::vector<Circuit>& circuits, bool trace) {
  if (!trace) {
    report.add("setup_s", median(t.total), "s", t.total.size());
    return;
  }
  report.add("circuit.generate_s", median(t.generate), "s", t.generate.size());
  report.add("circuit.write_s", median(t.write), "s", t.write.size());
  std::size_t nets = 0, pins = 0, degree = 0;
  for (const Circuit& c : circuits) {
    nets += c.num_nets();
    pins += c.num_pins();
    for (const Net& net : c.nets()) degree = std::max(degree, net.pins.size());
  }
  report.add("circuit.nets", static_cast<double>(nets), "count");
  report.add("circuit.pins", static_cast<double>(pins), "count");
  report.add("circuit.max_net_degree", static_cast<double>(degree), "count");
}

/// The 220k-net circuit: the density of ptwgr_route --generate=200x200000
/// (nets = 1.1 × cells).  `tiny` shrinks it for the self-test.
GeneratorConfig big_circuit_config(const Options& opt) {
  GeneratorConfig config;
  config.seed = opt.seed;
  config.num_rows = opt.tiny ? 40 : 200;
  config.num_cells = opt.tiny ? 8000 : 200000;
  config.num_nets = config.num_cells + config.num_cells / 10;
  return config;
}

Circuit setup_big_circuit(const Options& opt, Report& report,
                          std::string& path) {
  const GeneratorConfig config = big_circuit_config(opt);
  path = opt.workdir + "/big-" + std::to_string(opt.seed) + ".ckt";
  SetupTimes t;
  Circuit circuit;
  for (int round = 0; round < kSetupRounds; ++round) {
    const double t0 = now_s();
    circuit = generate_circuit(config);
    const double t1 = now_s();
    write_circuit_file(path, circuit);
    const double t2 = now_s();
    t.generate.push_back(t1 - t0);
    t.write.push_back(t2 - t1);
    t.total.push_back(t2 - t0);
  }
  add_setup_metrics(report, t, {circuit}, opt.trace);
  return circuit;
}

/// Runs `rep` until `seconds` have passed (at least once); returns the wall.
template <class F>
double repeat_for(double seconds, F&& rep) {
  const double start = now_s();
  do {
    rep();
  } while (now_s() - start < seconds);
  return now_s() - start;
}

// --- serial route layer ------------------------------------------------------

struct SerialSample {
  StepTimings timings;
  RoutingMetrics metrics;
  double route_s = 0.0;
  double verify_s = 0.0;
  std::uint64_t alloc_count[5] = {};
  std::uint64_t alloc_bytes = 0;
};

constexpr const char* kSteps[5] = {"steiner", "coarse", "feedthrough",
                                   "connect", "switchable"};

/// route_serial + verify_routing.  With a span log the resource collector
/// also watches the route call.  `drop_wire` removes one wire before the
/// check (self-test).  Returns the violations.
std::vector<std::string> serial_route_and_verify(const Circuit& circuit,
                                                 std::uint64_t seed,
                                                 SpanLog* log, bool drop_wire,
                                                 SerialSample& s) {
  RouterOptions router;
  router.seed = seed;
  std::optional<obs::ResourceCollector> collector;
  if (log != nullptr) {
    collector.emplace();
    obs::set_active_resource(&*collector);
    // The thread keeps the last step's label; charge the input copy apart.
    obs::resource_set_phase("input");
  }
  RoutingResult result;
  s.route_s = timed(log, "route",
                    [&] { result = route_serial(circuit, router); });
  s.timings = result.timings;
  s.metrics = result.metrics;
  if (collector) {
    obs::set_active_resource(nullptr);
    const auto snap = collector->snapshot();
    s.alloc_bytes = snap.total_bytes;
    for (const auto& phase : snap.phases) {
      for (std::size_t k = 0; k < 5; ++k) {
        if (phase.phase == kSteps[k]) s.alloc_count[k] = phase.count;
      }
    }
  }
  if (drop_wire && !result.wires.empty()) {
    result.wires.erase(result.wires.begin());
  }
  std::vector<std::string> violations;
  s.verify_s = timed(log, "route", [&] {
    violations = verify_routing(result.circuit, result.wires);
  });
  return violations;
}

/// Folds one circuit's serial sample into a total over several circuits.
void accumulate(SerialSample& total, const SerialSample& s) {
  total.timings.steiner += s.timings.steiner;
  total.timings.coarse += s.timings.coarse;
  total.timings.feedthrough += s.timings.feedthrough;
  total.timings.connect += s.timings.connect;
  total.timings.switchable += s.timings.switchable;
  total.route_s += s.route_s;
  total.verify_s += s.verify_s;
  for (std::size_t k = 0; k < 5; ++k) total.alloc_count[k] += s.alloc_count[k];
  total.alloc_bytes += s.alloc_bytes;
  total.metrics.coarse_decisions += s.metrics.coarse_decisions;
  total.metrics.coarse_flips += s.metrics.coarse_flips;
  total.metrics.switch_decisions += s.metrics.switch_decisions;
  total.metrics.switch_flips += s.metrics.switch_flips;
  total.metrics.feedthrough_count += s.metrics.feedthrough_count;
}

double ratio(std::int64_t num, std::int64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

/// Per-layer route metrics: medians over traced repetitions; allocation
/// counts and flip ratios are deterministic and come from the first.
void add_route_metrics(Report& report, const std::vector<SerialSample>& v) {
  if (v.empty()) return;
  const std::size_t n = v.size();
  const auto add = [&](const char* name, auto get, const char* note = "") {
    std::vector<double> x;
    for (const SerialSample& s : v) x.push_back(get(s));
    report.add(name, median(std::move(x)), "s", n, note);
  };
  add("route.steiner_s", [](auto& s) { return s.timings.steiner; });
  add("route.coarse_s", [](auto& s) { return s.timings.coarse; });
  add("route.feedthrough_s", [](auto& s) { return s.timings.feedthrough; });
  add("route.connect_s", [](auto& s) { return s.timings.connect; });
  add("route.switchable_s", [](auto& s) { return s.timings.switchable; });
  add("route.other_s", [](auto& s) { return s.route_s - s.timings.total(); },
      "route_serial wall minus the five steps: input copy + metrics");
  add("route.verify_s", [](auto& s) { return s.verify_s; });
  const SerialSample& s = v.front();
  for (std::size_t k = 0; k < 5; ++k) {
    report.add(std::string("route.alloc_count.") + kSteps[k],
               static_cast<double>(s.alloc_count[k]), "count");
  }
  report.add("route.alloc_bytes", static_cast<double>(s.alloc_bytes), "bytes");
  const RoutingMetrics& m = s.metrics;
  report.add("route.coarse_flip_ratio",
             ratio(m.coarse_flips, m.coarse_decisions), "ratio");
  report.add("route.switch_flip_ratio",
             ratio(m.switch_flips, m.switch_decisions), "ratio");
  report.add("route.feedthroughs", static_cast<double>(m.feedthrough_count),
             "count");
}

/// One traced read of the written input: the circuit layer's load path.
void add_load_metric(Report& report, const std::string& path,
                     const Circuit& written) {
  Circuit loaded;
  const double s =
      timed(nullptr, "circuit", [&] { loaded = read_circuit_file(path); });
  if (loaded.num_nets() != written.num_nets() ||
      loaded.num_pins() != written.num_pins()) {
    report.fail("circuit read back from " + path + " differs from the written one");
  }
  report.add("circuit.load_s_p50", s, "s", 1, "one read of the written input");
}

/// End-to-end metrics shared by the closed loops over 220k-net routes.
/// `op_walls` are per-operation latencies of the checked operations, and a
/// repetition is `ops_per_rep` of them.  A loop fits only a few repetitions,
/// so the throughput is that of the median repetition: counting operations
/// over the loop's wall would make it a mean that one slow repetition moves.
void add_loop_metrics(Report& report, const std::vector<double>& rep_walls,
                      const std::vector<double>& rep_cpus,
                      const std::vector<double>& op_walls, int ops_per_rep,
                      std::int64_t tracks) {
  const double rep_wall = median(rep_walls);
  report.add("wall_s", rep_wall, "s", rep_walls.size());
  report.add("cpu_s", median(rep_cpus), "s", rep_cpus.size());
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.add("tracks", static_cast<double>(tracks), "count");
  report.add("jobs_per_s", rep_wall > 0 ? ops_per_rep / rep_wall : 0.0, "1/s",
             rep_walls.size(), "operations of the median repetition per second");
  report.add("job_latency_s_p50", median(op_walls), "s", op_walls.size());
  const Tail tail = tail_of(op_walls);
  report.add("job_latency_s_tail", tail.value, "s", op_walls.size(),
             percentile_label(tail));
}

// --- workload: serial-220k -------------------------------------------------

void run_serial_220k(const Options& opt, Report& report) {
  std::string path;
  const Circuit circuit = setup_big_circuit(opt, report, path);

  std::vector<double> rep_walls, rep_cpus;
  std::vector<SerialSample> traced;
  std::optional<RoutingMetrics> first;
  std::size_t rep = 0;
  SpanLog log;
  const auto loop = [&](SpanLog* spans) {
    return repeat_for(opt.seconds, [&] {
      ++report.attempted;
      SerialSample s;
      const double c0 = process_cpu_s();
      const auto violations = serial_route_and_verify(
          circuit, opt.seed, spans, opt.inject == "drop-wire" && rep == 0, s);
      const double cpu = process_cpu_s() - c0;
      ++rep;
      if (!violations.empty()) {
        report.fail("serial rep " + std::to_string(rep) + ": " +
                    std::to_string(violations.size()) +
                    " verify violations, first: " + violations.front());
        return;
      }
      if (!first) first = s.metrics;
      if (!same_metrics(*first, s.metrics)) {
        report.fail("serial rep " + std::to_string(rep) +
                    ": metrics differ from the first repetition");
        return;
      }
      rep_walls.push_back(s.route_s + s.verify_s);
      rep_cpus.push_back(cpu);
      if (spans != nullptr) traced.push_back(std::move(s));
    });
  };

  loop(nullptr);
  if (!opt.trace) {
    add_loop_metrics(report, rep_walls, rep_cpus, rep_walls, 1,
                     first ? first->track_count : 0);
    return;
  }
  const double untraced_rep = median(rep_walls);
  rep_walls.clear();
  const double traced_wall = loop(&log);
  add_route_metrics(report, traced);
  add_process_metrics(report, untraced_rep, median(rep_walls), log,
                      traced_wall);
  add_load_metric(report, path, circuit);
}

// --- workload: parallel-220k-4r ---------------------------------------------

struct ParallelSample {
  ParallelRoutingResult result;
  double route_s = 0.0;  ///< route_parallel alone
  double wall_s = 0.0;   ///< route_parallel + the result check
  double cpu_s = 0.0;
  bool ok = false;
};

/// route_parallel at 4 ranks on the ideal platform with keep_wires, then the
/// per-repetition checks that need no serial reference.
ParallelSample parallel_route_and_check(const Circuit& circuit,
                                        ParallelAlgorithm algorithm,
                                        std::uint64_t seed, SpanLog* log,
                                        bool drop_wire, Report& report) {
  ParallelOptions options;
  options.router.seed = seed;
  options.keep_wires = true;
  ParallelSample s;
  const double c0 = process_cpu_s();
  s.route_s = timed(log, "parallel", [&] {
    s.result = route_parallel(circuit, algorithm, 4, options,
                              mp::CostModel::ideal());
  });
  if (drop_wire && !s.result.wires.empty()) {
    s.result.wires.erase(s.result.wires.begin());
  }
  RoutingMetrics recomputed;
  const double check_s = timed(log, "parallel", [&] {
    recomputed = metrics_from_records(circuit.num_channels(), 0, 0,
                                      s.result.feedthrough_count,
                                      s.result.wires);
  });
  s.wall_s = s.route_s + check_s;
  s.cpu_s = process_cpu_s() - c0;

  const std::string what = to_string(algorithm);
  const mp::CommStats comm = s.result.comm_totals();
  if (s.result.recovery.attempts != 0) {
    report.fail(what + ": " + std::to_string(s.result.recovery.attempts) +
                " recovery attempts");
  } else if (comm.p2p_retries != 0 || comm.p2p_drops != 0) {
    report.fail(what + ": p2p retries/drops on a fault-free run");
  } else if (recomputed.track_count != s.result.metrics.track_count ||
             recomputed.total_wirelength != s.result.metrics.total_wirelength) {
    report.fail(what + ": tracks/wirelength recomputed from the gathered "
                "wires differ from the reported metrics");
  } else {
    s.ok = true;
  }
  return s;
}

struct AlgorithmSamples {
  ParallelAlgorithm algorithm;
  std::vector<ParallelSample> untraced, traced;
  std::optional<RoutingMetrics> first;
};

/// The paper's quality band: a parallel solution may use at most 15% more
/// tracks than the serial one.
constexpr double kMaxTracksRatio = 1.15;

/// The checks of a route that need the algorithm's earlier routes or the
/// serial reference: the same metrics as the first passing route, within the
/// quality band.  Clears `s.ok` on a failure.
void check_against_first(AlgorithmSamples& a, std::int64_t serial_tracks,
                         ParallelSample& s, Report& report) {
  if (!s.ok) return;
  const std::string what = to_string(a.algorithm);
  const RoutingMetrics& m = s.result.metrics;
  if (!a.first) a.first = m;
  if (!same_metrics(*a.first, m)) {
    report.fail(what + ": metrics differ from the first repetition");
    s.ok = false;
  } else if (static_cast<double>(m.track_count) >
             kMaxTracksRatio * static_cast<double>(serial_tracks)) {
    report.fail(what + ": tracks " + std::to_string(m.track_count) +
                " above the quality band (serial " +
                std::to_string(serial_tracks) + ")");
    s.ok = false;
  }
}

/// Taskgraph routes of the traced parallel run.  Taskgraph has no timed
/// workload: its 4 workers claim tasks in virtual-time order, so on a shared
/// 4-core host one descheduled worker stalls the rest, and over ten seeds its
/// median wall spread by up to 0.22 of the median, next to the 0.25 bound.
constexpr int kTaskgraphRoutes = 3;

void add_parallel_layer_metrics(Report& report, const AlgorithmSamples& a,
                                std::int64_t serial_tracks) {
  const std::string p = "parallel." + to_string(a.algorithm) + ".";
  const std::string m = "mp." + to_string(a.algorithm) + ".";
  const std::size_t n = a.traced.size();
  if (n == 0) return;
  std::vector<double> wall, modeled, cpu, spin, imbalance, outside, w_over_m,
      p2p_wait, coll_sync;
  for (const ParallelSample& s : a.traced) {
    const mp::RunReport& r = s.result.report;
    const mp::CommStats c = s.result.comm_totals();
    wall.push_back(s.wall_s);
    modeled.push_back(s.result.modeled_seconds());
    cpu.push_back(r.total_cpu_seconds());
    spin.push_back(r.total_cpu_seconds() - c.compute_seconds);
    imbalance.push_back(r.parallel_time() / std::max(1e-12, mean(r.rank_vtime)));
    outside.push_back(s.route_s - r.wall_seconds);
    w_over_m.push_back(s.route_s / std::max(1e-12, s.result.modeled_seconds()));
    p2p_wait.push_back(c.p2p_wait_seconds);
    coll_sync.push_back(c.collective_sync_seconds);
  }
  report.add(p + "wall_s", median(wall), "s", n);
  report.add(p + "modeled_s", median(modeled), "s", n);
  report.add(p + "rank_cpu_s", median(cpu), "s", n);
  report.add(p + "spin_s", median(spin), "s", n);
  report.add(p + "imbalance", median(imbalance), "ratio", n);
  report.add(p + "outside_run_s", median(outside), "s", n);
  report.add(p + "wall_over_modeled", median(w_over_m), "ratio", n);
  report.add(p + "tracks_ratio",
             static_cast<double>(a.traced.front().result.metrics.track_count) /
                 static_cast<double>(std::max<std::int64_t>(1, serial_tracks)),
             "ratio");
  const mp::CommStats c = a.traced.front().result.comm_totals();
  report.add(m + "messages", static_cast<double>(c.messages_sent), "count");
  report.add(m + "bytes", static_cast<double>(c.bytes_sent), "bytes");
  report.add(m + "collective_calls",
             static_cast<double>(c.total_collective_calls()), "count");
  report.add(m + "p2p_wait_s", median(p2p_wait), "s", n, "summed over ranks");
  report.add(m + "collective_sync_s", median(coll_sync), "s", n,
             "summed over ranks");
  report.add(m + "retries", static_cast<double>(c.p2p_retries), "count");
}

void run_parallel_220k(const Options& opt, Report& report) {
  std::string path;
  const Circuit circuit = setup_big_circuit(opt, report, path);

  // The serial reference for the quality band, routed before the loops.
  SerialSample serial;
  SpanLog reference_log;
  const auto violations = serial_route_and_verify(
      circuit, opt.seed, opt.trace ? &reference_log : nullptr, false, serial);
  if (!violations.empty()) report.fail("serial reference fails verify_routing");
  const std::int64_t serial_tracks = serial.metrics.track_count;

  std::vector<AlgorithmSamples> algs;
  for (const ParallelAlgorithm a :
       {ParallelAlgorithm::RowWise, ParallelAlgorithm::NetWise,
        ParallelAlgorithm::Hybrid}) {
    algs.push_back({a, {}, {}, {}});
  }
  std::vector<double> rep_walls, rep_cpus;
  bool injected = false;
  SpanLog log;

  // One repetition routes every algorithm once, in a fixed order.  Its wall
  // and CPU enter the medians only when every route in it passed.
  const auto loop = [&](SpanLog* spans) {
    return repeat_for(opt.seconds, [&] {
      double wall = 0.0, cpu = 0.0;
      bool all_ok = true;
      for (AlgorithmSamples& a : algs) {
        ++report.attempted;
        const bool drop = opt.inject == "drop-wire" && !injected;
        injected = true;
        ParallelSample s = parallel_route_and_check(
            circuit, a.algorithm, opt.seed, spans, drop, report);
        check_against_first(a, serial_tracks, s, report);
        all_ok = all_ok && s.ok;
        wall += s.wall_s;
        cpu += s.cpu_s;
        if (!s.ok) continue;
        s.result.wires = {};  // keep memory flat across repetitions
        (spans != nullptr ? a.traced : a.untraced).push_back(std::move(s));
      }
      if (all_ok) {
        rep_walls.push_back(wall);
        rep_cpus.push_back(cpu);
      }
    });
  };
  loop(nullptr);
  const double untraced_rep = median(rep_walls);
  double traced_wall = 0.0;
  if (opt.trace) {
    rep_walls.clear();
    traced_wall = loop(&log);
  }

  std::vector<double> op_walls;
  std::int64_t tracks = 0;
  for (const AlgorithmSamples& a : algs) {
    for (const ParallelSample& s : a.untraced) op_walls.push_back(s.wall_s);
    if (a.first) tracks += a.first->track_count;
  }

  if (!opt.trace) {
    add_loop_metrics(report, rep_walls, rep_cpus, op_walls,
                     static_cast<int>(algs.size()), tracks);
    for (const AlgorithmSamples& a : algs) {
      std::vector<double> wall, modeled;
      for (const ParallelSample& s : a.untraced) {
        wall.push_back(s.wall_s);
        modeled.push_back(s.result.modeled_seconds());
      }
      report.info("wall_s." + to_string(a.algorithm), median(wall), "s",
                  wall.size());
      report.info("modeled_s." + to_string(a.algorithm), median(modeled), "s",
                  modeled.size());
    }
    return;
  }
  std::vector<SerialSample> serial_v;
  serial_v.push_back(std::move(serial));
  add_route_metrics(report, serial_v);
  for (const AlgorithmSamples& a : algs) {
    add_parallel_layer_metrics(report, a, serial_tracks);
  }
  add_process_metrics(report, untraced_rep, median(rep_walls), log,
                      traced_wall);
  add_load_metric(report, path, circuit);

  AlgorithmSamples taskgraph{ParallelAlgorithm::TaskGraph, {}, {}, {}};
  for (int i = 0; i < kTaskgraphRoutes; ++i) {
    ++report.attempted;
    ParallelSample s = parallel_route_and_check(
        circuit, taskgraph.algorithm, opt.seed, nullptr, false, report);
    check_against_first(taskgraph, serial_tracks, s, report);
    if (!s.ok) continue;
    s.result.wires = {};
    taskgraph.traced.push_back(std::move(s));
  }
  add_parallel_layer_metrics(report, taskgraph, serial_tracks);
}

// --- workload: serve-suite -------------------------------------------------

struct Combo {
  std::size_t circuit = 0;
  std::string algorithm;
  int ranks = 1;
};

void run_serve_suite(const Options& opt, Report& report) {
  // Six suite circuits, seeded from the workload seed (not from the
  // per-name std::hash the suite uses by default), written to files that
  // every job parses in its dispatch stage.
  std::vector<SuiteEntry> entries = benchmark_suite(opt.tiny ? 0.02 : 1.0);
  Rng seeds(opt.seed);
  for (SuiteEntry& e : entries) e.config.seed = seeds();
  std::vector<std::string> paths;
  for (const SuiteEntry& e : entries) {
    paths.push_back(opt.workdir + "/suite-" + e.name + "-" +
                    std::to_string(opt.seed) + ".ckt");
  }
  std::vector<Circuit> circuits(entries.size());
  SetupTimes t;
  for (int round = 0; round < kSetupRounds; ++round) {
    double gen = 0.0, write = 0.0;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const double t0 = now_s();
      circuits[i] = build_suite_circuit(entries[i]);
      const double t1 = now_s();
      write_circuit_file(paths[i], circuits[i]);
      gen += t1 - t0;
      write += now_s() - t1;
    }
    t.generate.push_back(gen);
    t.write.push_back(write);
    t.total.push_back(gen + write);
  }
  add_setup_metrics(report, t, circuits, opt.trace);

  // The job cycle: six circuits × {serial, row-wise@2, hybrid@2} in a
  // seeded order.
  std::vector<Combo> cycle;
  for (std::size_t c = 0; c < circuits.size(); ++c) {
    cycle.push_back({c, "serial", 1});
    cycle.push_back({c, "row-wise", 2});
    cycle.push_back({c, "hybrid", 2});
  }
  Rng order(opt.seed ^ 0x5e7e5e7eULL);
  for (std::size_t i = cycle.size(); i > 1; --i) {
    std::swap(cycle[i - 1], cycle[order.next_index(i)]);
  }

  // Reference metrics: direct calls on the same inputs, before timing.
  // Traced runs watch the serial ones for the route layer's metrics.
  std::vector<RoutingMetrics> reference(cycle.size());
  SerialSample suite_serial;  // summed over the six circuits
  for (std::size_t k = 0; k < cycle.size(); ++k) {
    const Combo& combo = cycle[k];
    const Circuit& circuit = circuits[combo.circuit];
    if (combo.algorithm == "serial") {
      SpanLog scratch;
      SerialSample s;
      const auto violations = serial_route_and_verify(
          circuit, opt.seed, opt.trace ? &scratch : nullptr, false, s);
      if (!violations.empty()) report.fail("serial reference fails verify");
      reference[k] = s.metrics;
      accumulate(suite_serial, s);
    } else {
      ParallelOptions options;
      options.router.seed = opt.seed;
      reference[k] = route_parallel(circuit,
                                    combo.algorithm == "row-wise"
                                        ? ParallelAlgorithm::RowWise
                                        : ParallelAlgorithm::Hybrid,
                                    combo.ranks, options)
                         .metrics;
    }
  }

  // Closed loop: one client thread keeps four jobs in flight.  The
  // completion callback only stamps the terminal time and wakes the client,
  // which collects the result through wait().
  constexpr std::size_t kInFlight = 4;
  const auto closed_loop = [&](SpanLog* log, std::vector<double>& latencies,
                               std::map<std::size_t, std::int64_t>& tracks,
                               bool inject_failure) {
    // Declared before the engine so they outlive its worker threads.
    std::mutex mu;
    std::condition_variable cv;
    std::map<std::string, double> done;  // guarded by mu
    serve::ServeConfig config;
    config.thread_budget = 4;
    serve::ServeEngine engine(config);
    engine.set_completion_callback([&](const serve::JobResult& r) {
      const double at = now_s();
      {
        std::lock_guard<std::mutex> lock(mu);
        done[r.id] = at;
      }
      cv.notify_one();
    });
    struct InFlight {
      std::string id;
      std::size_t combo;
      double submitted;
    };
    std::deque<InFlight> flight;
    std::size_t next = 0, completed_in_window = 0;
    const double start = now_s();
    const double c0 = process_cpu_s();
    double window_end = 0.0, window_cpu = 0.0;
    bool window_open = true;
    while (!flight.empty() || window_open) {
      while (window_open && flight.size() < kInFlight) {
        const std::size_t k = next++ % cycle.size();
        serve::JobSpec spec;
        spec.circuit_source = paths[cycle[k].circuit];
        if (inject_failure && next == 1) spec.circuit_source += ".missing";
        spec.algorithm = cycle[k].algorithm;
        spec.ranks = cycle[k].ranks;
        spec.seed = opt.seed;
        ++report.attempted;
        serve::ServeEngine::Submission sub;
        const double t0 = now_s();
        timed(log, "serve", [&] { sub = engine.submit(spec); });
        if (!sub.accepted) {
          report.fail("job shed at submit: " + sub.diagnostic);
          continue;
        }
        flight.push_back({sub.id, k, t0});
      }
      // Block until some in-flight job is terminal.
      std::string id;
      double done_at = 0.0;
      timed(log, "serve", [&] {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] {
          for (const InFlight& f : flight) {
            if (done.count(f.id)) return true;
          }
          return false;
        });
        for (const InFlight& f : flight) {
          if (done.count(f.id)) {
            id = f.id;
            done_at = done[f.id];
            break;
          }
        }
      });
      const auto it = std::find_if(flight.begin(), flight.end(),
                                   [&](const InFlight& f) { return f.id == id; });
      const InFlight job = *it;
      flight.erase(it);
      serve::JobResult result;
      timed(log, "serve", [&] { result = engine.wait(job.id); });
      if (window_open && now_s() - start >= opt.seconds) {
        window_open = false;
        window_end = now_s() - start;
        window_cpu = process_cpu_s() - c0;
      }
      if (result.status != serve::JobStatus::Completed) {
        report.fail("job " + job.id + " ended " + to_string(result.status) +
                    (result.error.empty() ? "" : ": " + result.error));
        continue;
      }
      if (result.attempts != 1 || result.recovery_attempts != 0) {
        report.fail("job " + job.id + " needed a retry or recovery");
        continue;
      }
      if (!same_metrics(result.metrics, reference[job.combo])) {
        report.fail("job " + job.id + " metrics differ from the direct call");
        continue;
      }
      if (done_at - start <= window_end || window_open) ++completed_in_window;
      latencies.push_back(done_at - job.submitted);
      tracks.emplace(job.combo, result.metrics.track_count);
    }
    const double loop_s = now_s() - start;
    const auto telemetry = engine.telemetry();
    const auto stats = engine.stats();
    engine.shutdown();
    struct Out {
      double window_s, window_cpu_s, loop_s;
      std::size_t completed;
      obs::ServeTelemetry telemetry;
      serve::ServeStats stats;
    };
    return Out{window_end, window_cpu, loop_s, completed_in_window, telemetry,
               stats};
  };

  std::vector<double> latencies;
  std::map<std::size_t, std::int64_t> tracks_by_combo;
  const auto out = closed_loop(nullptr, latencies, tracks_by_combo,
                               opt.inject == "fail-job");
  const double cycle_jobs = static_cast<double>(cycle.size());
  const double per_cycle =
      out.completed > 0 ? cycle_jobs / static_cast<double>(out.completed) : 0.0;
  if (!opt.trace) {
    std::int64_t tracks = 0;
    for (std::size_t k = 0; k < cycle.size(); ++k) {
      const auto it = tracks_by_combo.find(k);
      tracks += it != tracks_by_combo.end() ? it->second
                                            : reference[k].track_count;
    }
    report.add("wall_s", out.window_s * per_cycle, "s", 0,
               "one 18-job cycle: window wall × 18 / jobs completed");
    report.add("cpu_s", out.window_cpu_s * per_cycle, "s", 0,
               "one 18-job cycle: window CPU × 18 / jobs completed");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    report.add("tracks", static_cast<double>(tracks), "count");
    report.add("jobs_per_s",
               out.window_s > 0 ? static_cast<double>(out.completed) / out.window_s
                                : 0.0,
               "1/s", 0, "4 jobs in flight");
    report.add("job_latency_s_p50", median(latencies), "s", latencies.size());
    const Tail tail = tail_of(latencies);
    report.add("job_latency_s_tail", tail.value, "s", latencies.size(),
               percentile_label(tail));
    return;
  }

  const double untraced_cycle = out.window_s * per_cycle;
  SpanLog log;
  std::vector<double> traced_latencies;
  std::map<std::size_t, std::int64_t> unused;
  const auto traced = closed_loop(&log, traced_latencies, unused, false);
  const double traced_cycle =
      traced.completed > 0
          ? traced.window_s * cycle_jobs / static_cast<double>(traced.completed)
          : 0.0;

  add_route_metrics(report, {suite_serial});
  double load_p50 = 0.0;
  for (const auto& stage : traced.telemetry.stages) {
    if (stage.name == "dispatch") load_p50 = stage.p50;
    if (stage.name == "queue_wait" || stage.name == "dispatch" ||
        stage.name == "route" || stage.name == "report_write") {
      report.add("serve." + stage.name + "_s_p50", stage.p50, "s", stage.count);
    }
  }
  report.add("circuit.load_s_p50", load_p50, "s", 0,
             "the serve dispatch stage: read_circuit_file per job");
  for (const auto& gauge : traced.telemetry.gauges) {
    if (gauge.name == "budget_utilization") {
      report.add("serve.budget_utilization", mean(gauge.values), "ratio",
                 gauge.values.size(), "mean of the gauge ring");
    }
  }
  report.add("serve.completed", static_cast<double>(traced.stats.completed), "count");
  report.add("serve.retries", static_cast<double>(traced.stats.retries), "count");
  report.add("serve.shed", static_cast<double>(traced.stats.shed_total()), "count");
  add_process_metrics(report, untraced_cycle, traced_cycle, log,
                      traced.loop_s);
}

Options parse(int argc, char** argv) {
  Options opt;
  if (argc % 2 != 1) throw std::invalid_argument("every flag takes a value");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") opt.workload = value;
    else if (key == "--seed") opt.seed = std::stoull(value);
    else if (key == "--seconds") opt.seconds = std::stod(value);
    else if (key == "--trace") opt.trace = value == "1";
    else if (key == "--size") opt.tiny = value == "tiny";
    else if (key == "--inject") opt.inject = value;
    else if (key == "--workdir") opt.workdir = value;
    else throw std::invalid_argument("unknown flag " + key);
  }
  if (opt.inject != "none" && opt.inject != "drop-wire" &&
      opt.inject != "fail-job") {
    throw std::invalid_argument("unknown --inject " + opt.inject);
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse(argc, argv);
    std::filesystem::create_directories(opt.workdir);
    Report report;
    if (opt.workload == "serial-220k") {
      run_serial_220k(opt, report);
    } else if (opt.workload == "parallel-220k-4r") {
      run_parallel_220k(opt, report);
    } else if (opt.workload == "serve-suite") {
      run_serve_suite(opt, report);
    } else {
      throw std::invalid_argument("unknown workload '" + opt.workload + "'");
    }
    print_report(report, opt.workload);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wallbench: %s\n", e.what());
    return 1;
  }
}
