// perfbench -- the repository benchmark (README.md in this directory).
//
//   perfbench --workload ring_event|udp_state|sim_cluster --seed N
//             --seconds S --trace 0|1 [--work-dir DIR] [--e21 FILE]
//
// Prints one line per measured point, then as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exit
// status 0 = every correctness check passed, 1 = a check failed (the
// JSON line is still printed), 2 = usage or set-up error.
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "live.hpp"
#include "obs/json.hpp"
#include "sim_cluster.hpp"
#include "support.hpp"

namespace perfbench {
namespace {

namespace obs = decos::obs;

struct MetricDecl {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every workload (README.md says what
/// each one measures on the live and on the simulated workloads).
constexpr MetricDecl kEndToEnd[] = {
    {"setup_s", "s"},         {"peak_rss_mb", "MB"},   {"capacity_fps", "1/s"},
    {"p50_us.light", "us"},   {"p99_us.light", "us"},  {"p50_us.heavy", "us"},
    {"p99_us.heavy", "us"},   {"cpu_frac.light", "1"},
};

/// Per-layer metrics of the traced run. A workload that never enters a
/// layer reports 0 for it: no work was done there.
constexpr MetricDecl kPerLayer[] = {
    {"gen.late_p99_us", "us"},
    {"gen.sent_ratio", "1"},
    {"tail.p99_whole_us.light", "us"},
    {"tail.p99_whole_us.heavy", "us"},
    {"rt.claim_ns_per_frame", "ns"},
    {"rt.push_ns_per_frame", "ns"},
    {"rt.batch_frames_mean", "frames"},
    {"rt.busy_frac", "1"},
    {"rt.tick_ns", "ns"},
    {"rt.idle_gap_us_p50", "us"},
    {"rt.backlog_bytes_max", "bytes"},
    {"rt.rx_dropped", "count"},
    {"rt.tx_dropped", "count"},
    {"rt.rx_unknown", "count"},
    {"rt.decode_errors", "count"},
    {"spec.matches_key_ns", "ns"},
    {"spec.decode_into_ns", "ns"},
    {"spec.encode_into_ns", "ns"},
    {"core.residual_ns_per_frame", "ns"},
    {"core.gw_step_ns", "ns"},
    {"core.messages_in", "count"},
    {"core.messages_constructed", "count"},
    {"core.blocked_value", "count"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.handler_frac", "1"},
    {"sim.par_ratio", "1"},
    {"tt.frames_delivered", "count"},
    {"tt.frames_blocked", "count"},
    {"vn.messages_delivered", "count"},
    {"services.membership.changes", "count"},
    {"services.clock_sync.corrections", "count"},
    {"trace_overhead_frac", "1"},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload ring_event|udp_state|sim_cluster "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR] [--e21 FILE]\n",
               why.c_str());
  std::exit(2);
}

/// Percentile-rule self-test on known samples, for tail_percentile and
/// Histogram.
std::vector<std::string> percentile_self_test() {
  std::vector<std::string> failures;
  std::vector<double> thousand, short_of_p99;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  for (int i = 1; i <= 999; ++i) short_of_p99.push_back(i);
  const Tail a = tail_percentile(thousand, 0.99);  // rank 990, 10 beyond
  const Tail b = tail_percentile(short_of_p99, 0.99);  // 9 beyond p99 -> p90
  const Tail c = tail_percentile({5.0, 1.0, 3.0}, 0.5);  // too few for any
  const Tail d = tail_percentile(thousand, 0.5);
  if (a.percentile != 0.99 || a.value != 990 || a.count != 1000)
    failures.push_back("percentile rule: p99 of 1..1000");
  if (b.percentile != 0.9 || b.value != 900 || b.count != 999)
    failures.push_back("percentile rule: fallback to p90 on 1..999");
  if (c.percentile != 0.0 || c.value != 5.0 || c.count != 3)
    failures.push_back("percentile rule: too few samples");
  if (d.percentile != 0.5 || d.value != 500) failures.push_back("percentile rule: p50");
  if (quantile(thousand, 0.1) != 100 || quantile({3.0, 1.0, 2.0}, 0.1) != 1.0)
    failures.push_back("nearest-rank quantile");
  // The histogram applies the same rule; its value lies within the
  // bucket's width (1 ns, then under 0.8 %) of the sample.
  Histogram us_thousand, us_short, ns_exact;
  for (int i = 1; i <= 1000; ++i) us_thousand.add(i * 1000);
  for (int i = 1; i <= 999; ++i) us_short.add(i * 1000);
  for (int i = 1; i <= 100; ++i) ns_exact.add(i);
  const Tail e = us_thousand.percentile_us(0.99);
  const Tail f = us_short.percentile_us(0.99);
  const Tail g = ns_exact.percentile_us(0.5);
  if (e.percentile != 0.99 || std::abs(e.value - 990) > 990 * 0.008 || e.count != 1000)
    failures.push_back("histogram percentile: p99 of 1..1000 us");
  if (f.percentile != 0.9 || std::abs(f.value - 900) > 900 * 0.008 || f.count != 999)
    failures.push_back("histogram percentile: fallback to p90 on 1..999 us");
  if (g.percentile != 0.5 || std::abs(g.value - 50e-3) > 1e-3)
    failures.push_back("histogram percentile: 1 ns buckets");
  return failures;
}

int run(int argc, char** argv) {
  Options options;
  std::string work_dir = ".";
  std::string e21_json = "BENCH_E21.json";
  bool have_trace = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(arg + " needs a value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !value.empty();
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != nullptr && *end == '\0' && options.seconds > 0;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      options.trace = value == "1";
      have_trace = true;
    } else if (arg == "--work-dir") {
      work_dir = value;
    } else if (arg == "--e21") {
      e21_json = value;
    } else {
      usage("unknown option " + arg);
    }
  }
  if (!have_seed || !have_seconds || !have_trace) usage("--seed, --seconds and --trace are required");
  if (!is_live_workload(options.workload) && options.workload != "sim_cluster")
    usage("unknown workload '" + options.workload + "'");

  allowed_cpus();  // the process's CPUs, read before any thread pins itself
  std::vector<std::string> self_test = percentile_self_test();
  for (std::string& f : live_self_test(work_dir)) self_test.push_back(std::move(f));
  for (const std::string& f : self_test) std::fprintf(stderr, "perfbench self-test: %s\n", f.c_str());
  if (!self_test.empty()) return 2;

  RunResult result = options.workload == "sim_cluster" ? run_sim_cluster(options, e21_json)
                                                       : run_live(options, work_dir);
  if (!options.trace) result.add("peak_rss_mb", "MB", peak_rss_mb());

  // Lay the metrics out in declaration order; per-layer metrics a
  // workload does not exercise read 0, an end-to-end one must be there.
  obs::json::Object metrics;
  const auto emit = [&](const auto& decls, bool required) {
    for (const MetricDecl& decl : decls) {
      double value = 0.0;
      bool found = false;
      for (const Metric& m : result.metrics) {
        if (m.name != decl.name) continue;
        if (m.unit != decl.unit) result.error(m.name + ": unit " + m.unit + " != " + decl.unit);
        value = m.value;
        found = true;
      }
      if (!found && required) result.error(std::string{"missing metric "} + decl.name);
      obs::json::Object entry;
      entry.emplace_back("value", value);
      entry.emplace_back("unit", decl.unit);
      metrics.emplace_back(decl.name, obs::json::Value{std::move(entry)});
    }
  };
  if (options.trace)
    emit(kPerLayer, false);
  else
    emit(kEndToEnd, true);
  for (const Metric& m : result.metrics) {
    bool declared = false;
    for (const MetricDecl& decl : kEndToEnd) declared |= m.name == decl.name;
    for (const MetricDecl& decl : kPerLayer) declared |= m.name == decl.name;
    if (!declared) result.error("undeclared metric " + m.name);
  }

  const double fail_ratio = result.attempted > 0 ? static_cast<double>(result.failed) /
                                                       static_cast<double>(result.attempted)
                                                 : 0.0;
  result.note("fail_ratio", "1", fail_ratio);
  for (const auto* list : {&result.metrics, &result.notes})
    for (const Metric& m : *list)
      std::printf("[%s] %-32s %.6g %s\n", options.workload.c_str(), m.name.c_str(), m.value,
                  m.unit.c_str());
  for (const std::string& e : result.errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  obs::json::Object line;
  line.emplace_back("correct", result.errors.empty());
  line.emplace_back("attempted", std::max<std::uint64_t>(result.attempted, 1));
  line.emplace_back("failed", result.failed);
  line.emplace_back("metrics", obs::json::Value{std::move(metrics)});
  std::printf("%s\n", obs::json::Value{std::move(line)}.dump().c_str());
  std::fflush(stdout);
  return result.errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

namespace {

int run_guarded(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}

}  // namespace

// The workload runs in a forked child. getrusage's peak RSS keeps the
// peak of the process image this one was exec'd from (for run.py, a
// Python interpreter larger than the whole benchmark), and a fork starts
// a fresh peak from this small process, so peak_rss_mb is the
// benchmark's own. The parent only waits and passes the status on.
int main(int argc, char** argv) {
  std::fflush(nullptr);
  const pid_t parent = getpid();
  const pid_t child = fork();
  if (child < 0) return run_guarded(argc, argv);  // no fork: measure in place
  if (child == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive a killed parent
    if (getppid() != parent) _exit(2);
    std::exit(run_guarded(argc, argv));
  }
  int status = 0;
  while (waitpid(child, &status, 0) < 0) {
    if (errno != EINTR) return 2;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 2;
}
