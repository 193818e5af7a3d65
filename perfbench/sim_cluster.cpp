#include "sim_cluster.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/gateway_job.hpp"
#include "core/wiring.hpp"
#include "fault/plan.hpp"
#include "obs/json.hpp"
#include "platform/cluster.hpp"
#include "vn/et_vn.hpp"
#include "vn/tt_vn.hpp"
#include "wire.hpp"

namespace perfbench {
namespace {

namespace core = decos::core;
namespace obs = decos::obs;
namespace platform = decos::platform;
namespace tt = decos::tt;
namespace vn = decos::vn;
using decos::Duration;
using decos::Instant;

// The E21 shape: islands of 8 nodes, 8 DAS pairs per island (TT VN + ET
// VN + hidden gateway each), one simulated second, at E21's two sizes:
// 128 nodes is the light load, 256 nodes the heavy one.
constexpr std::size_t kLightNodes = 128;
constexpr std::size_t kHeavyNodes = 256;
constexpr std::size_t kIslandNodes = 8;
constexpr std::size_t kPairsPerIsland = 8;
constexpr Duration kSimTime = Duration::seconds(1);
constexpr Duration kStep = Duration::milliseconds(1);  // one latency sample per step
/// The traced run adds one parallel run at min(4, nproc) sim-jobs, for
/// sim.par_ratio only. It is no end-to-end figure: on 4 shared vCPUs,
/// workers meeting at barriers measure the host's scheduler (parallel
/// runs of one build took 4 to 17 host s per simulated s at 2 and at 4
/// sim-jobs; the parallel p99 step's quartile spread over ten runs was
/// 0.8 to 1.8 times its median).
constexpr std::size_t kParJobs = 4;
/// setup_s: before every measured run, one sample of this many serial
/// 256-node cluster builds (construction only, not teardown), each
/// sample on the next CPU in turn; the median sample.
constexpr std::size_t kBuildsPerSample = 3;
/// The step costs have two classes: the 100 steps that close a 10 ms TT
/// round cost two to three times the others. The 99th percentile picks
/// 10 of those 100 near-equal steps by host noise (its quartile spread
/// over runs of one build was 0.17 to 0.27 of the median), so the tail
/// figure is the mean of the slowest kTailShare of the steps: the
/// round-closing class.
constexpr double kTailShare = 0.1;
/// --seconds buys kRunsPerRound serial runs of each size per this many
/// seconds (a 256-node run takes about 1.8 s, a 128-node one 0.5 s).
constexpr std::size_t kRunsPerRound = 4;
constexpr double kSecondsPerRound = 10.0;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

spec::PortSpec port(const std::string& message, spec::DataDirection direction,
                    spec::ControlParadigm paradigm, Duration period) {
  spec::PortSpec ps;
  ps.message = message;
  ps.direction = direction;
  ps.semantics = spec::InfoSemantics::kState;
  ps.paradigm = paradigm;
  ps.period = period;
  ps.queue_capacity = 16;
  return ps;
}

/// Times GatewayJob::step from outside: the traced run's core-layer span.
class TimedJob final : public platform::Job {
 public:
  struct Totals {
    std::int64_t ns = 0;
    std::uint64_t calls = 0;
  };
  TimedJob(std::unique_ptr<platform::Job> inner, Totals& totals)
      : platform::Job{inner->name(), inner->das()}, inner_{std::move(inner)}, totals_{&totals} {
    set_execution_time(inner_->execution_time());
  }
  void step(Instant now) override {
    const auto t0 = std::chrono::steady_clock::now();
    inner_->step(now);
    totals_->ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
    ++totals_->calls;
  }

 private:
  std::unique_ptr<platform::Job> inner_;
  Totals* totals_;
};

/// One assembled E21 cluster. Member order matches E21's locals, so
/// teardown runs in the same order.
struct IslandCluster {
  std::unique_ptr<platform::Cluster> cluster;
  std::vector<std::unique_ptr<vn::TtVirtualNetwork>> tt_vns;
  std::vector<std::unique_ptr<vn::EtVirtualNetwork>> et_vns;
  std::vector<std::unique_ptr<core::VirtualGateway>> gateways;
  std::unique_ptr<decos::fault::FaultPlan> faults;
};

/// E21's run() set-up, verbatim in effect: `job_totals` non-null wraps
/// every GatewayJob in a TimedJob.
std::unique_ptr<IslandCluster> build_cluster(std::size_t nodes, std::size_t sim_jobs,
                                             TimedJob::Totals* job_totals) {
  const std::size_t islands = nodes / kIslandNodes;
  const std::size_t pairs = islands * kPairsPerIsland;
  auto ic = std::make_unique<IslandCluster>();

  platform::ClusterConfig config;
  config.nodes = nodes;
  config.round_length = Duration::milliseconds(10);
  std::vector<std::vector<std::size_t>> couplings;
  for (std::size_t p = 0; p < pairs; ++p) {
    const std::size_t base = (p / kPairsPerIsland) * kIslandNodes;
    const std::size_t k = p % kPairsPerIsland;
    const auto producer = static_cast<tt::NodeId>(base + k % kIslandNodes);
    const auto host = static_cast<tt::NodeId>(base + (k + 1) % kIslandNodes);
    config.allocations.push_back(
        {static_cast<tt::VnId>(1 + 2 * p), "dasA" + std::to_string(p), 32, {producer}});
    config.allocations.push_back(
        {static_cast<tt::VnId>(2 + 2 * p), "dasB" + std::to_string(p), 32, {host}});
    couplings.push_back({producer, host});
  }
  platform::derive_partitions(config, couplings);
  config.sim_jobs = sim_jobs;
  ic->cluster = std::make_unique<platform::Cluster>(config);
  platform::Cluster& cluster = *ic->cluster;

  std::vector<platform::Partition*> gw_partitions(nodes, nullptr);
  for (std::size_t p = 0; p < pairs; ++p) {
    const std::size_t base = (p / kPairsPerIsland) * kIslandNodes;
    const std::size_t k = p % kPairsPerIsland;
    const auto producer = static_cast<tt::NodeId>(base + k % kIslandNodes);
    const auto host = static_cast<tt::NodeId>(base + (k + 1) % kIslandNodes);
    const auto vn_a_id = static_cast<tt::VnId>(1 + 2 * p);
    const auto vn_b_id = static_cast<tt::VnId>(2 + 2 * p);
    const std::string tag = std::to_string(p);

    ic->tt_vns.push_back(std::make_unique<vn::TtVirtualNetwork>("tt" + tag, vn_a_id));
    auto& vn_a = *ic->tt_vns.back();
    vn_a.register_message(value_message("msgA" + tag, "img", 1));
    ic->et_vns.push_back(std::make_unique<vn::EtVirtualNetwork>("et" + tag, vn_b_id));
    auto& vn_b = *ic->et_vns.back();
    vn_a.preregister_metrics(cluster.simulator());
    vn_b.preregister_metrics(cluster.simulator());

    spec::LinkSpec link_a{"dasA" + tag};
    link_a.add_message(value_message("msgA" + tag, "img", 1));
    spec::PortSpec in = port("msgA" + tag, spec::DataDirection::kInput,
                             spec::ControlParadigm::kTimeTriggered, config.round_length);
    in.min_interarrival = Duration::microseconds(1);
    in.max_interarrival = Duration::seconds(3600);
    link_a.add_port(in);
    spec::LinkSpec link_b{"dasB" + tag};
    link_b.add_message(value_message("msgB" + tag, "img", 2));
    link_b.add_port(port("msgB" + tag, spec::DataDirection::kOutput,
                         spec::ControlParadigm::kEventTriggered, Duration::zero()));
    ic->gateways.push_back(std::make_unique<core::VirtualGateway>("gw" + tag, std::move(link_a),
                                                                  std::move(link_b)));
    auto& gw = *ic->gateways.back();
    gw.finalize();
    gw.bind_observability(cluster.simulator());
    core::wire_tt_link(gw, 0, vn_a, cluster.controller(host), {});
    core::wire_et_link(gw, 1, vn_b, cluster.controller(host), cluster.vn_slots(vn_b_id, host));
    if (gw_partitions[host] == nullptr) {
      gw_partitions[host] = &cluster.component(host).add_partition(
          "gw", "architecture", Duration::zero(), Duration::milliseconds(2));
    }
    std::unique_ptr<platform::Job> job = std::make_unique<core::GatewayJob>(gw);
    if (job_totals != nullptr) job = std::make_unique<TimedJob>(std::move(job), *job_totals);
    gw_partitions[host]->add_job(std::move(job));

    platform::Partition& pp = cluster.component(producer).add_partition(
        "p" + tag, "dasA" + tag,
        Duration::milliseconds(3) + Duration::microseconds(static_cast<std::int64_t>(k) * 300),
        Duration::microseconds(200));
    platform::FunctionJob& job_p = pp.add_function_job(
        "prod" + tag, [&vn_a, tag](platform::FunctionJob& self, Instant now) {
          spec::MessageInstance inst = spec::make_instance(*vn_a.message_spec("msgA" + tag));
          inst.elements()[1].fields[0] =
              decos::ta::Value{static_cast<std::int64_t>(self.activations())};
          inst.elements()[1].fields[1] = decos::ta::Value{now};
          inst.set_send_time(now);
          self.ports()[0]->deposit(inst, now);
        });
    job_p.set_execution_time(Duration::microseconds(10));
    vn_a.attach_sender(cluster.controller(producer),
                       job_p.add_port(port("msgA" + tag, spec::DataDirection::kOutput,
                                           spec::ControlParadigm::kTimeTriggered,
                                           config.round_length)),
                       cluster.vn_slots(vn_a_id, producer));
  }

  // E21's fault plan: a transient crash and a babbling burst, both
  // crossing the partition boundary through the global wheel.
  ic->faults = std::make_unique<decos::fault::FaultPlan>(cluster.simulator());
  ic->faults->crash(cluster.controller(2), Instant::origin() + kSimTime / 3, kSimTime / 6);
  ic->faults->babble(cluster.controller((kIslandNodes + 3) % nodes),
                     Instant::origin() + kSimTime / 2, /*slot_index=*/0, /*vn=*/tt::kCoreVn,
                     /*count=*/16, /*gap=*/Duration::microseconds(500));
  return ic;
}

struct SimRun {
  std::size_t nodes = 0;
  std::size_t sim_jobs = 1;
  double host_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> step_us;
  std::uint64_t events = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t vn_messages = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_blocked = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t messages_in = 0;
  std::uint64_t blocked_value = 0;
  double handler_ns_est = 0.0;  // sampled sim.handler_ns scaled by its period
  std::int64_t membership_changes = 0;
  std::int64_t clock_corrections = 0;
  TimedJob::Totals job;
};

/// Run one built cluster for the simulated second in kStep steps, timing
/// each step, and collect E21's outcome counters and fingerprint.
void run_cluster(IslandCluster& ic, SimRun& run) {
  platform::Cluster& cluster = *ic.cluster;
  const std::size_t steps = static_cast<std::size_t>(kSimTime.ns() / kStep.ns());
  run.step_us.reserve(steps);
  const double cpu0 = process_cpu_seconds();
  const auto start = std::chrono::steady_clock::now();
  cluster.start();
  auto last = start;
  for (std::size_t i = 0; i < steps; ++i) {
    cluster.run_for(kStep);
    const auto now = std::chrono::steady_clock::now();
    run.step_us.push_back(std::chrono::duration<double, std::micro>(now - last).count());
    last = now;
  }
  run.host_s = std::chrono::duration<double>(last - start).count();
  run.cpu_s = process_cpu_seconds() - cpu0;

  for (const auto& gw : ic.gateways) {
    run.forwarded += gw->stats().messages_constructed;
    run.messages_in += gw->stats().messages_in;
    run.blocked_value += gw->stats().blocked_value;
  }
  for (const auto& v : ic.tt_vns) run.vn_messages += v->messages_delivered();
  for (const auto& v : ic.et_vns) run.vn_messages += v->messages_delivered();
  run.frames_delivered = cluster.bus().frames_delivered();
  run.frames_blocked = cluster.bus().frames_blocked();
  run.events = cluster.simulator().dispatched();
  std::uint64_t h = 14695981039346656037ull;
  h = fnv1a(h, run.events);
  h = fnv1a(h, run.forwarded);
  h = fnv1a(h, run.vn_messages);
  h = fnv1a(h, run.frames_delivered);
  h = fnv1a(h, run.frames_blocked);
  h = fnv1a(h, static_cast<std::uint64_t>(cluster.precision().ns()));
  run.fingerprint = h;

  const obs::MetricsSnapshot snap = cluster.simulator().metrics().snapshot();
  if (const obs::MetricValue* m = snap.find("sim.handler_ns"))
    run.handler_ns_est = static_cast<double>(m->sum) * m->sample_period;
  if (const obs::MetricValue* m = snap.find("services.membership.changes"))
    run.membership_changes = m->value;
  if (const obs::MetricValue* m = snap.find("services.clock_sync.corrections"))
    run.clock_corrections = m->value;
}

/// Time sample number `sample` of kBuildsPerSample serial builds: the
/// mean build time.
double time_builds(std::size_t sample) {
  const ScopedPin pin{sample};
  double total = 0.0;
  for (std::size_t i = 0; i < kBuildsPerSample; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto ic = build_cluster(kHeavyNodes, 1, nullptr);
    total += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  }
  return total / kBuildsPerSample;
}

/// Build and run one cluster. A serial run is pinned to CPU slot
/// `cpu_slot`: the serial runs of a workload rotate over the CPUs, so a
/// step's fastest rendition is not bound to one virtual CPU, which on a
/// shared host can run a third slower than another for seconds at a time.
SimRun measure(std::size_t nodes, std::size_t sim_jobs, bool traced, std::size_t cpu_slot) {
  std::optional<ScopedPin> pin;
  if (sim_jobs == 1) pin.emplace(cpu_slot);
  SimRun run;
  run.nodes = nodes;
  run.sim_jobs = sim_jobs;
  auto ic = build_cluster(nodes, sim_jobs, traced ? &run.job : nullptr);
  run_cluster(*ic, run);
  return run;
}

/// Several runs of one mode taken together.
struct Pooled {
  double host_s = 0.0;
  double cpu_s = 0.0;
  double handler_ns_est = 0.0;
  double host_s_per_sim_s = 0.0;
  /// Each step's fastest time over the runs. Every run does the same
  /// deterministic work in step i, and host noise only ever adds time to
  /// a step, so the fastest rendition is the step's own cost; on a shared
  /// host a whole run can be slowed.
  std::vector<double> fastest_step_us;
  double fastest_s = 0.0;  // their sum
};

Pooled pool(const std::vector<SimRun>& runs) {
  Pooled p;
  p.fastest_step_us = runs.front().step_us;
  for (const SimRun& r : runs) {
    p.host_s += r.host_s;
    p.cpu_s += r.cpu_s;
    p.handler_ns_est += r.handler_ns_est;
    for (std::size_t i = 0; i < p.fastest_step_us.size(); ++i)
      p.fastest_step_us[i] = std::min(p.fastest_step_us[i], r.step_us[i]);
  }
  p.host_s_per_sim_s = p.host_s / (kSimTime.as_seconds() * static_cast<double>(runs.size()));
  for (const double us : p.fastest_step_us) p.fastest_s += us / 1e6;
  return p;
}

/// Mean of the slowest `share` of `samples` (at least 10 of them).
double tail_mean(std::vector<double> samples, double share) {
  const auto n = std::min(samples.size(),
                          std::max<std::size_t>(10, static_cast<std::size_t>(
                                                        share * static_cast<double>(samples.size()))));
  if (n == 0) return 0.0;
  std::partial_sort(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(n),
                    samples.end(), std::greater<>{});
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += samples[i];
  return sum / static_cast<double>(n);
}

/// E21's committed baseline at one size (BENCH_E21.json in the checkout).
struct E21Baseline {
  std::uint64_t events = 0;
  std::uint64_t fingerprint = 0;
};

E21Baseline load_e21_baseline(const std::string& path, std::size_t nodes) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  auto doc = obs::json::parse(text.str());
  if (!doc.ok()) throw std::runtime_error(path + ": " + doc.error().to_string());
  const std::string key = std::to_string(nodes);
  const obs::json::Value* events = doc.value().find("sim_events");
  const obs::json::Value* prints = doc.value().find("fingerprints");
  if (events == nullptr || prints == nullptr || events->find(key) == nullptr ||
      prints->find(key) == nullptr)
    throw std::runtime_error(path + ": no " + key + "-node row");
  E21Baseline b;
  b.events = static_cast<std::uint64_t>(events->get_int(key));
  b.fingerprint = std::stoull(prints->get_string(key), nullptr, 16);
  return b;
}

void print_run(const SimRun& r) {
  std::printf("[sim_cluster] %zu nodes, sim-jobs %zu: host_s_per_sim_s %.4f  events %llu  "
              "fingerprint %016llx  frames %llu  forwarded %llu  cpu/wall %.3f\n",
              r.nodes, r.sim_jobs, r.host_s / kSimTime.as_seconds(),
              static_cast<unsigned long long>(r.events),
              static_cast<unsigned long long>(r.fingerprint),
              static_cast<unsigned long long>(r.frames_delivered),
              static_cast<unsigned long long>(r.forwarded), r.cpu_s / r.host_s);
}

/// Fingerprint and event count must match between runs and E21.
void check_run(const SimRun& r, const E21Baseline& e21, RunResult& result) {
  ++result.attempted;
  if (r.events == e21.events && r.fingerprint == e21.fingerprint) return;
  ++result.failed;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "sim_cluster %zu nodes, sim-jobs %zu: events %llu / fingerprint %016llx differ "
                "from E21's %llu / %016llx",
                r.nodes, r.sim_jobs, static_cast<unsigned long long>(r.events),
                static_cast<unsigned long long>(r.fingerprint),
                static_cast<unsigned long long>(e21.events),
                static_cast<unsigned long long>(e21.fingerprint));
  result.error(buf);
}

}  // namespace

RunResult run_sim_cluster(const Options& options, const std::string& e21_json) {
  RunResult result;
  const E21Baseline e21_light = load_e21_baseline(e21_json, kLightNodes);
  const E21Baseline e21_heavy = load_e21_baseline(e21_json, kHeavyNodes);
  const auto rounds = static_cast<std::size_t>(std::max(1.0, options.seconds / kSecondsPerRound));

  std::vector<double> build_s;
  std::vector<SimRun> light, heavy;
  for (std::size_t i = 0; i < rounds * kRunsPerRound; ++i) {
    for (const std::size_t nodes : {kHeavyNodes, kLightNodes}) {
      build_s.push_back(time_builds(build_s.size()));
      std::vector<SimRun>& runs = nodes == kLightNodes ? light : heavy;
      runs.push_back(measure(nodes, 1, false, runs.size()));
      print_run(runs.back());
      check_run(runs.back(), nodes == kLightNodes ? e21_light : e21_heavy, result);
    }
  }
  const Pooled pl = pool(light);
  const Pooled ph = pool(heavy);
  std::printf("[sim_cluster] setup %.4f s (median of %zu samples of %zu builds); %zu serial runs "
              "of each size\n",
              median(build_s), build_s.size(), kBuildsPerSample, heavy.size());

  result.note("host_s_per_sim_s", "s/s", ph.host_s_per_sim_s);
  if (!options.trace) {
    if (tail_percentile(pl.fastest_step_us, 0.99).percentile < 0.99)
      result.error("sim_cluster: too few steps for p99");
    result.add("setup_s", "s", median(build_s));
    result.add("capacity_fps", "1/s",
               static_cast<double>(heavy.front().frames_delivered) / ph.fastest_s);
    result.add("p50_us.light", "us", tail_percentile(pl.fastest_step_us, 0.5).value);
    result.add("p99_us.light", "us", tail_mean(pl.fastest_step_us, kTailShare));
    result.add("p50_us.heavy", "us", tail_percentile(ph.fastest_step_us, 0.5).value);
    result.add("p99_us.heavy", "us", tail_mean(ph.fastest_step_us, kTailShare));
    result.add("cpu_frac.light", "1", pl.cpu_s / pl.host_s);
    return result;
  }

  const std::size_t par_jobs =
      std::max<std::size_t>(1, std::min<std::size_t>(kParJobs, allowed_cpus().size()));
  const SimRun par = measure(kHeavyNodes, par_jobs, false, 0);
  print_run(par);
  check_run(par, e21_heavy, result);
  result.note("host_s_per_sim_s.par", "s/s", par.host_s / kSimTime.as_seconds());
  const SimRun traced = measure(kHeavyNodes, 1, true, 0);
  print_run(traced);
  check_run(traced, e21_heavy, result);
  const SimRun& first = heavy.front();
  const auto events = static_cast<double>(first.events);
  result.add("core.gw_step_ns", "ns",
             traced.job.calls > 0 ? static_cast<double>(traced.job.ns) /
                                        static_cast<double>(traced.job.calls)
                                  : 0.0);
  result.add("core.messages_in", "count", static_cast<double>(first.messages_in));
  result.add("core.messages_constructed", "count", static_cast<double>(first.forwarded));
  result.add("core.blocked_value", "count", static_cast<double>(first.blocked_value));
  result.add("sim.events", "count", events);
  result.add("sim.ns_per_event", "ns",
             ph.host_s * 1e9 / (events * static_cast<double>(heavy.size())));
  result.add("sim.handler_frac", "1", ph.handler_ns_est / (ph.host_s * 1e9));
  result.add("sim.par_ratio", "1", par.host_s / (ph.host_s / static_cast<double>(heavy.size())));
  result.add("tt.frames_delivered", "count", static_cast<double>(first.frames_delivered));
  result.add("tt.frames_blocked", "count", static_cast<double>(first.frames_blocked));
  result.add("vn.messages_delivered", "count", static_cast<double>(first.vn_messages));
  result.add("services.membership.changes", "count",
             static_cast<double>(first.membership_changes));
  result.add("services.clock_sync.corrections", "count",
             static_cast<double>(first.clock_corrections));
  result.add("trace_overhead_frac", "1",
             traced.host_s / (ph.host_s / static_cast<double>(heavy.size())) - 1.0);
  return result;
}

}  // namespace perfbench
