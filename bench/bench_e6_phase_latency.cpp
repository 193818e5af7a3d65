// E6 -- TT<->TT redirection under period/phase mismatch (paper Section
// III-A.2): "When the interacting DASes operate with different periods
// or phase-shift relationships of the time-triggered communication
// schedules, the gateway needs to buffer messages. The forwarding and
// buffering of messages can be performed according to a schedule that is
// fixed at design time."
//
// Full-cluster experiment: a TT sender (period P1) in DAS A, the gateway
// on node 2, and a TT receiver (period P2, phase swept) in DAS B. We
// measure the end-to-end latency (producer port deposit -> consumer port
// delivery, via the wire timestamp) for each (P1, P2, phase) cell.
#include "common.hpp"
#include "core/gateway_job.hpp"
#include "core/wiring.hpp"
#include "obs/analysis.hpp"
#include "platform/cluster.hpp"
#include "util/statistics.hpp"
#include "vn/tt_vn.hpp"

using namespace decos;
using namespace decos::bench;
using namespace decos::literals;

namespace {

struct Outcome {
  double min_ms = 0.0;
  double avg_ms = 0.0;
  double max_ms = 0.0;
  double jitter_ms = 0.0;
  std::size_t samples = 0;
};

/// One cell: TT VN A slot at `phase_a` in the round, TT VN B slot at
/// `phase_b`. The gateway's output port has period P2.
Outcome run(Cell& cell, Duration p1, Duration p2, double phase_fraction, Duration run_for) {
  platform::ClusterConfig config;
  config.nodes = 3;
  config.round_length = 10_ms;
  config.allocations = {
      {1, "dasA", 32, {0}},
      {2, "dasB", 32, {2}},
  };
  platform::Cluster cluster{config};
  cell.configure(cluster.simulator());

  vn::TtVirtualNetwork vn_a{"vn-a", 1};
  vn_a.register_message(state_message("msgA", "image", 1));
  vn::TtVirtualNetwork vn_b{"vn-b", 2};

  spec::LinkSpec link_a{"dasA"};
  link_a.add_message(state_message("msgA", "image", 1));
  link_a.add_port(input_port("msgA", spec::InfoSemantics::kState,
                             spec::ControlParadigm::kTimeTriggered, p1, 1_us,
                             Duration::seconds(3600)));
  spec::LinkSpec link_b{"dasB"};
  link_b.add_message(state_message("msgB", "image", 2));
  link_b.add_port(output_port("msgB", spec::InfoSemantics::kState,
                              spec::ControlParadigm::kTimeTriggered, p2));

  core::GatewayConfig gwc;
  gwc.default_d_acc = p1 * 4;  // generous: this experiment measures latency
  gwc.dispatch_period = 1_ms;
  core::VirtualGateway gateway{"e6", std::move(link_a), std::move(link_b), gwc};
  gateway.finalize();
  core::wire_tt_link(gateway, 0, vn_a, cluster.controller(2), {});
  core::wire_tt_link(gateway, 1, vn_b, cluster.controller(2),
                     {{"msgB", cluster.vn_slots(2, 2)}});
  cluster.component(2)
      .add_partition("gw", "architecture", 0_ms, 1_ms)
      .add_job(std::make_unique<core::GatewayJob>(gateway));

  // Producer job on node 0: activated every round, but only produces a
  // fresh image every P1 (skipping activations), at a phase offset within
  // the round derived from `phase_fraction`.
  const Duration producer_phase = Duration::nanoseconds(
      static_cast<std::int64_t>(phase_fraction * static_cast<double>(config.round_length.ns())));
  const auto produce_every = static_cast<std::uint64_t>(p1 / config.round_length);
  platform::Component& c0 = cluster.component(0);
  platform::Partition& p0 =
      c0.add_partition("prod", "dasA", producer_phase.mod(9_ms), 1_ms);
  platform::FunctionJob& producer = p0.add_function_job(
      "producer", [&vn_a, produce_every](platform::FunctionJob& self, Instant now) {
        if (self.activations() % produce_every != 0) return;
        self.ports()[0]->deposit(state_instance(*vn_a.message_spec("msgA"), 1, now), now);
      });
  vn_a.attach_sender(cluster.controller(0), producer.add_port(output_port(
                         "msgA", spec::InfoSemantics::kState,
                         spec::ControlParadigm::kTimeTriggered, p1)),
                     cluster.vn_slots(1, 0));

  // Consumer: sample latency at every delivery on node 1's input port.
  SampleSet latencies;
  vn::Port consumer_port{input_port("msgB", spec::InfoSemantics::kState,
                                    spec::ControlParadigm::kTimeTriggered, p2)};
  vn_b.attach_receiver(cluster.controller(1), consumer_port);
  Instant last_seen;
  consumer_port.set_notify([&](vn::Port& port) {
    if (auto inst = port.read()) {
      // Latency: original production instant (carried in the element's
      // timestamp field) to delivery now.
      const Instant produced = inst->elements()[1].fields[1].as_instant();
      if (produced == last_seen) return;  // same image re-sent: skip
      last_seen = produced;
      latencies.add(cluster.simulator().now() - produced);
    }
  });

  cluster.start();
  cluster.run_for(run_for);

  Outcome outcome;
  outcome.samples = latencies.count();
  if (!latencies.empty()) {
    outcome.min_ms = latencies.min() / 1e6;
    outcome.avg_ms = latencies.mean() / 1e6;
    outcome.max_ms = latencies.max() / 1e6;
    outcome.jitter_ms = latencies.spread() / 1e6;
  }
  cell.capture(cell.label(), cluster.simulator(),
               {{"bus", &cluster.bus().trace()}, {"gw:e6", &gateway.trace()}});
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  Harness harness{argc, argv, "e6", {{"--quick"}}};
  bool quick = false;  // --quick: fewer phases, 1s cells (determinism test)
  for (int i = 1; i < argc; ++i)
    if (std::string{argv[i]} == "--quick") quick = true;
  const Duration run_for = quick ? 1_s : 5_s;

  title("E6  TT<->TT gateway latency under period/phase mismatch",
        "matched schedules give constant low latency; mismatched periods or "
        "phases force the gateway to buffer, adding up to one consumer period");

  row("%-8s %-8s %-7s %8s %8s %8s %8s %8s", "P1[ms]", "P2[ms]", "phase", "n", "min", "avg",
      "max", "jitter");
  struct CellResult {
    int p1_ms, p2_ms;
    double phase;
    Outcome o;
  };
  ParallelSweep sweep{harness};
  const std::vector<double> phases =
      quick ? std::vector<double>{0.0, 0.5} : std::vector<double>{0.0, 0.25, 0.5, 0.75};
  std::vector<CellResult> results;
  results.reserve(3 * phases.size());  // no reallocation: cells hold raw slot pointers
  for (const auto& [p1_ms, p2_ms] : {std::pair{10, 10}, {10, 20}, {20, 10}}) {
    for (const double phase : phases) {
      char label[64];
      std::snprintf(label, sizeof label, "p1=%dms p2=%dms phase=%.2f", p1_ms, p2_ms, phase);
      if (!harness.matches(label)) continue;
      results.push_back(CellResult{p1_ms, p2_ms, phase, Outcome{}});
      Outcome* out = &results.back().o;  // stable: all slots reserved before run()
      sweep.add(label, [out, p1_ms = p1_ms, p2_ms = p2_ms, phase, run_for](Cell& cell) {
        *out = run(cell, Duration::milliseconds(p1_ms), Duration::milliseconds(p2_ms), phase,
                   run_for);
        cell.row("%-8d %-8d %-7.2f %8zu %8.2f %8.2f %8.2f %8.2f", p1_ms, p2_ms, phase,
                 out->samples, out->min_ms, out->avg_ms, out->max_ms, out->jitter_ms);
      });
    }
  }
  sweep.run();
  obs::json::Array cells;
  for (const CellResult& r : results) {
    obs::json::Object cell;
    cell.emplace_back("p1_ms", r.p1_ms);
    cell.emplace_back("p2_ms", r.p2_ms);
    cell.emplace_back("phase", r.phase);
    cell.emplace_back("n", r.o.samples);
    cell.emplace_back("min_ms", r.o.min_ms);
    cell.emplace_back("avg_ms", r.o.avg_ms);
    cell.emplace_back("max_ms", r.o.max_ms);
    cell.emplace_back("jitter_ms", r.o.jitter_ms);
    cells.push_back(obs::json::Value{std::move(cell)});
  }
  harness.set_json("cells", obs::json::Value{std::move(cells)});
  row("");
  row("expected shape: the design-time-fixed schedule makes every cell fully");
  row("deterministic (jitter 0). The phase shift moves latency by up to one");
  row("round (here 13..20.5ms); a period mismatch in either direction halves");
  row("the delivered image rate (each image is forwarded once, state semantics).");

  if (harness.tracing()) {
    // In-process phase breakdown over the very spans the trace dump
    // carries: decotrace over --trace-out must reproduce these numbers
    // exactly (same records, two readers).
    const obs::Breakdown breakdown = obs::phase_breakdown(harness.captured_spans());
    row("");
    row("per-phase latency percentiles (traced cells, ns):");
    for (const auto& [flow, stats] : breakdown) {
      row("%s  (%zu traces)", flow.c_str(), stats.traces);
      for (const char* phase : obs::kBreakdownPhases) {
        const auto it = stats.phases.find(phase);
        if (it == stats.phases.end() || it->second.empty()) continue;
        row("  %-10s n=%-6zu p50=%-12lld p99=%-12lld max=%lld", phase, it->second.count(),
            static_cast<long long>(it->second.percentile(0.50)),
            static_cast<long long>(it->second.percentile(0.99)),
            static_cast<long long>(it->second.max()));
      }
    }
    harness.set_json("phase_breakdown", obs::breakdown_to_json(breakdown));
  }
  return 0;
}
