// Zero-allocation guarantee of the compiled transfer plans (DESIGN.md
// S23, acceptance criterion of the de-stringing refactor): once a
// gateway shaped like the E6 experiment (TT state input, TT state
// output, 1 ms dispatch) -- and its event-semantics sibling -- has
// warmed up, the steady-state receive->dissect->store->construct->emit
// loop performs zero heap allocations. Runs in its own test binary
// because it replaces the global operator new.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "../helpers.hpp"
#include "../rt/rt_fixture.hpp"
#include "core/virtual_gateway.hpp"
#include "rt/gateway_runtime.hpp"
#include "core/wiring.hpp"
#include "obs/telemetry.hpp"
#include "platform/cluster.hpp"
#include "sim/simulator.hpp"
#include "vn/et_vn.hpp"
#include "vn/tt_vn.hpp"

// Global allocation counter (same pattern as tests/obs/metrics_test.cpp):
// every heap allocation in this binary bumps the counter; the tests only
// look at the delta across the steady-state loop.
namespace {
std::size_t g_allocations = 0;
}

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// Kept out of line: inlined into a caller, the std::free below would sit
// next to that caller's operator new, and GCC reports the pair as
// mismatched (-Wmismatched-new-delete) although both ends are malloc/free.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace decos::core {
namespace {

using decos::testing::state_message;
using namespace decos::literals;

std::unique_ptr<VirtualGateway> make_e6_gateway(spec::InfoSemantics semantics) {
  spec::LinkSpec link_a{"dasA"};
  link_a.add_message(state_message("msgA", "image", 1));
  spec::PortSpec in;
  in.message = "msgA";
  in.direction = spec::DataDirection::kInput;
  in.semantics = semantics;
  in.paradigm = semantics == spec::InfoSemantics::kState
                    ? spec::ControlParadigm::kTimeTriggered
                    : spec::ControlParadigm::kEventTriggered;
  in.period = 10_ms;
  in.min_interarrival = 1_us;
  in.max_interarrival = Duration::seconds(3600);
  in.queue_capacity = 16;
  link_a.add_port(in);

  spec::LinkSpec link_b{"dasB"};
  link_b.add_message(state_message("msgB", "image", 2));
  spec::PortSpec out;
  out.message = "msgB";
  out.direction = spec::DataDirection::kOutput;
  out.semantics = semantics;
  out.paradigm = semantics == spec::InfoSemantics::kState
                     ? spec::ControlParadigm::kTimeTriggered
                     : spec::ControlParadigm::kEventTriggered;
  if (semantics == spec::InfoSemantics::kState) out.period = 10_ms;
  out.queue_capacity = 16;
  link_b.add_port(out);

  GatewayConfig config;
  config.default_d_acc = Duration::seconds(3600);
  config.dispatch_period = 1_ms;
  auto gw = std::make_unique<VirtualGateway>("e6", std::move(link_a), std::move(link_b), config);
  gw->finalize();
  // The human-readable trace recorder formats strings per event; the
  // zero-allocation contract covers the pipeline itself, with tracing
  // off (spans, when bound, record two interned u32s -- but this test
  // runs unbound, like a production gateway without an exporter).
  gw->trace().set_enabled(false);
  return gw;
}

/// Run `iterations` of the full pipeline: port deposit (ring
/// copy-assign) -> notify -> admission automaton -> dissect plan ->
/// repository store -> dispatch -> construct plan -> emit.
std::size_t pipeline_allocations(VirtualGateway& gw, spec::MessageInstance& inst,
                                 Instant& now, int iterations) {
  vn::Port* in_port = gw.link_a().port("msgA");
  const std::size_t before = g_allocations;
  for (int i = 0; i < iterations; ++i) {
    now += 10_ms;
    inst.elements()[1].fields[0] = ta::Value{static_cast<std::int64_t>(i)};
    inst.elements()[1].fields[1] = ta::Value{now};
    inst.set_send_time(now);
    in_port->deposit(inst, now);
    gw.dispatch(now);
  }
  return g_allocations - before;
}

TEST(HotPathAllocations, SteadyStateStatePipelineAllocatesNothing) {
  auto gw = make_e6_gateway(spec::InfoSemantics::kState);
  std::size_t emitted = 0;
  gw->link_b().set_emitter("msgB",
                           [&emitted](const spec::MessageInstance&) { ++emitted; });
  const spec::MessageSpec& ms = *gw->link_a().spec().message("msgA");
  spec::MessageInstance inst = spec::make_instance(ms);
  Instant now = Instant::origin();

  pipeline_allocations(*gw, inst, now, 256);  // warm every ring/scratch/buffer
  const std::size_t warm_emitted = emitted;
  const std::size_t delta = pipeline_allocations(*gw, inst, now, 512);
  EXPECT_EQ(delta, 0u) << "steady-state dissect+construct allocated";
  EXPECT_GT(emitted, warm_emitted) << "pipeline stopped forwarding";
}

// -- kernel (sim/event_queue.hpp): the acceptance criterion of the typed
// periodic-event refactor is zero heap allocations and zero hash probes
// per steady-state firing. Hashing is gone by construction (no map
// remains in the kernel); allocation is asserted here. --

TEST(HotPathAllocations, SteadyPeriodicFiringAllocatesNothing) {
  sim::Simulator sim;
  std::uint64_t fired = 0;
  std::vector<sim::PeriodicTask> tasks;
  // 64 tasks with TDMA-client-sized captures (this + index + counter
  // reference): inline in the node, far under InlineAction's 128 bytes.
  tasks.reserve(64);
  for (int i = 0; i < 64; ++i) {
    tasks.push_back(sim.schedule_periodic(sim.now() + Duration::microseconds(1 + 13 * i), 1_ms,
                                          [&fired, i] { fired += static_cast<unsigned>(i) + 1; }));
  }
  sim.run_until(sim.now() + 10_ms);  // warm the pool and the wheel
  ASSERT_GT(fired, 0u);

  const std::size_t before = g_allocations;
  sim.run_until(sim.now() + 100_ms);  // ~6400 firings
  EXPECT_EQ(g_allocations - before, 0u) << "steady periodic firing allocated";
  EXPECT_EQ(sim.pending(), tasks.size());
}

TEST(HotPathAllocations, WarmedOneShotChurnAllocatesNothing) {
  // One-shot schedule -> fire -> release recycles pool nodes; once the
  // pool has grown to the high-water mark, churn is allocation-free.
  sim::Simulator sim;
  std::uint64_t fired = 0;
  for (int i = 0; i < 256; ++i)
    sim.schedule_after(Duration::microseconds(3 * (i + 1)), [&fired] { ++fired; });
  sim.run_until(sim.now() + 1_ms);  // drain: every node is now pooled

  const std::size_t before = g_allocations;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 256; ++i)
      sim.schedule_after(Duration::microseconds(3 * (i + 1)), [&fired] { ++fired; });
    sim.run_until(sim.now() + 1_ms);
  }
  EXPECT_EQ(g_allocations - before, 0u) << "warmed one-shot churn allocated";
  EXPECT_EQ(fired, 256u * 101u);
}

TEST(HotPathAllocations, ScheduleCancelChurnAllocatesNothing) {
  // The integration-timeout shape: schedule, then cancel before it
  // fires. O(1) unlink, node straight back to the free list.
  sim::Simulator sim;
  bool fired = false;
  const sim::EventId warm = sim.schedule_after(1_ms, [&fired] { fired = true; });
  sim.cancel(warm);

  const std::size_t before = g_allocations;
  for (int i = 0; i < 10000; ++i) {
    const sim::EventId id = sim.schedule_after(1_ms, [&fired] { fired = true; });
    ASSERT_TRUE(sim.cancel(id));
  }
  EXPECT_EQ(g_allocations - before, 0u) << "schedule/cancel churn allocated";
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.pending(), 0u);
}

// -- streaming telemetry (obs/telemetry): the acceptance criterion of
// the live-windowed-telemetry work is that the steady-state aggregation
// path (span folding + window close + serialization) allocates nothing
// once flows, the open-trace table, and the line buffers are warm. --

namespace {

/// Counts lines without touching the heap (no stream, no copies).
class CountingTelemetrySink : public obs::TelemetrySink {
 public:
  void write_line(std::string_view line) override {
    ++lines_;
    bytes_ += line.size();
  }
  std::uint64_t lines() const { return lines_; }
  std::uint64_t bytes() const { return bytes_; }

 private:
  std::uint64_t lines_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace

TEST(HotPathAllocations, SteadyTelemetryAggregationAllocatesNothing) {
  obs::MetricsRegistry registry;
  obs::Counter& frames = registry.counter("tt.frames_sent");
  obs::Gauge& depth = registry.gauge("vn.depth");
  obs::Histogram& lat = registry.histogram("gw.latency_ns");

  CountingTelemetrySink sink;
  obs::TelemetryConfig config;
  config.window = 1_ms;  // tiny window: closes happen inside the loop
  config.max_open_traces = 64;
  obs::WindowAggregator aggregator{&registry, nullptr, config};
  aggregator.set_sink(&sink);
  aggregator.begin_stream("hot-path");
  aggregator.set_deadline("msgA->msgB", 5_ms);

  // Spans are fed straight into the sink interface (what the collector
  // does per emit), with pre-interned symbols: the contract under test
  // is the aggregation path itself, not the collector's retention ring.
  const Symbol track_node = intern_symbol("n");
  const Symbol track_bus = intern_symbol("bus");
  const Symbol track_gw = intern_symbol("gw");
  const Symbol track_vn = intern_symbol("vn");
  const Symbol msg_a = intern_symbol("msgA");
  const Symbol msg_b = intern_symbol("msgB");
  const Symbol slot_s = intern_symbol("s");
  const Symbol element = intern_symbol("el");

  std::uint64_t next_id = 1;
  const auto span = [&](std::uint64_t trace, std::uint64_t parent, obs::Phase phase, Symbol track,
                        Symbol name, Instant start, Instant end) {
    obs::Span s;
    s.trace_id = trace;
    s.span_id = next_id++;
    s.parent_id = parent;
    s.phase = phase;
    s.track = track;
    s.name = name;
    s.start = start;
    s.end = end;
    aggregator.on_span(s);
    return s.span_id;
  };

  std::uint64_t next_trace = 1;
  const auto emit_round = [&](int i) {
    const Instant t0 = Instant::from_ns(std::int64_t{i} * 700'000);
    const std::uint64_t trace = next_trace++;
    const std::uint64_t root = span(trace, 0, obs::Phase::kSend, track_node, msg_a, t0, t0);
    const std::uint64_t bus = span(trace, root, obs::Phase::kBus, track_bus, slot_s, t0,
                                   t0 + 100_us);
    const std::uint64_t dis = span(trace, bus, obs::Phase::kDissect, track_gw, msg_a, t0 + 100_us,
                                   t0 + 110_us);
    const std::uint64_t repo = span(trace, dis, obs::Phase::kRepoWait, track_gw, element,
                                    t0 + 110_us, t0 + 200_us + 10_us * (i % 7));
    const std::uint64_t con = span(trace, repo, obs::Phase::kConstruct, track_gw, msg_b,
                                   t0 + 300_us, t0 + 310_us);
    span(trace, con, obs::Phase::kDeliver, track_vn, msg_b, t0 + 310_us, t0 + 400_us);
    if (obs::kMetricsEnabled) {
      frames.add();
      depth.set(i % 5);
      lat.observe(1000 + (i % 3) * 500);
    }
  };

  // Warm up: flows registered, table touched, line buffers and the
  // metric-delta array at their high-water sizes (several window closes
  // happen within 256 rounds at 0.7 ms per round / 1 ms windows).
  for (int i = 0; i < 256; ++i) emit_round(i);
  ASSERT_GT(sink.lines(), 2u) << "warmup closed no windows";

  const std::size_t before = g_allocations;
  for (int i = 256; i < 1024; ++i) emit_round(i);
  EXPECT_EQ(g_allocations - before, 0u) << "steady-state telemetry aggregation allocated";
  EXPECT_GT(sink.bytes(), 0u);

  aggregator.flush();
  const std::vector<obs::WindowAggregator::FlowTotals> totals = aggregator.totals();
  ASSERT_EQ(totals.size(), 1u);
  EXPECT_EQ(totals[0].traces, 1024u);
  EXPECT_EQ(totals[0].deadline_miss, 0u);
}

// -- full frame path (S29): the pipeline tests above drive the gateway
// ports directly; this one runs the complete wire journey in both
// directions at once through a bidirectional gateway -- producer port ->
// TT VN encode (compiled WireLayout into the pooled slot buffer) -> TDMA
// bus -> TT VN decode (warmed listener scratch) -> gateway batched
// dispatch -> ET VN encode -> ET slots -> ET VN decode -> consumer port,
// and the ET->TT mirror of it. Once warm, whole rounds of simulated
// traffic must not touch the heap. --

TEST(HotPathAllocations, FullFramePathThroughBothVnsAllocatesNothing) {
  platform::ClusterConfig config;
  config.nodes = 3;
  config.round_length = 10_ms;
  config.allocations = {{1, "dasA", 32, {0, 2}}, {2, "dasB", 32, {1, 2}}};
  platform::Cluster cluster{config};
  // The human-readable bus trace formats a string per frame and the span
  // collector records a causal span per traced hop; like the gateway
  // trace below, both are off in a production-shaped hot path.
  cluster.bus().trace().set_enabled(false);
  cluster.simulator().spans().set_enabled(false);

  vn::TtVirtualNetwork vn_a{"vn-a", 1};
  vn::EtVirtualNetwork vn_b{"vn-b", 2};

  const auto make_port = [](const std::string& msg, spec::DataDirection dir,
                            spec::ControlParadigm par, Duration period) {
    spec::PortSpec ps;
    ps.message = msg;
    ps.direction = dir;
    ps.semantics = spec::InfoSemantics::kState;
    ps.paradigm = par;
    ps.period = period;
    ps.min_interarrival = 1_us;
    ps.max_interarrival = Duration::seconds(3600);
    ps.queue_capacity = 16;
    return ps;
  };

  // Link A: consumes msgX, produces msgYback. Link B: produces msgXfwd,
  // consumes msgY (state semantics on both VNs; the ET side carries the
  // state updates event-triggered).
  spec::LinkSpec link_a{"dasA"};
  link_a.add_message(state_message("msgX", "xdata", 1));
  link_a.add_port(make_port("msgX", spec::DataDirection::kInput,
                            spec::ControlParadigm::kTimeTriggered, 10_ms));
  link_a.add_message(state_message("msgYback", "ydata", 2));
  link_a.add_port(make_port("msgYback", spec::DataDirection::kOutput,
                            spec::ControlParadigm::kTimeTriggered, 10_ms));
  spec::LinkSpec link_b{"dasB"};
  link_b.add_message(state_message("msgXfwd", "xdata", 3));
  link_b.add_port(make_port("msgXfwd", spec::DataDirection::kOutput,
                            spec::ControlParadigm::kEventTriggered, Duration::zero()));
  link_b.add_message(state_message("msgY", "ydata", 4));
  link_b.add_port(make_port("msgY", spec::DataDirection::kInput,
                            spec::ControlParadigm::kEventTriggered, Duration::zero()));

  GatewayConfig gw_config;
  gw_config.default_d_acc = Duration::seconds(3600);
  gw_config.dispatch_period = 1_ms;
  VirtualGateway gateway{"hot", std::move(link_a), std::move(link_b), gw_config};
  gateway.finalize();
  gateway.trace().set_enabled(false);
  wire_tt_link(gateway, 0, vn_a, cluster.controller(2),
               {{"msgYback", cluster.vn_slots(1, 2)}});
  wire_et_link(gateway, 1, vn_b, cluster.controller(2), cluster.vn_slots(2, 2));

  // DAS A endpoints on node 0; DAS B endpoints on node 1.
  vn::Port producer_a{make_port("msgX", spec::DataDirection::kOutput,
                                spec::ControlParadigm::kTimeTriggered, 10_ms)};
  vn_a.attach_sender(cluster.controller(0), producer_a, cluster.vn_slots(1, 0));
  vn::Port consumer_a{make_port("msgYback", spec::DataDirection::kInput,
                                spec::ControlParadigm::kTimeTriggered, 10_ms)};
  vn_a.attach_receiver(cluster.controller(0), consumer_a);
  vn::Port consumer_b{make_port("msgXfwd", spec::DataDirection::kInput,
                                spec::ControlParadigm::kEventTriggered, Duration::zero())};
  vn_b.attach_receiver(cluster.controller(1), consumer_b);
  vn_b.attach_node(cluster.controller(1), cluster.vn_slots(2, 1));

  cluster.component(2)
      .add_partition("gw", "architecture", 0_ms, 1_ms)
      .add_function_job("gwjob", [&gateway](platform::FunctionJob&, Instant now) {
        gateway.dispatch(now);
      });

  // Producers mutate one persistent instance per direction; the ports
  // and VN scratch hold the only other copies, all warmed below.
  spec::MessageInstance inst_x = spec::make_instance(*gateway.link_a().spec().message("msgX"));
  spec::MessageInstance inst_y = spec::make_instance(*gateway.link_b().spec().message("msgY"));
  std::int64_t tick = 0;
  cluster.component(0)
      .add_partition("pa", "dasA", 2_ms, 200_us)
      .add_function_job("prodA", [&](platform::FunctionJob&, Instant now) {
        inst_x.elements()[1].fields[0] = ta::Value{tick};
        inst_x.elements()[1].fields[1] = ta::Value{now};
        inst_x.set_send_time(now);
        producer_a.deposit(inst_x, now);
      });
  cluster.component(1)
      .add_partition("pb", "dasB", 4_ms, 200_us)
      .add_function_job("prodB", [&](platform::FunctionJob&, Instant now) {
        inst_y.elements()[1].fields[0] = ta::Value{tick++};
        inst_y.elements()[1].fields[1] = ta::Value{now};
        inst_y.set_send_time(now);
        vn_b.send(cluster.controller(1), inst_y);
      });

  cluster.start();
  cluster.run_for(Duration::milliseconds(2560));  // warm pools, rings, scratch
  ASSERT_TRUE(consumer_b.has_data()) << "TT->ET direction never delivered";
  ASSERT_TRUE(consumer_a.has_data()) << "ET->TT direction never delivered";
  const std::int64_t warm_x = consumer_b.peek_read()->element("xdata")->fields[0].as_int();
  const std::int64_t warm_y = consumer_a.peek_read()->element("ydata")->fields[0].as_int();

  const std::size_t before = g_allocations;
  cluster.run_for(Duration::milliseconds(5120));
  EXPECT_EQ(g_allocations - before, 0u) << "steady-state full frame path allocated";

  EXPECT_GT(consumer_b.peek_read()->element("xdata")->fields[0].as_int(), warm_x)
      << "TT->ET direction stopped forwarding";
  EXPECT_GT(consumer_a.peek_read()->element("ydata")->fields[0].as_int(), warm_y)
      << "ET->TT direction stopped forwarding";
}

// -- live runtime (S30): the acceptance criterion of the host-time
// runtime is that the steady-state poll loop -- ring consume -> frame
// identify -> decode into warmed scratch -> deposit -> dispatch ->
// construct -> encode into the warmed tx buffer -> ring push -- touches
// the heap zero times once the scratch instances, tx buffers and rings
// are warm. --

TEST(HotPathAllocations, SteadyStateRuntimePollLoopAllocatesNothing) {
  rt_testing::RtGatewayOptions options;  // event push: egress per ingress frame
  auto gw = rt_testing::make_rt_gateway(options);
  rt::ManualClock clock;
  rt::GatewayRuntime runtime{*gw, clock};
  rt::SpscRing a_in{1 << 16}, a_out{1 << 16}, b_in{1 << 16}, b_out{1 << 16};
  rt::RingEndpoint side_a{a_in, a_out}, side_b{b_in, b_out};
  runtime.attach(0, side_a);
  runtime.attach(1, side_b);
  runtime.start();

  const spec::MessageSpec& msg_a = *gw->link_a().spec().message("msgA");
  std::size_t egress = 0;
  Instant now = Instant::origin();
  const auto round = [&](int i) {
    now += 100_us;
    clock.set(now);
    const std::vector<std::byte> frame =
        rt_testing::encode_frame(msg_a, static_cast<std::int32_t>(i), now);
    if (!a_in.try_push(frame)) return;
    runtime.poll_once(clock.now());
    b_out.consume(64, [&egress](std::span<const std::byte>) { ++egress; });
  };
  // encode_frame allocates the source vector; exclude it from the
  // measured loop by pre-encoding a reusable frame for the hot rounds.
  for (int i = 0; i < 256; ++i) round(i);  // warm scratch, tx buffers, wheels
  ASSERT_GT(egress, 0u) << "runtime never forwarded";

  const std::vector<std::byte> frame = rt_testing::encode_frame(msg_a, 7, now);
  const std::size_t warm_egress = egress;
  const std::size_t before = g_allocations;
  for (int i = 0; i < 512; ++i) {
    now += 100_us;
    clock.set(now);
    if (!a_in.try_push(frame)) continue;
    runtime.poll_once(clock.now());
    b_out.consume(64, [&egress](std::span<const std::byte>) { ++egress; });
  }
  EXPECT_EQ(g_allocations - before, 0u) << "steady-state runtime poll loop allocated";
  EXPECT_GT(egress, warm_egress) << "runtime stopped forwarding";
}

TEST(HotPathAllocations, SteadyStateEventPipelineAllocatesNothing) {
  auto gw = make_e6_gateway(spec::InfoSemantics::kEvent);
  std::size_t emitted = 0;
  gw->link_b().set_emitter("msgB",
                           [&emitted](const spec::MessageInstance&) { ++emitted; });
  const spec::MessageSpec& ms = *gw->link_a().spec().message("msgA");
  spec::MessageInstance inst = spec::make_instance(ms);
  Instant now = Instant::origin();

  pipeline_allocations(*gw, inst, now, 256);
  const std::size_t warm_emitted = emitted;
  const std::size_t delta = pipeline_allocations(*gw, inst, now, 512);
  EXPECT_EQ(delta, 0u) << "steady-state event dissect+construct allocated";
  EXPECT_GT(emitted, warm_emitted) << "pipeline stopped forwarding";
}

}  // namespace
}  // namespace decos::core
