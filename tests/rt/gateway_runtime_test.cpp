// rt::GatewayRuntime behaviour over ring, shm and UDP transports: byte
// frames in, compiled gateway path, byte frames out; per-flow
// backpressure policies; exact dispatch grid; live temporal filtering.
// All under a ManualClock, so every assertion is deterministic -- except
// the run_until() host-loop cases at the end, which run on the
// monotonic clock and assert only bounds.
#include <gtest/gtest.h>

#include <unistd.h>

#include <sstream>
#include <thread>
#include <vector>

#include "obs/telemetry.hpp"
#include "rt_fixture.hpp"
#include "rt/gateway_runtime.hpp"
#include "rt/udp.hpp"
#include "util/rng.hpp"

namespace decos::rt {
namespace {

using rt_testing::RtGatewayOptions;
using rt_testing::encode_frame;
using rt_testing::make_rt_gateway;

struct RingPair {
  SpscRing ingress{1 << 16};  // peer -> gateway
  SpscRing egress{1 << 16};   // gateway -> peer
  RingEndpoint endpoint{ingress, egress};
};

std::vector<std::vector<std::byte>> drain(SpscRing& ring) {
  std::vector<std::vector<std::byte>> frames;
  ring.consume(1024, [&](std::span<const std::byte> payload) {
    frames.emplace_back(payload.begin(), payload.end());
  });
  return frames;
}

std::int64_t decoded_value(const spec::MessageSpec& spec, const std::vector<std::byte>& frame) {
  return spec::decode(spec, frame).value().element("image")->fields[0].as_int();
}

TEST(GatewayRuntime, EventPathEmitsOneEgressFramePerIngressFrame) {
  auto gw = make_rt_gateway({});
  ManualClock clock;
  GatewayRuntime runtime{*gw, clock};
  RingPair side_a, side_b;
  runtime.attach(0, side_a.endpoint);
  runtime.attach(1, side_b.endpoint);
  runtime.start();

  const spec::MessageSpec& msg_a = *gw->link_a().spec().message("msgA");
  const spec::MessageSpec& msg_b = *gw->link_b().spec().message("msgB");
  for (int i = 0; i < 5; ++i) {
    clock.advance(Duration::microseconds(100));
    ASSERT_TRUE(side_a.ingress.try_push(encode_frame(msg_a, 100 + i, clock.now())));
    runtime.poll_once(clock.now());
  }

  const auto egress = drain(side_b.egress);
  ASSERT_EQ(egress.size(), 5u) << "event flow must emit per arrival";
  for (int i = 0; i < 5; ++i) EXPECT_EQ(decoded_value(msg_b, egress[i]), 100 + i);
  EXPECT_EQ(runtime.stats().rx_frames, 5u);
  EXPECT_EQ(runtime.stats().tx_frames, 5u);
  EXPECT_EQ(runtime.stats().rx_unknown, 0u);
  EXPECT_EQ(gw->stats().messages_admitted, 5u);
}

TEST(GatewayRuntime, StateFlowOverwritesOldestAndEmitsFreshestAtDispatch) {
  RtGatewayOptions options;
  options.semantics = spec::InfoSemantics::kState;
  options.interaction = spec::Interaction::kPull;  // drained at dispatch only
  auto gw = make_rt_gateway(options);
  ManualClock clock;
  GatewayRuntime runtime{*gw, clock};
  RingPair side_a, side_b;
  runtime.attach(0, side_a.endpoint);
  runtime.attach(1, side_b.endpoint);
  runtime.start();

  const spec::MessageSpec& msg_a = *gw->link_a().spec().message("msgA");
  const spec::MessageSpec& msg_b = *gw->link_b().spec().message("msgB");

  // Five images land before any dispatch tick: the state port keeps
  // only the freshest (overwrite-oldest, never a queue, never a drop).
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(side_a.ingress.try_push(encode_frame(msg_a, 200 + i, clock.now())));
  }
  clock.advance(Duration::microseconds(500));
  runtime.poll_once(clock.now());
  EXPECT_EQ(runtime.stats().rx_dropped, 0u) << "state flows never drop";

  clock.advance(Duration::milliseconds(12));  // past dispatch + TT output period
  runtime.poll_once(clock.now());
  const auto egress = drain(side_b.egress);
  ASSERT_GE(egress.size(), 1u) << "TT output never constructed";
  EXPECT_EQ(decoded_value(msg_b, egress.back()), 204) << "stale image emitted";
}

TEST(GatewayRuntime, PullEventFlowDropsNewestBeyondQueueCapacity) {
  RtGatewayOptions options;
  options.interaction = spec::Interaction::kPull;
  options.queue_capacity = 2;
  auto gw = make_rt_gateway(options);
  ManualClock clock;
  GatewayRuntime runtime{*gw, clock};
  RingPair side_a, side_b;
  runtime.attach(0, side_a.endpoint);
  runtime.attach(1, side_b.endpoint);
  runtime.start();

  const spec::MessageSpec& msg_a = *gw->link_a().spec().message("msgA");
  for (int i = 0; i < 5; ++i)
    ASSERT_TRUE(side_a.ingress.try_push(encode_frame(msg_a, 300 + i, clock.now())));
  clock.advance(Duration::microseconds(10));
  runtime.poll_once(clock.now());

  EXPECT_EQ(runtime.stats().rx_frames, 5u);
  EXPECT_EQ(runtime.stats().rx_dropped, 3u) << "queue capacity 2 must drop the 3 newest";
  const auto flows = runtime.flow_stats();
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].message, "msgA");
  EXPECT_TRUE(flows[0].is_event);
  EXPECT_EQ(flows[0].drops, 3u);

  // The two queued survivors drain at the next dispatch tick.
  clock.advance(Duration::milliseconds(2));
  runtime.poll_once(clock.now());
  const auto egress = drain(side_b.egress);
  ASSERT_EQ(egress.size(), 2u);
  const spec::MessageSpec& msg_b = *gw->link_b().spec().message("msgB");
  EXPECT_EQ(decoded_value(msg_b, egress[0]), 300);
  EXPECT_EQ(decoded_value(msg_b, egress[1]), 301);
}

TEST(GatewayRuntime, UnknownFramesAreCountedNotForwarded) {
  auto gw = make_rt_gateway({});
  ManualClock clock;
  GatewayRuntime runtime{*gw, clock};
  RingPair side_a, side_b;
  runtime.attach(0, side_a.endpoint);
  runtime.attach(1, side_b.endpoint);
  runtime.start();

  const std::vector<std::byte> junk(32, std::byte{0xee});
  ASSERT_TRUE(side_a.ingress.try_push(junk));
  clock.advance(Duration::microseconds(10));
  runtime.poll_once(clock.now());

  EXPECT_EQ(runtime.stats().rx_frames, 1u);
  EXPECT_EQ(runtime.stats().rx_unknown, 1u);
  EXPECT_TRUE(side_b.egress.empty());
}

TEST(GatewayRuntime, DispatchRunsOnExactPeriodGridWithCatchUp) {
  auto gw = make_rt_gateway({});  // dispatch_period 1 ms
  ManualClock clock;
  clock.set(Instant::from_ns(500'000));
  GatewayRuntime runtime{*gw, clock};
  RingPair side_a;
  runtime.attach(0, side_a.endpoint);
  runtime.start();

  EXPECT_EQ(runtime.next_dispatch(), Instant::from_ns(1'500'000));
  clock.advance(Duration::milliseconds(10));  // loop stalled for 10 periods
  runtime.poll_once(clock.now());
  EXPECT_EQ(runtime.stats().dispatches, 10u) << "catch-up must run every missed grid tick";
  EXPECT_EQ(runtime.next_dispatch(), Instant::from_ns(11'500'000));
}

TEST(GatewayRuntime, TemporalFilteringAppliesToLiveStreams) {
  RtGatewayOptions options;
  options.min_interarrival = Duration::microseconds(100);
  auto gw = make_rt_gateway(options);
  ManualClock clock;
  GatewayRuntime runtime{*gw, clock};
  RingPair side_a, side_b;
  runtime.attach(0, side_a.endpoint);
  runtime.attach(1, side_b.endpoint);
  runtime.start();

  const spec::MessageSpec& msg_a = *gw->link_a().spec().message("msgA");
  clock.advance(Duration::milliseconds(1));
  ASSERT_TRUE(side_a.ingress.try_push(encode_frame(msg_a, 1, clock.now())));
  runtime.poll_once(clock.now());
  // Second frame violates tmin = 100 us: the admission automaton drops
  // it (error containment on a live byte stream).
  clock.advance(Duration::microseconds(10));
  ASSERT_TRUE(side_a.ingress.try_push(encode_frame(msg_a, 2, clock.now())));
  runtime.poll_once(clock.now());

  EXPECT_EQ(gw->stats().messages_admitted, 1u);
  EXPECT_GE(gw->stats().blocked_temporal, 1u);
  EXPECT_EQ(drain(side_b.egress).size(), 1u);
}

TEST(GatewayRuntime, ShmTransportCarriesTheFullPath) {
  const std::string base = "/decos_rt_gwtest_" + std::to_string(::getpid());
  auto in_ring = ShmRing::create(base + ".in", 1 << 16);
  auto out_ring = ShmRing::create(base + ".out", 1 << 16);
  ASSERT_TRUE(in_ring.ok()) << in_ring.error().to_string();
  ASSERT_TRUE(out_ring.ok()) << out_ring.error().to_string();
  // The producer/consumer side maps the same objects independently,
  // as a second process would.
  auto in_peer = ShmRing::open(base + ".in");
  auto out_peer = ShmRing::open(base + ".out");
  ASSERT_TRUE(in_peer.ok()) << in_peer.error().to_string();
  ASSERT_TRUE(out_peer.ok()) << out_peer.error().to_string();

  auto gw = make_rt_gateway({});
  ManualClock clock;
  GatewayRuntime runtime{*gw, clock};
  RingEndpoint side_a{in_ring.value().ring(), out_ring.value().ring()};
  runtime.attach(0, side_a);
  SpscRing b_in{1 << 16}, b_out{1 << 16};
  RingEndpoint side_b{b_in, b_out};
  runtime.attach(1, side_b);
  runtime.start();

  const spec::MessageSpec& msg_a = *gw->link_a().spec().message("msgA");
  for (int i = 0; i < 3; ++i) {
    clock.advance(Duration::microseconds(50));
    ASSERT_TRUE(in_peer.value().ring().try_push(encode_frame(msg_a, 400 + i, clock.now())));
    runtime.poll_once(clock.now());
  }
  const auto egress = drain(b_out);
  ASSERT_EQ(egress.size(), 3u);
  const spec::MessageSpec& msg_b = *gw->link_b().spec().message("msgB");
  EXPECT_EQ(decoded_value(msg_b, egress[2]), 402);
}

TEST(GatewayRuntime, UdpTransportCarriesTheFullPath) {
  auto gw_ep = UdpEndpoint::bind_loopback(0);
  ASSERT_TRUE(gw_ep.ok()) << gw_ep.error().to_string();
  auto client = UdpEndpoint::bind_loopback(0, gw_ep.value().local_port());
  ASSERT_TRUE(client.ok()) << client.error().to_string();

  auto gw = make_rt_gateway({});
  ManualClock clock;
  GatewayRuntime runtime{*gw, clock};
  runtime.attach(0, gw_ep.value());
  SpscRing b_in{1 << 16}, b_out{1 << 16};
  RingEndpoint side_b{b_in, b_out};
  runtime.attach(1, side_b);
  runtime.start();

  const spec::MessageSpec& msg_a = *gw->link_a().spec().message("msgA");
  for (int i = 0; i < 3; ++i) {
    clock.advance(Duration::microseconds(50));
    ASSERT_TRUE(client.value().send(encode_frame(msg_a, 500 + i, clock.now())));
  }
  // Loopback datagrams are asynchronous: poll until all three crossed.
  for (int spin = 0; spin < 100'000 && runtime.stats().tx_frames < 3; ++spin) {
    clock.advance(Duration::microseconds(1));
    runtime.poll_once(clock.now());
  }
  const auto egress = drain(b_out);
  ASSERT_EQ(egress.size(), 3u);
  const spec::MessageSpec& msg_b = *gw->link_b().spec().message("msgB");
  EXPECT_EQ(decoded_value(msg_b, 0 < egress.size() ? egress[0] : egress.back()), 500);
  EXPECT_EQ(runtime.stats().rx_unknown, 0u);
}

TEST(GatewayRuntime, MetricsExposeDropsAndServiceShape) {
  RtGatewayOptions options;
  options.interaction = spec::Interaction::kPull;
  options.queue_capacity = 1;
  auto gw = make_rt_gateway(options);
  ManualClock clock;
  GatewayRuntime runtime{*gw, clock};
  RingPair side_a, side_b;
  runtime.attach(0, side_a.endpoint);
  runtime.attach(1, side_b.endpoint);
  obs::MetricsRegistry metrics;
  runtime.bind_observability(metrics);
  runtime.start();

  const spec::MessageSpec& msg_a = *gw->link_a().spec().message("msgA");
  for (int i = 0; i < 4; ++i)
    ASSERT_TRUE(side_a.ingress.try_push(encode_frame(msg_a, i, clock.now())));
  clock.advance(Duration::microseconds(10));
  runtime.poll_once(clock.now());

  EXPECT_EQ(metrics.counter("rt.rtgw.rx_frames").value(), 4u);
  EXPECT_EQ(metrics.counter("rt.rtgw.rx_dropped").value(), 3u);
  EXPECT_EQ(metrics.histogram("rt.rtgw.batch_frames").count(), 1u);
  EXPECT_EQ(metrics.histogram("rt.rtgw.batch_frames").max(), 4);
}

TEST(GatewayRuntime, EveryFrameOutcomeIsTalliedOnce) {
  RtGatewayOptions options;
  options.interaction = spec::Interaction::kPull;  // the queue fills between dispatch ticks
  options.queue_capacity = 3;
  auto gw = make_rt_gateway(options);
  ManualClock clock;
  GatewayRuntime runtime{*gw, clock};
  SpscRing a_in{1 << 16}, a_out{1 << 16}, b_in{1 << 16};
  SpscRing b_out{SpscRing::kMinCapacity};  // small and never drained: egress drops
  RingEndpoint side_a{a_in, a_out};
  RingEndpoint side_b{b_in, b_out};
  runtime.attach(0, side_a);
  runtime.attach(1, side_b);
  obs::MetricsRegistry metrics;
  runtime.bind_observability(metrics);
  runtime.start();

  const spec::MessageSpec& msg_a = *gw->link_a().spec().message("msgA");
  const spec::MessageSpec& msg_b = *gw->link_b().spec().message("msgB");
  Rng rng{0x7a11e5};
  std::uint64_t pushed = 0;
  for (int step = 0; step < 400; ++step) {
    const std::int64_t burst = rng.uniform_int(0, 8);
    for (std::int64_t i = 0; i < burst; ++i) {
      // Side B has no input port, so everything arriving there is unknown.
      SpscRing& ring = rng.bernoulli(0.8) ? a_in : b_in;
      std::vector<std::byte> frame;
      switch (rng.uniform_int(0, 3)) {
        case 0:
        case 1:  // good msgA (overflows the event queue in bursts)
          frame = encode_frame(msg_a, step, clock.now());
          break;
        case 2:  // msgB's key: no input port on either side matches it
          frame = encode_frame(msg_b, step, clock.now());
          break;
        default:  // msgA key bytes, wrong frame size
          frame = encode_frame(msg_a, step, clock.now());
          frame.resize(frame.size() + static_cast<std::size_t>(rng.uniform_int(1, 8)));
          break;
      }
      ASSERT_TRUE(ring.try_push(frame));
      ++pushed;
    }
    clock.advance(Duration::microseconds(rng.uniform_int(10, 700)));
    runtime.poll_once(clock.now());

    const RuntimeStats stats = runtime.stats();
    std::uint64_t frames = 0, drops = 0, decode_errors = 0;
    for (const FlowStats& flow : runtime.flow_stats()) {
      frames += flow.frames;
      drops += flow.drops;
      decode_errors += flow.decode_errors;
    }
    ASSERT_EQ(stats.rx_frames, frames + drops + decode_errors + stats.rx_unknown) << step;
    ASSERT_EQ(stats.rx_dropped, drops) << step;
    ASSERT_EQ(stats.rx_decode_errors, decode_errors) << step;
    ASSERT_EQ(metrics.counter("rt.rtgw.rx_frames").value(), stats.rx_frames) << step;
    ASSERT_EQ(metrics.counter("rt.rtgw.rx_unknown").value(), stats.rx_unknown) << step;
    ASSERT_EQ(metrics.counter("rt.rtgw.rx_dropped").value(), stats.rx_dropped) << step;
    ASSERT_EQ(metrics.counter("rt.rtgw.tx_frames").value(), stats.tx_frames) << step;
    ASSERT_EQ(metrics.counter("rt.rtgw.tx_dropped").value(), stats.tx_dropped) << step;
  }

  // Bursts never exceed max_batch, so every pushed frame was drained,
  // and the seeded mix reached every outcome.
  const RuntimeStats stats = runtime.stats();
  EXPECT_EQ(stats.rx_frames, pushed);
  EXPECT_GT(stats.rx_unknown, 0u);
  EXPECT_GT(stats.rx_dropped, 0u);
  EXPECT_GT(stats.tx_frames, 0u);
  EXPECT_GT(stats.tx_dropped, 0u);
  EXPECT_EQ(stats.tx_frames + stats.tx_dropped + stats.tx_encode_errors,
            gw->stats().messages_constructed);
}

TEST(GatewayRuntime, StopBeforeRunUntilReturnsAtOnce) {
  // The race E22 used to lose: stop() lands before the runtime thread
  // enters its loop. The stop is sticky, so the loop never starts.
  auto gw = make_rt_gateway({});
  MonotonicClock clock;
  GatewayRuntime runtime{*gw, clock};
  RingPair side_a;
  runtime.attach(0, side_a.endpoint);
  runtime.stop();
  std::thread loop{[&runtime] { runtime.run_until(Instant::max()); }};
  loop.join();
  EXPECT_TRUE(runtime.stop_requested());
  EXPECT_EQ(runtime.stats().batches, 0u);
}

TEST(GatewayRuntime, RunUntilReturnsAtItsDeadline) {
  auto gw = make_rt_gateway({});
  MonotonicClock clock;
  GatewayRuntime runtime{*gw, clock};
  RingPair side_a;
  runtime.attach(0, side_a.endpoint);
  const Instant deadline = clock.now() + Duration::milliseconds(20);
  runtime.run_until(deadline);
  const Instant returned = clock.now();
  EXPECT_GE(returned, deadline);
  EXPECT_LT(returned, deadline + Duration::seconds(1)) << "loop overran its deadline";
  EXPECT_GE(runtime.stats().dispatches, 10u) << "the dispatch grid ran while idle";
  EXPECT_FALSE(runtime.stop_requested());
}

TEST(GatewayRuntime, RunUntilStreamsBatchSpansIntoHostWindows) {
  auto gw = make_rt_gateway({});
  MonotonicClock clock;
  GatewayRuntime runtime{*gw, clock};
  RingPair side_a, side_b;
  runtime.attach(0, side_a.endpoint);
  runtime.attach(1, side_b.endpoint);
  obs::MetricsRegistry metrics;
  runtime.bind_observability(metrics);
  std::ostringstream stream;
  obs::OstreamTelemetrySink sink{stream};
  obs::TelemetryConfig config;
  config.window = Duration::milliseconds(10);
  config.timeline = obs::TelemetryTimeline::kHost;
  obs::WindowAggregator aggregator{&metrics, nullptr, config};
  aggregator.set_sink(&sink);
  aggregator.begin_stream("rt");
  runtime.set_telemetry(&aggregator);
  runtime.start();

  // Steady traffic: a few frames per 10 ms host window, each slice
  // served by the loop up to the next window, as decogw runs it.
  const spec::MessageSpec& msg_a = *gw->link_a().spec().message("msgA");
  Instant next = clock.now();
  for (int slice = 0; slice < 8; ++slice) {
    for (int i = 0; i < 4; ++i)
      ASSERT_TRUE(side_a.ingress.try_push(encode_frame(msg_a, slice * 4 + i, clock.now())));
    next = next + Duration::milliseconds(10);
    runtime.run_until(next);
    drain(side_b.egress);
  }
  aggregator.flush();
  EXPECT_EQ(runtime.stats().rx_frames, 32u);

  std::istringstream in{stream.str()};
  const auto streams = obs::load_telemetry(in);
  ASSERT_TRUE(streams.ok()) << streams.error().to_string();
  ASSERT_EQ(streams.value().size(), 1u);
  std::size_t served_windows = 0;
  for (const obs::TelemetryWindow& window : streams.value()[0].windows) {
    bool batch_flow = false, service_samples = false;
    for (const obs::TelemetryFlow& flow : window.flows)
      batch_flow |= flow.flow.find("rt.batch") != std::string::npos && flow.traces > 0;
    for (const obs::TelemetryMetric& metric : window.metrics)
      service_samples |= metric.name == "rt.rtgw.service_ns" && metric.n > 0;
    if (batch_flow && service_samples) ++served_windows;
  }
  EXPECT_GE(served_windows, 3u) << stream.str();
}

}  // namespace
}  // namespace decos::rt
