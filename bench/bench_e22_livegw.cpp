// E22 -- live gateway saturation (DESIGN.md S30): the rt::GatewayRuntime
// event loop fed real byte frames over the SPSC ring transport, measured
// in host time. A paced generator thread-shares the box with the runtime:
// it pushes msgA frames (the send instant rides in the element's
// timestamp field) at a swept offered load, drains the msgB egress ring,
// and computes the end-to-end latency frame-by-frame from its own clock.
// The sweep spans ~64x in offered rate, so the ladder brackets the
// saturation knee: below it achieved == offered and latency is flat,
// above it the ingress ring rejects the excess (visible backpressure,
// never a stall) and achieved plateaus at the live gateway's capacity.
//
// check_bench_regression.py --suite e22 gates the committed BENCH_E22
// baseline on the per-point achieved throughput (loose ratio: host-time
// numbers cross machines) and on the lowest-load p99 latency.
#include <memory>
#include <thread>

#include "common.hpp"
#include "core/virtual_gateway.hpp"
#include "rt/clock.hpp"
#include "rt/endpoint.hpp"
#include "rt/gateway_runtime.hpp"
#include "util/statistics.hpp"

using namespace decos;
using namespace decos::bench;
using namespace decos::literals;

namespace {

/// The E6-shaped live gateway: msgA in on side A, msgB out on side B,
/// one convertible "image" element, event semantics end to end (one
/// egress frame per admitted ingress frame -- the load-bench flow).
std::unique_ptr<core::VirtualGateway> make_live_gateway() {
  spec::LinkSpec link_a{"dasA"};
  link_a.add_message(state_message("msgA", "image", 1));
  spec::PortSpec in =
      input_port("msgA", spec::InfoSemantics::kEvent, spec::ControlParadigm::kEventTriggered,
                 10_ms, Duration::zero(), Duration::seconds(3600), 256);
  in.interaction = spec::Interaction::kPush;
  link_a.add_port(in);

  spec::LinkSpec link_b{"dasB"};
  link_b.add_message(state_message("msgB", "image", 2));
  link_b.add_port(output_port("msgB", spec::InfoSemantics::kEvent,
                              spec::ControlParadigm::kEventTriggered, Duration::zero(), 256));

  core::GatewayConfig config;
  config.default_d_acc = Duration::seconds(3600);
  config.dispatch_period = 1_ms;
  config.default_queue_capacity = 256;
  auto gw = std::make_unique<core::VirtualGateway>("e22", std::move(link_a), std::move(link_b),
                                                   config);
  gw->set_element_config("image", spec::InfoSemantics::kEvent, Duration::seconds(3600), 256);
  gw->finalize();
  gw->trace().set_enabled(false);
  return gw;
}

struct Point {
  double offered_fps = 0.0;
  double achieved_fps = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t rejected = 0;  // ingress ring full (transport backpressure)
  std::uint64_t received = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
};

/// One offered-load point. The runtime thread keeps running across
/// points; everything measured here lives on the generator thread, so
/// no runtime state is read while the loop is hot.
Point run_point(rt::MonotonicClock& clock, rt::SpscRing& a_in, rt::SpscRing& b_out,
                const spec::MessageSpec& msg_a, const spec::MessageSpec& msg_b,
                double offered_fps, Duration duration) {
  Point point;
  point.offered_fps = offered_fps;

  SampleSet latency;
  std::vector<std::byte> frame;
  const auto drain = [&](std::size_t max_frames) {
    b_out.consume(max_frames, [&](std::span<const std::byte> payload) {
      const auto decoded = spec::decode(msg_b, payload);
      if (!decoded) return;
      const Instant sent_at = decoded.value().element("image")->fields[1].as_instant();
      latency.add(clock.now() - sent_at);
      ++point.received;
    });
  };

  const double ns_per_frame = 1e9 / offered_fps;
  const Instant start = clock.now();
  const Instant deadline = start + duration;
  Instant now = start;
  while (now < deadline) {
    const auto due =
        static_cast<std::uint64_t>(static_cast<double>((now - start).ns()) / ns_per_frame);
    std::size_t burst = 0;
    while (point.sent + point.rejected < due && burst < 64) {
      const spec::MessageInstance inst =
          state_instance(msg_a, static_cast<std::int64_t>(point.sent), now);
      (void)spec::encode_into(msg_a, inst, frame);
      if (a_in.try_push(frame))
        ++point.sent;
      else
        ++point.rejected;
      ++burst;
    }
    drain(256);
    if (burst == 0) std::this_thread::yield();  // hand the core to the runtime
    now = clock.now();
  }
  const Instant stop = clock.now();

  // Cool-down: let the runtime flush in-flight frames so "received"
  // counts everything the gateway actually carried at this load.
  const Instant flush_deadline = stop + 100_ms;
  while (clock.now() < flush_deadline) {
    drain(256);
    std::this_thread::yield();
  }

  const double seconds = static_cast<double>((stop - start).ns()) / 1e9;
  point.achieved_fps = seconds > 0.0 ? static_cast<double>(point.received) / seconds : 0.0;
  if (latency.count() > 0) {
    point.p50_us = latency.percentile(0.50) / 1e3;
    point.p99_us = latency.percentile(0.99) / 1e3;
    point.max_us = latency.max() / 1e3;
  }
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  Harness harness{argc, argv, "e22", {{"--quick"}}};
  bool quick = false;  // --quick: 0.25s per point (CI perf-smoke); full 2s
  for (int i = 1; i < argc; ++i)
    if (std::string{argv[i]} == "--quick") quick = true;
  const Duration per_point = quick ? Duration::milliseconds(250) : 2_s;

  title("E22 live gateway saturation over the ring transport",
        "below the knee the runtime carries the offered load at flat latency; "
        "above it the ingress ring sheds the excess and throughput plateaus");

  auto gw = make_live_gateway();
  rt::MonotonicClock clock;
  rt::GatewayRuntime runtime{*gw, clock};
  rt::SpscRing a_in{1 << 20}, a_out{1 << 20}, b_in{1 << 20}, b_out{1 << 20};
  rt::RingEndpoint side_a{a_in, a_out};
  rt::RingEndpoint side_b{b_in, b_out};
  runtime.attach(0, side_a);
  runtime.attach(1, side_b);
  runtime.start();

  const spec::MessageSpec& msg_a = *gw->link_a().spec().message("msgA");
  const spec::MessageSpec& msg_b = *gw->link_b().spec().message("msgB");

  std::thread runtime_thread{[&runtime] { runtime.run(); }};

  row("%-12s %12s %10s %10s %10s %9s %9s %9s", "offered/s", "achieved/s", "sent", "rejected",
      "recv", "p50[us]", "p99[us]", "max[us]");
  const std::vector<double> ladder{25'000.0, 100'000.0, 400'000.0, 1'600'000.0};
  std::vector<Point> points;
  points.reserve(ladder.size());
  for (const double offered : ladder) {
    char label[32];
    std::snprintf(label, sizeof label, "offered=%.0f", offered);
    if (!harness.matches(label)) continue;
    points.push_back(run_point(clock, a_in, b_out, msg_a, msg_b, offered, per_point));
    const Point& p = points.back();
    row("%-12.0f %12.0f %10llu %10llu %10llu %9.1f %9.1f %9.1f", p.offered_fps, p.achieved_fps,
        static_cast<unsigned long long>(p.sent), static_cast<unsigned long long>(p.rejected),
        static_cast<unsigned long long>(p.received), p.p50_us, p.p99_us, p.max_us);
  }

  runtime.stop();
  runtime_thread.join();

  row("");
  row("expected shape: achieved tracks offered until the compiled path");
  row("saturates the core; past the knee the ring rejects the excess at the");
  row("producer (drops are counted, the loop never blocks) and p99 grows with");
  row("the standing backlog. sent - recv stays ~0 after each point's flush.");

  const rt::RuntimeStats stats = runtime.stats();
  row("");
  row("runtime totals: rx=%llu tx=%llu dispatches=%llu rx_dropped=%llu tx_dropped=%llu",
      static_cast<unsigned long long>(stats.rx_frames),
      static_cast<unsigned long long>(stats.tx_frames),
      static_cast<unsigned long long>(stats.dispatches),
      static_cast<unsigned long long>(stats.rx_dropped),
      static_cast<unsigned long long>(stats.tx_dropped));

  // JSON: a human-readable point array plus offered-keyed dicts for the
  // e22 suite of check_bench_regression.py (mirrors the e19/e21 shape).
  obs::json::Array cells;
  obs::json::Object achieved;
  obs::json::Object p99;
  double peak = 0.0;
  for (const Point& p : points) {
    obs::json::Object cell;
    cell.emplace_back("offered_fps", p.offered_fps);
    cell.emplace_back("achieved_fps", p.achieved_fps);
    cell.emplace_back("sent", p.sent);
    cell.emplace_back("rejected", p.rejected);
    cell.emplace_back("received", p.received);
    cell.emplace_back("p50_us", p.p50_us);
    cell.emplace_back("p99_us", p.p99_us);
    cell.emplace_back("max_us", p.max_us);
    cells.push_back(obs::json::Value{std::move(cell)});
    char key[32];
    std::snprintf(key, sizeof key, "%.0f", p.offered_fps);
    achieved.emplace_back(key, p.achieved_fps);
    p99.emplace_back(key, p.p99_us);
    peak = std::max(peak, p.achieved_fps);
  }
  harness.set_json("points", obs::json::Value{std::move(cells)});
  harness.set_json("achieved_fps", obs::json::Value{std::move(achieved)});
  harness.set_json("p99_us", obs::json::Value{std::move(p99)});
  harness.set_json("peak_achieved_fps", obs::json::Value{peak});
  return 0;
}
