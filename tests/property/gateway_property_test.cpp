// End-to-end gateway conservation properties under randomized traffic:
//  * event elements cross the gateway exactly once, in order, and are
//    never invented (conservation: in == out + queued + dropped);
//  * state elements: every forwarded value was actually produced, and
//    values never go backwards (the repository is overwrite-in-place);
//  * determinism: the same seed yields bit-identical forwarding.
#include <gtest/gtest.h>

#include "../helpers.hpp"
#include "core/virtual_gateway.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace decos::core {
namespace {

using decos::testing::make_state_instance;
using decos::testing::state_message;
using namespace decos::literals;

std::unique_ptr<VirtualGateway> make_event_gateway(std::size_t queue_capacity) {
  spec::LinkSpec link_a{"dasA"};
  link_a.add_message(state_message("msgA", "burst", 1));
  spec::PortSpec in;
  in.message = "msgA";
  in.direction = spec::DataDirection::kInput;
  in.semantics = spec::InfoSemantics::kEvent;
  in.paradigm = spec::ControlParadigm::kEventTriggered;
  in.queue_capacity = 64;
  link_a.add_port(in);

  spec::LinkSpec link_b{"dasB"};
  link_b.add_message(state_message("msgB", "burst", 2));
  spec::PortSpec out;
  out.message = "msgB";
  out.direction = spec::DataDirection::kOutput;
  out.semantics = spec::InfoSemantics::kEvent;
  out.paradigm = spec::ControlParadigm::kTimeTriggered;
  out.period = 5_ms;
  out.queue_capacity = 64;
  link_b.add_port(out);

  GatewayConfig config;
  config.default_queue_capacity = queue_capacity;
  auto gw =
      std::make_unique<VirtualGateway>("prop", std::move(link_a), std::move(link_b), config);
  gw->finalize();
  return gw;
}

struct EventRunResult {
  std::vector<std::int64_t> forwarded;
  std::uint64_t sent = 0;
  std::uint64_t dropped = 0;
  std::uint64_t queued_at_end = 0;
};

EventRunResult run_event_traffic(std::uint64_t seed, std::size_t queue_capacity) {
  auto gw = make_event_gateway(queue_capacity);
  EventRunResult result;
  gw->link_b().set_emitter("msgB", [&](const spec::MessageInstance& inst) {
    result.forwarded.push_back(inst.elements()[1].fields[0].as_int());
  });

  Rng rng{seed};
  sim::Simulator sim;
  const spec::MessageSpec& ms = *gw->link_a().spec().message("msgA");
  Instant t = Instant::origin();
  std::int64_t sequence = 0;
  for (int i = 0; i < 1000; ++i) {
    t += rng.exponential_duration(4_ms);
    const std::int64_t value = sequence++;
    sim.schedule_at(t, [&gw, &ms, &sim, value] {
      gw->on_input(0, make_state_instance(ms, static_cast<int>(value), sim.now()), sim.now());
    });
  }
  for (Instant tick = Instant::origin(); tick <= t + 5_ms; tick += 1_ms) {
    sim.schedule_at(tick, [&gw, &sim] { gw->dispatch(sim.now()); });
  }
  sim.run_until(t + 10_ms);

  result.sent = static_cast<std::uint64_t>(sequence);
  result.dropped = gw->stats().element_overflows;
  result.queued_at_end = gw->repository().queue_depth("burst");
  return result;
}

class GatewayConservation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GatewayConservation, EventElementsExactlyOnceInOrder) {
  for (const std::size_t capacity : {4u, 16u, 64u}) {
    const EventRunResult r = run_event_traffic(GetParam(), capacity);
    // Conservation: every sent instance is forwarded, still queued, or
    // accounted as an overflow drop.
    EXPECT_EQ(r.forwarded.size() + r.queued_at_end + r.dropped, r.sent)
        << "capacity " << capacity;
    // Order preserved, no duplicates, no invented values.
    for (std::size_t i = 1; i < r.forwarded.size(); ++i)
      EXPECT_LT(r.forwarded[i - 1], r.forwarded[i]);
    for (const std::int64_t v : r.forwarded) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, static_cast<std::int64_t>(r.sent));
    }
  }
}

TEST_P(GatewayConservation, DeterministicForSameSeed) {
  const EventRunResult a = run_event_traffic(GetParam(), 16);
  const EventRunResult b = run_event_traffic(GetParam(), 16);
  EXPECT_EQ(a.forwarded, b.forwarded);
  EXPECT_EQ(a.dropped, b.dropped);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GatewayConservation, ::testing::Values(3, 17, 29, 101));

class StateMonotonicity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StateMonotonicity, ForwardedStateValuesWereProducedAndFresh) {
  spec::LinkSpec link_a{"dasA"};
  link_a.add_message(state_message("msgA", "img", 1));
  spec::PortSpec in;
  in.message = "msgA";
  in.direction = spec::DataDirection::kInput;
  in.semantics = spec::InfoSemantics::kState;
  in.period = 10_ms;
  in.min_interarrival = 1_us;
  in.max_interarrival = Duration::seconds(3600);
  link_a.add_port(in);
  spec::LinkSpec link_b{"dasB"};
  link_b.add_message(state_message("msgB", "img", 2));
  spec::PortSpec out;
  out.message = "msgB";
  out.direction = spec::DataDirection::kOutput;
  out.semantics = spec::InfoSemantics::kState;
  out.paradigm = spec::ControlParadigm::kTimeTriggered;
  out.period = 7_ms;
  link_b.add_port(out);

  GatewayConfig config;
  config.default_d_acc = 25_ms;
  VirtualGateway gw{"prop", std::move(link_a), std::move(link_b), config};
  gw.finalize();

  std::vector<std::int64_t> forwarded;
  gw.link_b().set_emitter("msgB", [&](const spec::MessageInstance& inst) {
    forwarded.push_back(inst.elements()[1].fields[0].as_int());
  });

  Rng rng{GetParam()};
  const spec::MessageSpec& ms = *gw.link_a().spec().message("msgA");
  Instant t = Instant::origin();
  std::int64_t produced = 0;
  for (int step = 0; step < 3000; ++step) {
    t += Duration::milliseconds(1);
    if (rng.bernoulli(0.1)) gw.on_input(0, make_state_instance(ms, ++produced, t), t);
    gw.dispatch(t);
  }
  ASSERT_FALSE(forwarded.empty());
  for (std::size_t i = 0; i < forwarded.size(); ++i) {
    EXPECT_GE(forwarded[i], 1);
    EXPECT_LE(forwarded[i], produced);
    if (i > 0) {
      EXPECT_GE(forwarded[i], forwarded[i - 1]);  // monotone: freshest wins
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StateMonotonicity, ::testing::Values(5, 23, 71));

}  // namespace
}  // namespace decos::core
