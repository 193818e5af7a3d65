#include "vn/tt_vn.hpp"

#include <gtest/gtest.h>

#include "vn_fixture.hpp"

namespace decos::vn {
namespace {

using decos::testing::VnCluster;
using decos::testing::input_state_port;
using decos::testing::make_state_instance;
using decos::testing::output_state_port;
using decos::testing::state_message;
using namespace decos::literals;

struct TtVnFixture : ::testing::Test {
  TtVnFixture()
      : cluster{3, {VnAllocation{1, "powertrain", 32, {0, 1}}}},
        network{"powertrain-vn", 1} {
    network.register_message(state_message("msgwheel", "wheelspeed", 100));
  }

  VnCluster cluster;
  TtVirtualNetwork network;
};

TEST_F(TtVnFixture, SenderToReceiverDelivery) {
  auto& sender = cluster.node(0);
  auto& receiver = cluster.node(2);

  Port out{output_state_port("msgwheel", 10_ms)};
  Port in{input_state_port("msgwheel", 10_ms)};
  network.attach_sender(sender, out, cluster.vn_slots_of(1, 0));
  network.attach_receiver(receiver, in);

  out.deposit(make_state_instance(*network.message_spec("msgwheel"), 42, Instant::origin()),
              Instant::origin());
  cluster.start();
  cluster.sim.run_until(Instant::origin() + 25_ms);

  ASSERT_TRUE(in.has_data());
  const auto got = in.read();
  EXPECT_EQ(got->element("wheelspeed")->fields[0].as_int(), 42);
  EXPECT_GT(network.messages_delivered(), 0u);
  EXPECT_GT(network.bytes_delivered(), 0u);
}

TEST_F(TtVnFixture, FreshestValueWinsEachSlot) {
  auto& sender = cluster.node(0);
  auto& receiver = cluster.node(1);

  Port out{output_state_port("msgwheel", 10_ms)};
  Port in{input_state_port("msgwheel", 10_ms)};
  network.attach_sender(sender, out, cluster.vn_slots_of(1, 0));
  network.attach_receiver(receiver, in);

  const spec::MessageSpec& ms = *network.message_spec("msgwheel");
  // Two writes before the first slot: only the second is transmitted.
  out.deposit(make_state_instance(ms, 1, Instant::origin()), Instant::origin());
  std::vector<std::int64_t> seen;
  in.set_notify([&](Port&) { /* push port */ });
  cluster.sim.schedule_at(Instant::origin() + 1_ms, [&] {
    out.deposit(make_state_instance(ms, 2, cluster.sim.now()), cluster.sim.now());
  });
  cluster.start();
  cluster.sim.run_until(Instant::origin() + 55_ms);
  EXPECT_EQ(in.read()->element("wheelspeed")->fields[0].as_int(), 2);
}

TEST_F(TtVnFixture, NoDeliveryWithoutProducerData) {
  auto& receiver = cluster.node(2);
  Port in{input_state_port("msgwheel", 10_ms)};
  network.attach_receiver(receiver, in);
  // Sender attached but never writes: life-sign frames only.
  auto& sender = cluster.node(0);
  Port out{output_state_port("msgwheel", 10_ms)};
  network.attach_sender(sender, out, cluster.vn_slots_of(1, 0));
  cluster.start();
  cluster.sim.run_until(Instant::origin() + 50_ms);
  EXPECT_FALSE(in.has_data());
  EXPECT_EQ(network.messages_delivered(), 0u);
}

TEST_F(TtVnFixture, MultipleReceiversAllGetTheInstance) {
  Port out{output_state_port("msgwheel", 10_ms)};
  Port in1{input_state_port("msgwheel", 10_ms)};
  Port in2{input_state_port("msgwheel", 10_ms)};
  network.attach_sender(cluster.node(0), out, cluster.vn_slots_of(1, 0));
  network.attach_receiver(cluster.node(1), in1);
  network.attach_receiver(cluster.node(2), in2);
  out.deposit(make_state_instance(*network.message_spec("msgwheel"), 9, Instant::origin()),
              Instant::origin());
  cluster.start();
  cluster.sim.run_until(Instant::origin() + 25_ms);
  EXPECT_TRUE(in1.has_data());
  EXPECT_TRUE(in2.has_data());
}

TEST_F(TtVnFixture, SendTimeStampedFromFrame) {
  Port out{output_state_port("msgwheel", 10_ms)};
  Port in{input_state_port("msgwheel", 10_ms)};
  const auto slots = cluster.vn_slots_of(1, 0);
  network.attach_sender(cluster.node(0), out, slots);
  network.attach_receiver(cluster.node(1), in);
  out.deposit(make_state_instance(*network.message_spec("msgwheel"), 1, Instant::origin()),
              Instant::origin());
  cluster.start();
  cluster.sim.run_until(Instant::origin() + 25_ms);
  ASSERT_TRUE(in.has_data());
  // The receive-side instance carries the physical send instant; the
  // state port holds the freshest delivery, i.e. round 1's slot start.
  const Instant sent = in.read()->send_time();
  EXPECT_EQ(sent, cluster.bus->schedule().slot_start(1, slots[0]));
}

TEST_F(TtVnFixture, AttachSenderValidation) {
  Port out{output_state_port("msgwheel", 10_ms)};
  Port in{input_state_port("msgwheel", 10_ms)};
  // Unknown message.
  Port bad_out{output_state_port("ghost", 10_ms)};
  EXPECT_THROW(network.attach_sender(cluster.node(0), bad_out, {0}), SpecError);
  // Input port as sender.
  EXPECT_THROW(network.attach_sender(cluster.node(0), in, cluster.vn_slots_of(1, 0)), SpecError);
  // Slot not owned by the VN (core slot 0 belongs to VN 0).
  EXPECT_THROW(network.attach_sender(cluster.node(0), out, {0}), SpecError);
  // Output port as receiver.
  EXPECT_THROW(network.attach_receiver(cluster.node(0), out), SpecError);
}

TEST_F(TtVnFixture, SlotTooSmallRejected) {
  VnCluster tiny{2, {VnAllocation{1, "d", 4 /* bytes */, {0}}}};
  TtVirtualNetwork net{"v", 1};
  net.register_message(state_message("m", "e", 1));  // needs 14 bytes
  Port out{output_state_port("m", 10_ms)};
  EXPECT_THROW(net.attach_sender(tiny.node(0), out, tiny.vn_slots_of(1, 0)), SpecError);
}

TEST_F(TtVnFixture, MessageOfSlotMapping) {
  Port out{output_state_port("msgwheel", 10_ms)};
  const auto slots = cluster.vn_slots_of(1, 0);
  network.attach_sender(cluster.node(0), out, slots);
  ASSERT_NE(network.message_of_slot(slots[0]), nullptr);
  EXPECT_EQ(*network.message_of_slot(slots[0]), "msgwheel");
  EXPECT_EQ(network.message_of_slot(999), nullptr);
}

TEST_F(TtVnFixture, DuplicateMessageRegistrationRejected) {
  EXPECT_THROW(network.register_message(state_message("msgwheel", "x", 5)), SpecError);
}

}  // namespace
}  // namespace decos::vn
