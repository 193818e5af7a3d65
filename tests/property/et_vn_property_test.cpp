// Event-triggered VN arbitration properties under randomized traffic:
// per node, pending messages leave in strict (priority, FIFO) order;
// nothing is lost below the pending capacity; everything is delivered
// exactly once.
#include <gtest/gtest.h>

#include <map>

#include "../helpers.hpp"
#include "util/rng.hpp"
#include "vn/et_vn.hpp"
#include "../vn/vn_fixture.hpp"

namespace decos::vn {
namespace {

using decos::testing::VnCluster;
using decos::testing::input_event_port;
using decos::testing::state_message;
using namespace decos::literals;

class EtArbitration : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EtArbitration, PriorityOrderExactlyOnceNoLossBelowCapacity) {
  Rng rng{GetParam()};
  VnCluster cluster{2, {VnAllocation{1, "d", 32, {0, 0}}}};  // 2 slots/round for node 0
  EtVirtualNetwork vn{"v", 1, 512};

  constexpr int kMessageTypes = 4;
  for (int m = 0; m < kMessageTypes; ++m) {
    vn.register_message(state_message("msg" + std::to_string(m), "e" + std::to_string(m), m + 1));
    vn.set_priority("msg" + std::to_string(m), m);  // msg0 highest
  }
  vn.attach_node(cluster.node(0), cluster.vn_slots_of(1, 0));

  // Receiver records (priority, sequence-within-type) in delivery order.
  struct Delivery {
    int priority;
    std::int64_t seq;
  };
  std::vector<Delivery> deliveries;
  std::vector<Port> ports;
  ports.reserve(kMessageTypes);
  for (int m = 0; m < kMessageTypes; ++m) ports.emplace_back(input_event_port("msg" + std::to_string(m), 512));
  for (int m = 0; m < kMessageTypes; ++m) {
    vn.attach_receiver(cluster.node(1), ports[static_cast<std::size_t>(m)]);
    ports[static_cast<std::size_t>(m)].set_notify([&deliveries, m](Port& p) {
      if (auto inst = p.read()) {
        deliveries.push_back({m, inst->elements()[1].fields[0].as_int()});
      }
    });
  }

  // Random bursts, total well below the pending capacity per drain cycle.
  std::map<int, std::int64_t> sent_per_type;
  int total_sent = 0;
  for (int burst = 0; burst < 40; ++burst) {
    const Instant when = Instant::origin() + Duration::milliseconds(burst * 25);
    const int count = static_cast<int>(rng.uniform_int(1, 4));
    for (int k = 0; k < count; ++k) {
      const int type = static_cast<int>(rng.uniform_int(0, kMessageTypes - 1));
      const std::int64_t seq = sent_per_type[type]++;
      ++total_sent;
      cluster.sim.schedule_at(when, [&vn, &cluster, type, seq] {
        auto inst = decos::testing::make_state_instance(
            *vn.message_spec("msg" + std::to_string(type)), static_cast<int>(seq),
            cluster.sim.now());
        ASSERT_TRUE(vn.send(cluster.node(0), inst));
      });
    }
  }
  cluster.start();
  cluster.sim.run_until(Instant::origin() + 3_s);

  // Exactly once, nothing lost.
  EXPECT_EQ(static_cast<int>(deliveries.size()), total_sent);
  EXPECT_EQ(vn.overloads(), 0u);
  EXPECT_EQ(vn.pending(0), 0u);

  // FIFO within each type (per-type sequence numbers strictly increase).
  std::map<int, std::int64_t> last_seq;
  for (const Delivery& d : deliveries) {
    const auto it = last_seq.find(d.priority);
    if (it != last_seq.end()) {
      EXPECT_GT(d.seq, it->second);
    }
    last_seq[d.priority] = d.seq;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EtArbitration, ::testing::Values(8, 88, 888));

}  // namespace
}  // namespace decos::vn
