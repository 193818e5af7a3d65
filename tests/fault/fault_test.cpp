#include <gtest/gtest.h>

#include "../helpers.hpp"
#include "fault/message_faults.hpp"
#include "fault/plan.hpp"

namespace decos::fault {
namespace {

using namespace decos::literals;

TEST(FaultPlanTest, CrashAndRecoverySchedule) {
  sim::Simulator sim;
  tt::TtBus bus{sim, tt::make_uniform_schedule(10_ms, 2, 1, 16)};
  tt::Controller node{sim, bus, 0, sim::DriftingClock{}};
  sim::TraceRecorder trace;
  FaultPlan plan{sim, &trace};

  plan.crash(node, Instant::origin() + 5_ms, 10_ms);
  sim.run_until(Instant::origin() + 4_ms);
  EXPECT_FALSE(node.crashed());
  sim.run_until(Instant::origin() + 6_ms);
  EXPECT_TRUE(node.crashed());
  sim.run_until(Instant::origin() + 20_ms);
  EXPECT_FALSE(node.crashed());
  EXPECT_EQ(plan.injected(), 2u);  // crash + recover
  EXPECT_EQ(trace.count(sim::TraceKind::kFaultInjected), 2u);
}

TEST(FaultPlanTest, PermanentCrashNeverRecovers) {
  sim::Simulator sim;
  tt::TtBus bus{sim, tt::make_uniform_schedule(10_ms, 2, 1, 16)};
  tt::Controller node{sim, bus, 0, sim::DriftingClock{}};
  FaultPlan plan{sim};
  plan.crash(node, Instant::origin() + 5_ms);
  sim.run_until(Instant::origin() + 10_s);
  EXPECT_TRUE(node.crashed());
}

TEST(FaultPlanTest, BabbleBurstHitsGuardian) {
  sim::Simulator sim;
  tt::TtBus bus{sim, tt::make_uniform_schedule(10_ms, 2, 1, 16)};
  tt::Controller good{sim, bus, 0, sim::DriftingClock{}};
  tt::Controller bad{sim, bus, 1, sim::DriftingClock{}};
  FaultPlan plan{sim};
  // Node 1 babbles into node 0's slot, off schedule.
  plan.babble(bad, Instant::origin() + 3_ms, 0, 0, 5, 100_us);
  good.start();
  bad.start();
  sim.run_until(Instant::origin() + 20_ms);
  EXPECT_EQ(bus.frames_blocked(), 5u);
  EXPECT_EQ(plan.injected(), 5u);
}

TEST(FaultPlanTest, OmissionActivation) {
  sim::Simulator sim;
  tt::TtBus bus{sim, tt::make_uniform_schedule(10_ms, 2, 1, 16)};
  tt::Controller node{sim, bus, 0, sim::DriftingClock{}};
  FaultPlan plan{sim};
  plan.omission(node, Instant::origin() + 100_ms, 1.0);
  node.start();
  sim.run_until(Instant::origin() + 500_ms);
  EXPECT_EQ(node.frames_sent(), 10u);  // only the first 100ms
}

TEST(TimingFaultProfileTest, NominalTrafficHasNoFaults) {
  TimingFaultProfile profile;
  profile.nominal_interarrival = 10_ms;
  Rng rng{1};
  for (int i = 0; i < 100; ++i) {
    bool is_fault = true;
    EXPECT_EQ(profile.next_gap(rng, is_fault), 10_ms);
    EXPECT_FALSE(is_fault);
  }
}

TEST(TimingFaultProfileTest, EarlyRateProducesEarlyGaps) {
  TimingFaultProfile profile;
  profile.nominal_interarrival = 10_ms;
  profile.early_rate = 0.3;
  profile.early_gap = 100_us;
  Rng rng{2};
  int faults = 0;
  for (int i = 0; i < 10000; ++i) {
    bool is_fault = false;
    const Duration gap = profile.next_gap(rng, is_fault);
    if (is_fault) {
      ++faults;
      EXPECT_EQ(gap, 100_us);
    }
  }
  EXPECT_NEAR(faults / 10000.0, 0.3, 0.02);
}

TEST(TimingFaultProfileTest, OmissionStretchesGaps) {
  TimingFaultProfile profile;
  profile.nominal_interarrival = 10_ms;
  profile.omission_rate = 1.0;  // every gap is an omission
  Rng rng{3};
  bool is_fault = false;
  const Duration gap = profile.next_gap(rng, is_fault);
  EXPECT_TRUE(is_fault);
  EXPECT_GE(gap, 20_ms);
}

TEST(TimingFaultProfileTest, JitterVariesGaps) {
  TimingFaultProfile profile;
  profile.nominal_interarrival = 10_ms;
  profile.jitter = 1_ms;
  Rng rng{4};
  bool is_fault = false;
  bool varied = false;
  const Duration first = profile.next_gap(rng, is_fault);
  for (int i = 0; i < 20; ++i)
    if (profile.next_gap(rng, is_fault) != first) varied = true;
  EXPECT_TRUE(varied);
}

TEST(CorruptValuesTest, CorruptsOnlyDynamicFields) {
  const spec::MessageSpec ms = decos::testing::sliding_roof_spec();
  spec::MessageInstance inst = spec::make_instance(ms);
  inst.element("movementevent")->fields[0] = ta::Value{5};
  Rng rng{5};
  const std::size_t n = corrupt_values(inst, ms, rng, 1.0);
  EXPECT_GE(n, 3u);  // valuechange, eventtime, trigger
  // The static key field survives: the message still identifies.
  EXPECT_EQ(inst.field("name", "id", ms).as_int(), 731);
  const auto bytes = spec::encode(ms, inst);
  if (bytes.ok()) {
    EXPECT_TRUE(spec::matches_key(ms, bytes.value()));
  }
}

TEST(CorruptValuesTest, ZeroRateChangesNothing) {
  const spec::MessageSpec ms = decos::testing::sliding_roof_spec();
  spec::MessageInstance inst = spec::make_instance(ms);
  Rng rng{6};
  EXPECT_EQ(corrupt_values(inst, ms, rng, 0.0), 0u);
}

}  // namespace
}  // namespace decos::fault
