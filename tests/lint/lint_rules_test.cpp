// Programmatic accept/reject coverage for every declint rule class
// (DL001-DL006, DL011); the XML fixture round-trips live in lint_xml_test.cpp.
#include "lint/lint.hpp"

#include <gtest/gtest.h>

#include "../helpers.hpp"
#include "core/virtual_gateway.hpp"
#include "rt/ring.hpp"
#include "ta/expr.hpp"

namespace decos::lint {
namespace {

using decos::testing::state_message;
using namespace decos::literals;

spec::PortSpec tt_input(const std::string& message, Duration period) {
  spec::PortSpec ps;
  ps.message = message;
  ps.direction = spec::DataDirection::kInput;
  ps.semantics = spec::InfoSemantics::kState;
  ps.period = period;
  ps.min_interarrival = Duration::nanoseconds(1);
  ps.max_interarrival = Duration::seconds(3600);
  return ps;
}

spec::PortSpec et_output(const std::string& message, Duration tmin = 10_ms) {
  spec::PortSpec ps;
  ps.message = message;
  ps.direction = spec::DataDirection::kOutput;
  ps.semantics = spec::InfoSemantics::kState;
  ps.paradigm = spec::ControlParadigm::kEventTriggered;
  ps.min_interarrival = tmin;
  return ps;
}

/// Producer link: TT input msgwheel carrying state element wheelspeed.
spec::LinkSpec producer_link() {
  spec::LinkSpec ls{"powertrain"};
  ls.add_message(state_message("msgwheel", "wheelspeed", 100));
  ls.add_port(tt_input("msgwheel", 10_ms));
  return ls;
}

/// Consumer link: ET output msgnav constituted by the same element.
spec::LinkSpec consumer_link() {
  spec::LinkSpec ls{"comfort"};
  ls.add_message(state_message("msgnav", "wheelspeed", 200));
  ls.add_port(et_output("msgnav"));
  return ls;
}

GatewayModel make_model(const spec::LinkSpec& a, const spec::LinkSpec& b) {
  GatewayModel model;
  model.name = "test-gateway";
  model.dispatch_period = 1_ms;
  model.default_d_acc = 30_ms;
  model.links = {&a, &b};
  return model;
}

ta::ExprPtr expr(const std::string& text) {
  auto parsed = ta::parse_expression(text);
  EXPECT_TRUE(parsed.ok()) << text;
  return parsed.value();
}

bool has_error(const Report& report, const std::string& rule) {
  for (const Diagnostic* d : report.by_rule(rule))
    if (d->severity == Severity::kError) return true;
  return false;
}

TEST(LintBaseline, WellFormedDeploymentIsClean) {
  const auto a = producer_link();
  const auto b = consumer_link();
  const Report report = lint_gateway(make_model(a, b));
  EXPECT_TRUE(report.clean()) << report.format();
}

// -- DL001: transfer-rule consistency ------------------------------------

spec::TransferRule derive_rule(const std::string& target, const std::string& source) {
  spec::TransferRule rule;
  rule.target = target;
  rule.source = source;
  spec::TransferFieldRule fr;
  fr.name = "value";
  fr.init = ta::Value{0};
  fr.semantics = "state";
  fr.update = expr("value + 1");
  rule.fields.push_back(std::move(fr));
  // state_message() elements also carry a 't' timestamp; a rule that
  // leaves it underived produces an element the gateway can never
  // encode (and declint flags it).
  spec::TransferFieldRule ft;
  ft.name = "t";
  ft.init = ta::Value{Instant{}};
  ft.semantics = "state";
  ft.update = expr("t_now");
  rule.fields.push_back(std::move(ft));
  return rule;
}

TEST(LintDl001, AcceptsRuleWithPortBackedSource) {
  auto a = producer_link();
  a.add_transfer_rule(derive_rule("derived", "wheelspeed"));
  spec::LinkSpec b{"comfort"};
  b.add_message(state_message("msgnav", "derived", 200));
  b.add_port(et_output("msgnav"));
  const Report report = lint_gateway(make_model(a, b));
  EXPECT_TRUE(report.clean()) << report.format();
}

TEST(LintDl001, RejectsDanglingSource) {
  auto a = producer_link();
  a.add_transfer_rule(derive_rule("derived", "nosuch"));
  spec::LinkSpec b{"comfort"};
  b.add_message(state_message("msgnav", "derived", 200));
  b.add_port(et_output("msgnav"));
  const Report report = lint_gateway(make_model(a, b));
  EXPECT_TRUE(has_error(report, kRuleTransfer)) << report.format();
}

TEST(LintDl001, RejectsDuplicateTargets) {
  auto a = producer_link();
  a.add_transfer_rule(derive_rule("derived", "wheelspeed"));
  a.add_transfer_rule(derive_rule("derived", "wheelspeed"));
  spec::LinkSpec b{"comfort"};
  b.add_message(state_message("msgnav", "derived", 200));
  b.add_port(et_output("msgnav"));
  const Report report = lint_gateway(make_model(a, b));
  EXPECT_TRUE(has_error(report, kRuleTransfer)) << report.format();
}

TEST(LintDl001, WarnsOnDeadDerivedElement) {
  auto a = producer_link();
  a.add_transfer_rule(derive_rule("derived", "wheelspeed"));
  const auto b = consumer_link();  // consumes wheelspeed, not 'derived'
  const Report report = lint_gateway(make_model(a, b));
  EXPECT_TRUE(report.clean()) << report.format();
  EXPECT_TRUE(report.has(kRuleTransfer));
}

// -- DL002: static expression typing --------------------------------------

TEST(LintDl002, AcceptsTypedFilter) {
  auto a = producer_link();
  a.set_parameter("lim", ta::Value{100});
  a.set_filter("msgwheel", expr("value >= -lim && value <= lim"));
  const auto b = consumer_link();
  const Report report = lint_gateway(make_model(a, b));
  EXPECT_TRUE(report.clean()) << report.format();
}

TEST(LintDl002, RejectsFilterOrderingStringField) {
  spec::LinkSpec a{"powertrain"};
  spec::MessageSpec ms{"msgwheel"};
  spec::ElementSpec key;
  key.name = "name";
  key.key = true;
  key.fields.push_back(spec::FieldSpec{"id", spec::FieldType::kInt16, 0, ta::Value{100}});
  ms.add_element(std::move(key));
  spec::ElementSpec payload;
  payload.name = "wheelspeed";
  payload.convertible = true;
  payload.fields.push_back(spec::FieldSpec{"value", spec::FieldType::kString, 8, std::nullopt});
  ms.add_element(std::move(payload));
  a.add_message(std::move(ms));
  a.add_port(tt_input("msgwheel", 10_ms));
  a.set_filter("msgwheel", expr("value >= 0"));
  const auto b = consumer_link();
  const Report report = lint_gateway(make_model(a, b));
  EXPECT_TRUE(has_error(report, kRuleTypes)) << report.format();
}

TEST(LintDl002, RejectsFilterWithUnknownIdentifier) {
  auto a = producer_link();
  a.set_filter("msgwheel", expr("value >= threshold"));  // no such parameter
  const auto b = consumer_link();
  const Report report = lint_gateway(make_model(a, b));
  EXPECT_TRUE(has_error(report, kRuleTypes)) << report.format();
}

TEST(LintDl002, WarnsOnRealUpdateIntoIntegerField) {
  auto a = producer_link();
  spec::TransferRule rule = derive_rule("derived", "wheelspeed");
  rule.fields[0].update = expr("value * 0.5");  // real into int32 'value' of msgnav
  a.add_transfer_rule(std::move(rule));
  spec::LinkSpec b{"comfort"};
  b.add_message(state_message("msgnav", "derived", 200));
  b.add_port(et_output("msgnav"));
  const Report report = lint_gateway(make_model(a, b));
  EXPECT_TRUE(report.clean()) << report.format();
  EXPECT_TRUE(report.has(kRuleTypes)) << report.format();
}

// -- DL003: TDMA schedule / bandwidth --------------------------------------

TEST(LintDl003, AcceptsPartitionedSchedule) {
  tt::TdmaSchedule schedule{10_ms};
  schedule.add_slot({0_ms, 1_ms, 1, 1, 64});
  schedule.add_slot({1_ms, 1_ms, 2, 2, 64});
  EXPECT_TRUE(lint_schedule(schedule).clean());
}

TEST(LintDl003, RejectsOverlappingSlots) {
  tt::TdmaSchedule schedule{10_ms};
  schedule.add_slot({0_ms, 2_ms, 1, 1, 64});
  schedule.add_slot({1_ms, 1_ms, 2, 2, 64});  // starts inside slot 0
  const Report report = lint_schedule(schedule);
  EXPECT_TRUE(has_error(report, kRuleSchedule)) << report.format();
}

TEST(LintDl003, RejectsSlotBeyondRound) {
  tt::TdmaSchedule schedule{10_ms};
  schedule.add_slot({9_ms, 2_ms, 1, 1, 64});  // 9 + 2 > 10
  const Report report = lint_schedule(schedule);
  EXPECT_TRUE(has_error(report, kRuleSchedule)) << report.format();
}

TEST(LintDl003, RejectsOverSubscribedVirtualNetwork) {
  const auto a = producer_link();  // 14 B wire / 10 ms period
  const auto b = consumer_link();
  tt::TdmaSchedule schedule{10_ms};
  schedule.add_slot({0_ms, 1_ms, 1, 1, 4});  // VN 1: 4 B/round < demand
  schedule.add_slot({1_ms, 1_ms, 2, 2, 64});
  GatewayModel model = make_model(a, b);
  model.schedule = &schedule;
  model.link_vn = {1, 2};
  const Report report = lint_gateway(model);
  EXPECT_TRUE(has_error(report, kRuleSchedule)) << report.format();
}

TEST(LintDl003, AcceptsAdequateBandwidth) {
  const auto a = producer_link();
  const auto b = consumer_link();
  tt::TdmaSchedule schedule{10_ms};
  schedule.add_slot({0_ms, 1_ms, 1, 1, 64});
  schedule.add_slot({1_ms, 1_ms, 2, 2, 64});
  GatewayModel model = make_model(a, b);
  model.schedule = &schedule;
  model.link_vn = {1, 2};
  const Report report = lint_gateway(model);
  EXPECT_TRUE(report.clean()) << report.format();
}

// -- DL004: automaton structure --------------------------------------------

ta::AutomatonSpec receive_automaton(ta::ExprPtr guard) {
  ta::AutomatonSpec automaton{"recv_msgwheel"};
  automaton.add_location("idle");
  automaton.add_clock("c");
  ta::Edge edge;
  edge.source = "idle";
  edge.target = "idle";
  edge.action = ta::ActionKind::kReceive;
  edge.message = "msgwheel";
  edge.guard = std::move(guard);
  auto reset = ta::parse_assignments("c=0");
  EXPECT_TRUE(reset.ok());
  edge.assignments = reset.value();
  automaton.add_edge(std::move(edge));
  return automaton;
}

TEST(LintDl004, AcceptsWellFormedAutomaton) {
  auto a = producer_link();
  a.add_automaton(receive_automaton(expr("c >= 1ms")));
  const auto b = consumer_link();
  const Report report = lint_gateway(make_model(a, b));
  EXPECT_TRUE(report.clean()) << report.format();
}

TEST(LintDl004, RejectsUndefinedGuardIdentifier) {
  auto a = producer_link();
  a.add_automaton(receive_automaton(expr("c >= tlimit")));  // undeclared
  const auto b = consumer_link();
  const Report report = lint_gateway(make_model(a, b));
  EXPECT_TRUE(has_error(report, kRuleAutomaton)) << report.format();
}

TEST(LintDl004, WarnsOnUnreachableLocation) {
  auto a = producer_link();
  auto automaton = receive_automaton(expr("c >= 1ms"));
  automaton.add_location("island");  // no incoming edge
  a.add_automaton(std::move(automaton));
  const auto b = consumer_link();
  const Report report = lint_gateway(make_model(a, b));
  EXPECT_TRUE(report.clean()) << report.format();
  EXPECT_TRUE(report.has(kRuleAutomaton)) << report.format();
}

TEST(LintDl004, WarnsOnEdgeWithoutPort) {
  auto a = producer_link();
  // The message exists (so the spec itself is valid) but no port ever
  // carries it -- the receive edge is statically dead.
  a.add_message(state_message("msgghost", "ghost", 300));
  auto automaton = receive_automaton(expr("c >= 1ms"));
  automaton.set_name("recv_ghost");
  ta::Edge ghost;
  ghost.source = "idle";
  ghost.target = "idle";
  ghost.action = ta::ActionKind::kReceive;
  ghost.message = "msgghost";  // link has no port for it
  automaton.add_edge(std::move(ghost));
  a.add_automaton(std::move(automaton));
  const auto b = consumer_link();
  const Report report = lint_gateway(make_model(a, b));
  EXPECT_TRUE(report.clean()) << report.format();
  EXPECT_TRUE(report.has(kRuleAutomaton)) << report.format();
}

// -- DL005: horizon feasibility --------------------------------------------

TEST(LintDl005, RejectsAccuracyBelowDispatchPeriod) {
  const auto a = producer_link();
  const auto b = consumer_link();
  GatewayModel model = make_model(a, b);
  model.element_overrides["wheelspeed"] =
      ElementMeta{spec::InfoSemantics::kState, 1_ms, 16};  // == dispatch
  const Report report = lint_gateway(model);
  EXPECT_TRUE(has_error(report, kRuleHorizon)) << report.format();
}

TEST(LintDl005, RejectsOutputNobodyProduces) {
  spec::LinkSpec a{"powertrain"};
  a.add_message(state_message("msgwheel", "wheelspeed", 100));
  a.add_port(tt_input("msgwheel", 10_ms));
  spec::LinkSpec b{"comfort"};
  b.add_message(state_message("msgnav", "unrelated", 200));
  b.add_port(et_output("msgnav"));
  const Report report = lint_gateway(make_model(a, b));
  EXPECT_TRUE(has_error(report, kRuleHorizon)) << report.format();
}

TEST(LintDl005, WarnsWhenAccuracyBelowProducerPeriod) {
  const auto a = producer_link();  // 10 ms input period
  const auto b = consumer_link();
  GatewayModel model = make_model(a, b);
  model.element_overrides["wheelspeed"] =
      ElementMeta{spec::InfoSemantics::kState, 5_ms, 16};  // 1 ms < 5 ms < 10 ms
  // Locally DL005 only warns; the *composed* flow bound (DL008) rejects
  // this deployment outright, which LintDl008 covers separately.
  const Report report = lint_gateway_local(model);
  EXPECT_TRUE(report.clean()) << report.format();
  EXPECT_TRUE(report.has(kRuleHorizon)) << report.format();
  EXPECT_TRUE(has_error(lint_gateway(model), kRuleLatency)) << report.format();
}

// -- DL006: port sanity ----------------------------------------------------

GatewayModel event_chain_model(const spec::LinkSpec& a, const spec::LinkSpec& b,
                               std::size_t queue) {
  GatewayModel model = make_model(a, b);
  model.element_overrides["wheelspeed"] =
      ElementMeta{spec::InfoSemantics::kEvent, 30_ms, queue};
  return model;
}

spec::LinkSpec event_producer() {
  spec::LinkSpec ls{"powertrain"};
  ls.add_message(state_message("msgwheel", "wheelspeed", 100));
  spec::PortSpec ps;
  ps.message = "msgwheel";
  ps.direction = spec::DataDirection::kInput;
  ps.semantics = spec::InfoSemantics::kEvent;
  ps.paradigm = spec::ControlParadigm::kEventTriggered;
  ps.min_interarrival = 1_ms;
  ps.max_interarrival = 100_ms;
  ps.queue_capacity = 16;
  ls.add_port(ps);
  return ls;
}

spec::LinkSpec tt_event_consumer(Duration period) {
  spec::LinkSpec ls{"comfort"};
  ls.add_message(state_message("msgnav", "wheelspeed", 200));
  spec::PortSpec ps;
  ps.message = "msgnav";
  ps.direction = spec::DataDirection::kOutput;
  ps.semantics = spec::InfoSemantics::kEvent;
  ps.period = period;
  ls.add_port(ps);
  return ls;
}

TEST(LintDl006, RejectsUndersizedEventQueue) {
  const auto a = event_producer();            // tmin 1 ms
  const auto b = tt_event_consumer(10_ms);    // E5 bound: 10 slots
  const Report report = lint_gateway(event_chain_model(a, b, 4));
  EXPECT_TRUE(has_error(report, kRulePorts)) << report.format();
}

TEST(LintDl006, AcceptsE5SizedEventQueue) {
  const auto a = event_producer();
  const auto b = tt_event_consumer(10_ms);
  const Report report = lint_gateway(event_chain_model(a, b, 16));
  EXPECT_TRUE(report.clean()) << report.format();
}

TEST(LintDl006, WarnsOnDriftingTtOutputPeriod) {
  const auto a = producer_link();
  spec::LinkSpec b{"comfort"};
  b.add_message(state_message("msgnav", "wheelspeed", 200));
  spec::PortSpec ps;
  ps.message = "msgnav";
  ps.direction = spec::DataDirection::kOutput;
  ps.semantics = spec::InfoSemantics::kState;
  ps.period = Duration::microseconds(1500);  // not a multiple of 1 ms dispatch
  b.add_port(ps);
  const Report report = lint_gateway(make_model(a, b));
  EXPECT_TRUE(report.clean()) << report.format();
  EXPECT_TRUE(report.has(kRulePorts)) << report.format();
}

TEST(LintDl006, WarnsOnUnboundedEventInput) {
  spec::LinkSpec a{"powertrain"};
  a.add_message(state_message("msgwheel", "wheelspeed", 100));
  spec::PortSpec ps;
  ps.message = "msgwheel";
  ps.direction = spec::DataDirection::kInput;
  ps.semantics = spec::InfoSemantics::kEvent;
  ps.paradigm = spec::ControlParadigm::kEventTriggered;
  ps.queue_capacity = 16;  // no tmin
  a.add_port(ps);
  const auto b = consumer_link();
  const Report report = lint_gateway(make_model(a, b));
  EXPECT_TRUE(report.has(kRulePorts)) << report.format();
}

// -- DL011: event-queue sizing vs live-runtime ring capacity ---------------

using rt::SpscRing;

/// event_producer() whose msgwheel is padded (a non-convertible string
/// element) to exactly `payload` wire bytes.
spec::LinkSpec padded_event_producer(std::size_t payload) {
  spec::LinkSpec ls = event_producer();
  spec::MessageSpec ms = *ls.message("msgwheel");
  spec::ElementSpec pad;
  pad.name = "pad";
  pad.fields.push_back(
      spec::FieldSpec{"bytes", spec::FieldType::kString, payload - ms.wire_size(), std::nullopt});
  ms.add_element(std::move(pad));
  spec::LinkSpec padded{"powertrain"};
  padded.add_message(std::move(ms));
  for (const auto& port : ls.ports()) padded.add_port(port);
  EXPECT_EQ(padded.message("msgwheel")->wire_size(), payload);
  return padded;
}

/// DL011 diagnostics saying the ring can never carry the message.
std::size_t never_carried(const Report& report) {
  std::size_t n = 0;
  for (const Diagnostic* d : report.by_rule(kRuleRingCapacity))
    if (d->message.find("can never carry") != std::string::npos) ++n;
  return n;
}

TEST(LintDl011, NotesWhenRingBuffersFewerFramesThanQueueDemands) {
  const auto a = event_producer();
  const auto b = tt_event_consumer(10_ms);
  const std::size_t frame = SpscRing::framed_size(a.message("msgwheel")->wire_size());
  const std::size_t ring = SpscRing::kMinCapacity;
  // The ring buffers ring/frame frames; provision twice that.
  GatewayModel model = event_chain_model(a, b, 2 * (ring / frame));
  model.transport_ring_bytes = ring;
  const Report report = lint_gateway(model);
  EXPECT_TRUE(report.has(kRuleRingCapacity)) << report.format();
  EXPECT_FALSE(has_error(report, kRuleRingCapacity)) << report.format();
  EXPECT_EQ(never_carried(report), 0u) << report.format();
}

TEST(LintDl011, AdequateRingStaysClean) {
  const auto a = event_producer();
  const auto b = tt_event_consumer(10_ms);
  GatewayModel model = event_chain_model(a, b, 16);
  model.transport_ring_bytes = SpscRing::framed_size(a.message("msgwheel")->wire_size()) * 64;
  const Report report = lint_gateway(model);
  EXPECT_FALSE(report.has(kRuleRingCapacity)) << report.format();
}

TEST(LintDl011, NotesFrameLargerThanRingQuarter) {
  // The ring rejects payloads above capacity/4: a 4096-byte ring cannot
  // carry a 1500-byte msgwheel at all.
  const auto a = padded_event_producer(1500);
  const auto b = tt_event_consumer(10_ms);
  GatewayModel model = event_chain_model(a, b, 16);
  model.transport_ring_bytes = SpscRing::kMinCapacity;
  const Report report = lint_gateway(model);
  EXPECT_TRUE(report.has(kRuleRingCapacity)) << report.format();
  EXPECT_EQ(never_carried(report), 1u) << report.format();
}

TEST(LintDl011, QuarterPayloadBoundaryMatchesTheRing) {
  const std::size_t capacity = SpscRing::kMinCapacity;
  const auto b = tt_event_consumer(10_ms);
  for (const std::size_t payload : {capacity / 4, capacity / 4 + 1}) {
    const auto a = padded_event_producer(payload);
    GatewayModel model = event_chain_model(a, b, 1);
    model.transport_ring_bytes = capacity;
    const Report report = lint_gateway(model);
    SpscRing ring{capacity};
    const bool accepted = ring.try_push(std::vector<std::byte>(payload, std::byte{0x5a}));
    EXPECT_EQ(accepted, payload <= capacity / 4) << payload;
    EXPECT_EQ(never_carried(report), accepted ? 0u : 1u) << payload << "\n" << report.format();
  }
}

TEST(LintDl011, LintsTheRoundedRingNotTheRawCapacity) {
  // --ring-capacity 5000 builds an 8192-byte ring: a 1500-byte payload
  // fits (the raw 5000/4 = 1250 would reject it), and it buffers five
  // framed 1504-byte frames (the raw 5000 only three), enough for a
  // queue of four.
  const std::size_t configured = 5000;
  SpscRing ring{configured};
  ASSERT_EQ(ring.capacity(), 8192u);
  ASSERT_TRUE(ring.try_push(std::vector<std::byte>(1500, std::byte{0x5a})));
  const auto a = padded_event_producer(1500);
  const auto b = tt_event_consumer(10_ms);
  GatewayModel model = event_chain_model(a, b, 4);
  model.transport_ring_bytes = configured;
  const Report report = lint_gateway(model);
  EXPECT_FALSE(report.has(kRuleRingCapacity)) << report.format();
}

TEST(LintDl011, SilentWithoutRuntimeContext) {
  const auto a = event_producer();
  const auto b = tt_event_consumer(10_ms);
  const Report report = lint_gateway(event_chain_model(a, b, 1024));  // no ring bytes
  EXPECT_FALSE(report.has(kRuleRingCapacity)) << report.format();
}

// -- Standalone link lint --------------------------------------------------

TEST(LintLink, CrossLinkSourceIsNoteNotError) {
  auto b = consumer_link();
  b.add_transfer_rule(derive_rule("derived2", "external"));  // other side supplies it
  const Report report = lint_link(b);
  EXPECT_TRUE(report.clean()) << report.format();
}

TEST(LintLink, RejectsSelfDerivingRule) {
  auto a = producer_link();
  a.add_transfer_rule(derive_rule("wheelspeed", "wheelspeed"));
  const Report report = lint_link(a);
  EXPECT_TRUE(has_error(report, kRuleTransfer)) << report.format();
}

// -- Virtual-network-level lint -------------------------------------------

TEST(LintVn, RejectsIncommensurablePeriod) {
  spec::VirtualNetworkSpec vn{"vn-test", spec::ControlParadigm::kTimeTriggered};
  vn.set_allocation(64, 10_ms);
  spec::LinkSpec link{"powertrain"};
  link.add_message(state_message("msgwheel", "wheelspeed", 100));
  link.add_port(tt_input("msgwheel", Duration::milliseconds(7)));  // vs 10 ms round
  vn.add_link(std::move(link));
  const Report report = lint_virtual_network(vn);
  EXPECT_TRUE(has_error(report, kRulePorts)) << report.format();
}

TEST(LintVn, AcceptsDivisiblePeriods) {
  spec::VirtualNetworkSpec vn{"vn-test", spec::ControlParadigm::kTimeTriggered};
  vn.set_allocation(64, 10_ms);
  spec::LinkSpec link{"powertrain"};
  link.add_message(state_message("msgwheel", "wheelspeed", 100));
  link.add_port(tt_input("msgwheel", 10_ms));
  vn.add_link(std::move(link));
  const Report report = lint_virtual_network(vn);
  EXPECT_TRUE(report.clean()) << report.format();
}

// -- Strict construction (GatewayConfig::strict_lint) ---------------------

TEST(LintStrict, FinalizeThrowsOnLintErrors) {
  core::GatewayConfig config;
  config.strict_lint = true;
  config.default_d_acc = 1_ms;  // == dispatch period: DL005 error
  core::VirtualGateway gateway{"strict-bad", producer_link(), consumer_link(), config};
  EXPECT_THROW(gateway.finalize(), SpecError);
}

TEST(LintStrict, FinalizeAcceptsCleanDeployment) {
  core::GatewayConfig config;
  config.strict_lint = true;
  config.default_d_acc = 30_ms;
  core::VirtualGateway gateway{"strict-ok", producer_link(), consumer_link(), config};
  EXPECT_NO_THROW(gateway.finalize());
  EXPECT_TRUE(gateway.finalized());
}

}  // namespace
}  // namespace decos::lint
