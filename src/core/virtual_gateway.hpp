// The virtual gateway: the paper's primary contribution (Sections III-IV).
//
// A (hidden) virtual gateway interconnects the virtual networks of two
// DASes. Per direction it (Fig. 4):
//   1. receives message instances at the input ports of one link,
//      guarded by that link's deterministic timed automata -- arrivals
//      violating the temporal specification drive the automaton into its
//      error state and the instance is discarded (error containment);
//   2. dissects admitted instances into convertible elements and stores
//      them in the gateway repository (selective redirection: elements
//      not flagged convertible are discarded here);
//   3. applies the transfer-semantics rules (event<->state conversion);
//   4. constructs outgoing messages from repository elements for the
//      other link -- the m! edge fires only when every constituting
//      element is available (state images temporally accurate, event
//      queues non-empty), otherwise the missing elements' request
//      variables are set;
//   5. resolves incoherent naming through per-link renaming tables.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/gateway_link.hpp"
#include "core/repository.hpp"
#include "core/transfer_plan.hpp"
#include "lint/diagnostic.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "tt/schedule.hpp"

namespace decos::core {

/// Tuning and ablation knobs (DESIGN.md section 5).
struct GatewayConfig {
  /// Standalone dispatch period (TT output evaluation + timeout polls).
  Duration dispatch_period = Duration::milliseconds(1);
  /// If positive, an automaton that entered its error state is restarted
  /// this long after the violation; if zero it stays in error (all
  /// further traffic of that message is blocked).
  Duration restart_delay = Duration::zero();
  /// Ablation (E1): when false, incoming instances bypass the timed
  /// automata entirely -- the gateway forwards without temporal checks.
  bool temporal_filtering = true;
  /// Ablation (E4, design decision 4): when true, the temporal-accuracy
  /// check also runs at store time instead of only at construction time.
  bool accuracy_check_at_store = false;
  /// Pull-mode input ports are only drained when one of their convertible
  /// elements has been requested via b_req (Section IV-A).
  bool pull_only_on_request = false;
  /// Defaults for convertible-element meta data; override per element
  /// via set_element_config().
  Duration default_d_acc = Duration::milliseconds(50);
  std::size_t default_queue_capacity = 16;
  /// Strict construction: finalize() runs the static deployment analyzer
  /// (declint, src/lint/) over the configured gateway and throws
  /// SpecError with the full report when any rule reports an error.
  bool strict_lint = false;
};

/// Forwarding statistics (inputs to E1/E2/E4/E10/E12).
struct GatewayStats {
  /// One-line human-readable summary (examples, operator diagnostics).
  std::string summary() const;

  std::uint64_t messages_in = 0;          // instances offered to the gateway
  std::uint64_t messages_admitted = 0;    // passed the temporal automata
  std::uint64_t blocked_temporal = 0;     // rejected by an automaton (incl. while in error)
  std::uint64_t blocked_value = 0;        // rejected by a value-domain filter
  std::uint64_t blocked_unknown = 0;      // message not in the link spec
  std::uint64_t elements_stored = 0;
  std::uint64_t element_overflows = 0;
  std::uint64_t conversions = 0;          // transfer-rule applications
  std::uint64_t messages_constructed = 0; // emitted towards the other VN
  std::uint64_t construction_held = 0;    // m! guard true but elements missing
  std::uint64_t construction_failed = 0;  // field mismatch between the two links
  std::uint64_t automaton_errors = 0;
  std::uint64_t restarts = 0;
};

class VirtualGateway {
 public:
  VirtualGateway(std::string name, spec::LinkSpec link_a, spec::LinkSpec link_b,
                 GatewayConfig config = {});

  const std::string& name() const { return name_; }
  GatewayLink& link(int side) { return side == 0 ? link_a_ : link_b_; }
  const GatewayLink& link(int side) const { return side == 0 ? link_a_ : link_b_; }
  GatewayLink& link_a() { return link_a_; }
  GatewayLink& link_b() { return link_b_; }
  const GatewayLink& link_a() const { return link_a_; }
  const GatewayLink& link_b() const { return link_b_; }
  Repository& repository() { return repository_; }
  const GatewayConfig& config() const { return config_; }
  GatewayStats& stats() { return stats_; }
  const GatewayStats& stats() const { return stats_; }
  sim::TraceRecorder& trace() { return trace_; }

  /// Hook the gateway into a system-wide observability host (normally the
  /// simulator's registry/collector; wired automatically by the wiring
  /// helpers and start()). Registers the gw.<name>.* instruments; further
  /// calls with the same registry are no-ops. The gateway stays fully
  /// functional unbound (standalone unit tests).
  void bind_observability(obs::MetricsRegistry& metrics, obs::TraceCollector& spans);

  /// Simulator form: binds the registry/collector as above and hooks
  /// the gateway's flow deadlines into the simulator's telemetry
  /// aggregator (immediately if telemetry is enabled, otherwise when
  /// the harness enables it).
  void bind_observability(sim::Simulator& sim);

  /// Register every gateway-crossing flow ("msgIn->msgOut", keyed like
  /// phase_breakdown) with the aggregator, carrying the tightest d_acc
  /// of the constructed message's required state elements as the flow's
  /// live deadline. Requires finalize(); plans are empty before it.
  void register_flows(obs::WindowAggregator& aggregator) const;

  /// Override repository meta data for one element (by repository name).
  /// Must be called before finalize().
  void set_element_config(const std::string& repo_element, spec::InfoSemantics semantics,
                          Duration d_acc, std::size_t queue_capacity = 16);
  const std::map<std::string, ElementDecl>& element_overrides() const {
    return element_overrides_;
  }

  /// Physical-network context for the static analyzer's bandwidth rules
  /// (DL003): the TDMA schedule of the core network and the VnId each
  /// link's virtual network rides on. Optional; set before finalize()
  /// so a strict gateway is checked against its schedule.
  void set_lint_context(tt::TdmaSchedule schedule,
                        std::array<std::optional<tt::VnId>, 2> link_vn);
  const std::optional<tt::TdmaSchedule>& lint_schedule() const { return lint_schedule_; }
  const std::array<std::optional<tt::VnId>, 2>& lint_vn() const { return lint_vn_; }

  /// Run the static deployment analyzer (declint) over this gateway's
  /// configuration. Usable before or after finalize(); strict mode calls
  /// it from finalize() and rejects deployments with errors.
  lint::Report lint() const;

  /// Build ports, repository declarations and interpreters from the two
  /// link specs. Call once, after renames/element configs, before use.
  void finalize();
  bool finalized() const { return finalized_; }

  // -- runtime entry points ----------------------------------------------
  /// Offer an incoming instance on `side`, resolving its dissect plan
  /// and receive automaton by message name. Port arrivals take the
  /// compiled bindings instead; this is the by-name entry for tests,
  /// benches and deposits of a message the port is not bound to.
  void on_input(int side, const spec::MessageInstance& instance, Instant now);

  /// Periodic service: drain pull inputs, poll automata (timeout
  /// detection), auto-restart, and attempt TT output constructions.
  void dispatch(Instant now);

  /// Schedule dispatch() every config.dispatch_period on `simulator`.
  void start(sim::Simulator& simulator);

  /// The remaining temporal-accuracy horizon of outgoing message
  /// `message_name` on `side` (Eq. (2)); exposed for guards/tests.
  Duration horizon(int side, const std::string& message_name, Instant now) const;

  /// Diagnosis hook: health of the traffic on `side` as judged by the
  /// temporal automata. kHealthy = all automata in non-error locations;
  /// kError = at least one automaton of the side sits in its error state
  /// (the producing DAS violated its temporal specification).
  enum class LinkHealth { kHealthy, kError };
  LinkHealth link_health(int side) const;
  /// Automaton names currently in their error state on `side`.
  std::vector<std::string> failed_automata(int side) const;

 private:
  class ConversionEnv;

  /// Repository names of the convertible elements constituting `message`
  /// as seen from `side`'s namespace (cold paths: lint, fallbacks).
  std::vector<std::string> required_elements(const GatewayLink& link,
                                             const spec::MessageSpec& message) const;

  /// finalize() stage 2: resolve every link-spec name (renames, elements,
  /// fields, rule targets) into compiled dissect/rule/construct plans.
  /// A name that does not resolve is a SpecError here, not at runtime.
  void compile_plans();

  /// finalize() stage 3: build the per-port input bindings and install
  /// the push-notify closures, which route every arrival through them.
  void bind_inputs();

  /// One arrival, whichever entry it came through: temporal automaton,
  /// value filter, dissect-and-store, then the event-triggered output
  /// pass on both links when the instance was admitted.
  void process_input(GatewayLink& link, DissectPlan& plan, ta::Interpreter* recv_interpreter,
                     const spec::MessageInstance& instance, Instant now);

  /// Port arrival: process `instance` through its precompiled binding;
  /// falls back to on_input() when the deposited instance is not the
  /// port's bound message (deposits are not type-checked).
  void drain_input(GatewayLink& link, const GatewayLink::InputBinding& binding,
                   const spec::MessageInstance& instance, Instant now);

  void dissect_and_store(GatewayLink& link, DissectPlan& plan,
                         const spec::MessageInstance& instance, Instant now);
  void apply_rule(RulePlan& plan, const ElementInstance& source, Instant now);
  bool can_construct(const ConstructPlan& plan, Instant now) const;
  bool can_construct(const GatewayLink& link, Symbol message, Instant now) const;
  void request_missing(GatewayLink& link, Symbol message, Instant now);
  void try_outputs(GatewayLink& link, Instant now, bool tt_outputs, bool et_outputs);
  bool construct_and_emit(GatewayLink& link, ConstructPlan& plan, Instant now);
  void note_error(GatewayLink& link, const std::string& message_name, Instant now);
  void maybe_restart(GatewayLink& link, Instant now);
  void start_tick(sim::Simulator& simulator);

  std::string name_;
  GatewayConfig config_;
  sim::PeriodicTask tick_task_;  // standalone dispatch tick (start())
  GatewayLink link_a_;
  GatewayLink link_b_;
  Repository repository_;
  GatewayStats stats_;
  sim::TraceRecorder trace_;
  std::map<std::string, ElementDecl> element_overrides_;
  // Compiled transfer-rule plans, owned here and bound by pointer into
  // the dissect items of every message carrying the rule's source
  // element (the source need not be a declared repository slot).
  std::unordered_map<Symbol, std::vector<std::unique_ptr<RulePlan>>, SymbolHash> rule_plans_;
  // Interned span-track label "gw:<name>" (hot-path span emission).
  Symbol track_sym_;
  // Current operation instant, visible to the interpreter hooks (the
  // gateway is single-threaded on the simulation loop).
  Instant now_;
  // Observability host (null until bind_observability); instruments are
  // raw pointers into the registry-owned deque, stable for its lifetime.
  obs::TraceCollector* spans_ = nullptr;
  obs::Histogram* dissect_ns_ = nullptr;       // gw.<name>.dissect_ns (host time)
  obs::Histogram* construct_ns_ = nullptr;     // gw.<name>.construct_ns (host time)
  obs::Histogram* staleness_ns_ = nullptr;     // gw.<name>.staleness_ns (sim time)
  obs::Counter* forwarded_metric_ = nullptr;   // gw.<name>.forwarded
  obs::Counter* suppressed_temporal_ = nullptr;
  obs::Counter* suppressed_value_ = nullptr;
  obs::Counter* suppressed_unknown_ = nullptr;
  obs::Counter* suppressed_construction_ = nullptr;
  // Optional physical-network context for lint() (see set_lint_context).
  std::optional<tt::TdmaSchedule> lint_schedule_;
  std::array<std::optional<tt::VnId>, 2> lint_vn_{};
  bool finalized_ = false;
};

}  // namespace decos::core
