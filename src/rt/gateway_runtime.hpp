// The live gateway runtime (S30): host-time event loop feeding the
// compiled gateway path from real byte streams.
//
// GatewayRuntime owns no gateway logic. It drains each side's Endpoint
// in batches (one run-length ring claim / one recvmmsg burst), decodes
// every frame into a warmed per-message scratch instance
// (spec::decode_into) and deposits it into the gateway's input port --
// from there the push-notify closures installed by finalize() route the
// instance through the same batched dispatch, store-epoch caches and
// construct plans the simulated stack uses. Egress rides the
// GatewayLink emitter hook: construct_and_emit() hands the runtime the
// ConstructPlan's scratch instance, which is encoded straight into a
// warmed per-side transmit buffer and pushed to the endpoint -- the
// constructed message is never copied into a port.
//
// Backpressure is per-flow and follows the port's information
// semantics: state flows overwrite the oldest image in place (a stale
// state is replaced, never queued), event flows queue up to the port's
// capacity and drop the newest arrival beyond it, counting the drop.
// The standalone dispatch tick runs on an exact period grid anchored at
// start(), so replaying a byte schedule under a ManualClock reproduces
// the simulator's dispatch instants bit-for-bit (the equivalence
// property test pins this).
//
// Every frame outcome is counted once: an ingress frame in its flow's
// entry (deposited, dropped, decode error) or as unknown, an egress
// frame as sent, dropped or unencodable. stats() derives the totals
// from those tallies when read, and the rt.<gateway>.* counters are
// published from them once per poll_once.
//
// In steady state the loop performs no heap allocation: scratch
// instances, transmit buffers and burst storage are warmed once, and
// the metric/telemetry hooks are the allocation-free S27 instruments.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/virtual_gateway.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "rt/clock.hpp"
#include "rt/endpoint.hpp"
#include "util/time.hpp"

namespace decos::rt {

struct RuntimeConfig {
  /// Frames drained from one endpoint per loop iteration (the ring
  /// claim / recvmmsg burst size).
  std::size_t max_batch = 64;
  /// Sleep applied when a loop iteration moved no frames (0 = spin).
  Duration idle_sleep = Duration::microseconds(50);
};

/// Per-flow ingress accounting (one entry per input port).
struct FlowStats {
  std::string message;
  int side = 0;
  bool is_event = false;
  std::uint64_t frames = 0;        // decoded + deposited
  std::uint64_t drops = 0;         // event queue full (drop-newest)
  std::uint64_t decode_errors = 0;
};

struct RuntimeStats {
  std::uint64_t rx_frames = 0;        // every ingress frame, whatever its outcome
  std::uint64_t rx_unknown = 0;       // no message spec matched the payload key
  std::uint64_t rx_decode_errors = 0;
  std::uint64_t rx_dropped = 0;       // event-flow queue overflow
  std::uint64_t tx_frames = 0;
  std::uint64_t tx_dropped = 0;       // endpoint backpressure
  std::uint64_t tx_encode_errors = 0;
  std::uint64_t batches = 0;
  std::uint64_t dispatches = 0;
};

class GatewayRuntime {
 public:
  /// `gateway` must outlive the runtime and be finalized before start().
  GatewayRuntime(core::VirtualGateway& gateway, Clock& clock, RuntimeConfig config = {});

  /// Attach the transport for one side (0/1). A side without an
  /// endpoint neither receives nor emits (its constructed messages fall
  /// back to the output port).
  void attach(int side, Endpoint& endpoint);

  /// Register the rt.<gateway>.* instruments (queue depth, batch size,
  /// drop counters, service latency). Host-time determinism class. The
  /// counters are published from stats() at the end of every poll_once.
  void bind_observability(obs::MetricsRegistry& metrics);

  /// Stream per-batch service spans into an S27 window aggregator
  /// (TelemetryTimeline::kHost); metric deltas ride the same windows.
  void set_telemetry(obs::WindowAggregator* aggregator);

  /// Build the warmed ingress/egress tables and anchor the dispatch
  /// grid at clock.now(). Call once, after attach()/finalize().
  void start();
  bool started() const { return started_; }

  /// One loop iteration at instant `now`: drain every attached endpoint
  /// once (up to max_batch frames each), then run all dispatch ticks
  /// whose grid instant has passed. Returns frames processed. Exposed
  /// for tests and for single-threaded co-simulation.
  std::size_t poll_once(Instant now);

  /// The host loop: poll at clock.now(); after an iteration that moved
  /// frames, record its per-frame service time and batch span; after
  /// one that moved none, sleep config.idle_sleep. Returns once
  /// clock.now() >= `deadline` or stop() has been called. Callers that
  /// need periodic work between polls (decogw's stats line) call it
  /// again with the next deadline.
  void run_until(Instant deadline);
  /// Make run_until() return, now and in every later call. Sticky: a
  /// stop() that lands before run_until() starts is not lost. Callable
  /// from another thread or a signal handler (a relaxed store to a
  /// lock-free atomic).
  void stop() { stop_requested_.store(true, std::memory_order_relaxed); }
  bool stop_requested() const { return stop_requested_.load(std::memory_order_relaxed); }

  /// Totals derived from the per-flow tallies and the egress/loop
  /// tally: rx_frames = sum(frames + drops + decode_errors) + rx_unknown.
  RuntimeStats stats() const;
  /// Per-flow ingress accounting, all sides (stable order: side, port).
  std::vector<FlowStats> flow_stats() const;
  Instant next_dispatch() const { return next_dispatch_; }
  core::VirtualGateway& gateway() { return *gateway_; }

 private:
  struct IngressEntry {
    const spec::MessageSpec* spec = nullptr;
    vn::Port* port = nullptr;
    spec::MessageInstance scratch;
    bool is_event = false;
    std::uint64_t frames = 0;
    std::uint64_t drops = 0;
    std::uint64_t decode_errors = 0;
  };

  struct Side;

  /// FrameSink adapter routing endpoint frames into one side's table.
  struct SideSink final : FrameSink {
    GatewayRuntime* runtime = nullptr;
    int side = 0;
    void on_frame(std::span<const std::byte> payload) override {
      runtime->on_ingress_frame(side, payload);
    }
  };

  struct Side {
    Endpoint* endpoint = nullptr;
    std::vector<IngressEntry> ingress;
    std::size_t last_hit = 0;  // ingress index of the previous frame's match
    std::vector<std::byte> tx_buf;
    SideSink sink;
  };

  void on_ingress_frame(int side, std::span<const std::byte> payload);
  void note_batch(Instant start, Instant end, std::size_t frames);
  void publish_metrics();

  core::VirtualGateway* gateway_;
  Clock* clock_;
  RuntimeConfig config_;
  std::array<Side, 2> sides_;
  Instant now_;
  Instant next_dispatch_;
  bool started_ = false;
  std::atomic<bool> stop_requested_{false};
  static_assert(std::atomic<bool>::is_always_lock_free, "stop() must be signal-safe");
  // Outcomes not kept per flow. rx_frames, rx_decode_errors and
  // rx_dropped stay zero here: stats() derives them from the entries.
  RuntimeStats tally_;

  // Observability (optional; raw pointers into the registry's deque).
  obs::Counter* rx_frames_metric_ = nullptr;
  obs::Counter* rx_unknown_metric_ = nullptr;
  obs::Counter* rx_dropped_metric_ = nullptr;
  obs::Counter* tx_frames_metric_ = nullptr;
  obs::Counter* tx_dropped_metric_ = nullptr;
  obs::Gauge* backlog_metric_ = nullptr;
  obs::Histogram* batch_frames_metric_ = nullptr;
  obs::Histogram* service_ns_metric_ = nullptr;
  obs::WindowAggregator* telemetry_ = nullptr;
  Symbol track_sym_;
  Symbol batch_sym_;
  std::uint64_t next_trace_ = (1ull << 40);  // clear of gateway-collector ids
};

}  // namespace decos::rt
