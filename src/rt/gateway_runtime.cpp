#include "rt/gateway_runtime.hpp"

#include <thread>

#include "spec/message.hpp"

namespace decos::rt {

GatewayRuntime::GatewayRuntime(core::VirtualGateway& gateway, Clock& clock, RuntimeConfig config)
    : gateway_{&gateway}, clock_{&clock}, config_{config} {
  for (int side = 0; side < 2; ++side) {
    sides_[side].sink.runtime = this;
    sides_[side].sink.side = side;
  }
}

void GatewayRuntime::attach(int side, Endpoint& endpoint) {
  if (started_) throw SpecError("rt runtime: attach() after start()");
  sides_[static_cast<std::size_t>(side)].endpoint = &endpoint;
}

void GatewayRuntime::bind_observability(obs::MetricsRegistry& metrics) {
  const std::string prefix = "rt." + gateway_->name() + ".";
  rx_frames_metric_ = &metrics.counter(prefix + "rx_frames");
  rx_unknown_metric_ = &metrics.counter(prefix + "rx_unknown");
  rx_dropped_metric_ = &metrics.counter(prefix + "rx_dropped");
  tx_frames_metric_ = &metrics.counter(prefix + "tx_frames");
  tx_dropped_metric_ = &metrics.counter(prefix + "tx_dropped");
  backlog_metric_ = &metrics.gauge(prefix + "backlog");
  batch_frames_metric_ =
      &metrics.histogram(prefix + "batch_frames", obs::Determinism::kHostTime);
  service_ns_metric_ = &metrics.histogram(prefix + "service_ns", obs::Determinism::kHostTime);
}

void GatewayRuntime::set_telemetry(obs::WindowAggregator* aggregator) {
  telemetry_ = aggregator;
}

void GatewayRuntime::start() {
  if (started_) return;
  if (!gateway_->finalized())
    throw SpecError("rt runtime: gateway '" + gateway_->name() + "' not finalized");
  track_sym_ = intern_symbol("rt:" + gateway_->name());
  batch_sym_ = intern_symbol("rt.batch");

  for (int side = 0; side < 2; ++side) {
    Side& s = sides_[static_cast<std::size_t>(side)];
    if (s.endpoint == nullptr) continue;
    core::GatewayLink& link = gateway_->link(side);

    // Ingress table: one warmed scratch instance per input port, in
    // port order (the binding order the batched dispatch drains in).
    for (const core::GatewayLink::InputBinding& binding : link.input_bindings()) {
      if (binding.port_spec->direction != spec::DataDirection::kInput) continue;
      const spec::MessageSpec* message = link.spec().message(binding.port_spec->message);
      if (message == nullptr) continue;  // finalize() would have rejected this
      IngressEntry entry;
      entry.spec = message;
      entry.port = binding.port;
      entry.scratch = spec::make_instance(*message);
      entry.is_event = binding.port_spec->semantics == spec::InfoSemantics::kEvent;
      s.ingress.push_back(std::move(entry));
    }

    // Egress: encode the ConstructPlan scratch instance straight into
    // the side's transmit buffer, hand it to the endpoint. The buffer
    // is reused (encode_into retains capacity), so the steady state
    // performs no allocation and no instance copy.
    for (const auto& port_ptr : link.ports()) {
      if (port_ptr->spec().direction != spec::DataDirection::kOutput) continue;
      const spec::MessageSpec* message = link.spec().message(port_ptr->spec().message);
      if (message == nullptr) continue;
      Side* side_state = &s;
      link.set_emitter(port_ptr->spec().message,
                       [this, side_state, message](const spec::MessageInstance& instance) {
                         if (!spec::encode_into(*message, instance, side_state->tx_buf).ok())
                           ++tally_.tx_encode_errors;
                         else if (side_state->endpoint->send(side_state->tx_buf))
                           ++tally_.tx_frames;
                         else
                           ++tally_.tx_dropped;
                       });
    }
  }

  now_ = clock_->now();
  next_dispatch_ = now_ + gateway_->config().dispatch_period;
  started_ = true;
}

void GatewayRuntime::on_ingress_frame(int side, std::span<const std::byte> payload) {
  Side& s = sides_[static_cast<std::size_t>(side)];

  // Identify the message: last-hit entry first (streams are bursty per
  // flow), then the side's full table.
  std::size_t index = s.last_hit;
  if (index >= s.ingress.size() || !spec::matches_key(*s.ingress[index].spec, payload)) {
    index = s.ingress.size();
    for (std::size_t i = 0; i < s.ingress.size(); ++i) {
      if (spec::matches_key(*s.ingress[i].spec, payload)) {
        index = i;
        break;
      }
    }
    if (index == s.ingress.size()) {
      ++tally_.rx_unknown;
      return;
    }
    s.last_hit = index;
  }

  IngressEntry& entry = s.ingress[index];
  if (!spec::decode_into(*entry.spec, payload, entry.scratch).ok()) {
    ++entry.decode_errors;
    return;
  }
  entry.scratch.set_send_time(now_);
  // Deposit applies the per-flow policy: state ports overwrite the
  // oldest image in place; event ports enqueue and report overflow
  // (drop-newest) when the bounded queue is full. Push ports process
  // synchronously through the notify closure -> batched drain.
  if (entry.port->deposit(entry.scratch, now_))
    ++entry.frames;
  else
    ++entry.drops;
}

std::size_t GatewayRuntime::poll_once(Instant now) {
  now_ = now;
  std::size_t processed = 0;
  for (Side& s : sides_) {
    if (s.endpoint == nullptr) continue;
    processed += s.endpoint->poll(s.sink, config_.max_batch);
  }
  if (processed > 0) {
    ++tally_.batches;
    if (batch_frames_metric_ != nullptr)
      batch_frames_metric_->observe(static_cast<std::int64_t>(processed));
  }
  // Dispatch on the exact period grid (catch-up if the loop fell
  // behind): pull-port drains, automaton timeout polls, TT outputs.
  while (next_dispatch_ <= now_) {
    gateway_->dispatch(next_dispatch_);
    ++tally_.dispatches;
    next_dispatch_ = next_dispatch_ + gateway_->config().dispatch_period;
  }
  if (rx_frames_metric_ != nullptr) publish_metrics();  // bind_observability() ran
  return processed;
}

void GatewayRuntime::publish_metrics() {
  const RuntimeStats totals = stats();
  rx_frames_metric_->publish(totals.rx_frames);
  rx_unknown_metric_->publish(totals.rx_unknown);
  rx_dropped_metric_->publish(totals.rx_dropped);
  tx_frames_metric_->publish(totals.tx_frames);
  tx_dropped_metric_->publish(totals.tx_dropped);
  std::int64_t backlog = 0;
  for (const Side& s : sides_)
    if (s.endpoint != nullptr) backlog += static_cast<std::int64_t>(s.endpoint->backlog());
  backlog_metric_->set(backlog);
}

void GatewayRuntime::note_batch(Instant start, Instant end, std::size_t frames) {
  if (service_ns_metric_ != nullptr && frames > 0)
    service_ns_metric_->observe((end - start).ns() / static_cast<std::int64_t>(frames));
  if (telemetry_ == nullptr) return;
  // One three-span trace per batch: root -> construct -> deliver. The
  // deliver finalizes the trace immediately (S27 trace landmarks), so
  // the aggregator folds batch service time into the current host-time
  // window with no open-trace residue.
  const std::uint64_t trace = next_trace_++;
  obs::Span span;
  span.trace_id = trace;
  span.span_id = trace;
  span.parent_id = 0;
  span.phase = obs::Phase::kSend;
  span.track = track_sym_;
  span.name = batch_sym_;
  span.start = start;
  span.end = start;
  telemetry_->on_span(span);
  span.parent_id = span.span_id;
  span.span_id = trace + (1ull << 32);
  span.phase = obs::Phase::kConstruct;
  span.end = end;
  telemetry_->on_span(span);
  span.parent_id = span.span_id;
  span.span_id = trace + (2ull << 32);
  span.phase = obs::Phase::kDeliver;
  span.start = end;
  span.value = static_cast<std::int64_t>(frames);
  telemetry_->on_span(span);
}

void GatewayRuntime::run() {
  if (!started_) start();
  running_.store(true, std::memory_order_relaxed);
  const bool sleep_when_idle = config_.idle_sleep > Duration::zero();
  while (running_.load(std::memory_order_relaxed)) {
    const Instant t0 = clock_->now();
    const std::size_t processed = poll_once(t0);
    if (processed > 0) {
      note_batch(t0, clock_->now(), processed);
    } else if (sleep_when_idle) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(config_.idle_sleep.ns()));
    }
  }
}

RuntimeStats GatewayRuntime::stats() const {
  RuntimeStats totals = tally_;
  for (const Side& s : sides_) {
    for (const IngressEntry& entry : s.ingress) {
      totals.rx_frames += entry.frames + entry.drops + entry.decode_errors;
      totals.rx_decode_errors += entry.decode_errors;
      totals.rx_dropped += entry.drops;
    }
  }
  totals.rx_frames += totals.rx_unknown;
  return totals;
}

std::vector<FlowStats> GatewayRuntime::flow_stats() const {
  std::vector<FlowStats> flows;
  for (int side = 0; side < 2; ++side) {
    const Side& s = sides_[static_cast<std::size_t>(side)];
    for (const IngressEntry& entry : s.ingress) {
      FlowStats f;
      f.message = entry.spec->name();
      f.side = side;
      f.is_event = entry.is_event;
      f.frames = entry.frames;
      f.drops = entry.drops;
      f.decode_errors = entry.decode_errors;
      flows.push_back(std::move(f));
    }
  }
  return flows;
}

}  // namespace decos::rt
