#include "obs/telemetry.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <istream>
#include <ostream>

#include "obs/analysis.hpp"
#include "obs/json.hpp"

namespace decos::obs {

namespace {

// Allocation-free append helpers: serialization reuses one std::string
// per aggregator, so the steady state never touches the heap.

void append_uint(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

void append_int(std::string& out, std::int64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(static_cast<unsigned char>(c) >> 4) & 0xF];
          out += kHex[static_cast<unsigned char>(c) & 0xF];
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

std::int64_t host_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void OstreamTelemetrySink::write_line(std::string_view line) {
  out_->write(line.data(), static_cast<std::streamsize>(line.size()));
  out_->put('\n');
}

// ---------------------------------------------------------------------
// WindowAggregator

WindowAggregator::WindowAggregator(MetricsRegistry* metrics, const TraceCollector* collector,
                                   TelemetryConfig config)
    : metrics_{metrics},
      collector_{collector},
      config_{config},
      window_ns_{config.window.ns() > 0 ? config.window.ns() : 1} {
  table_.resize(config_.max_open_traces == 0 ? 1 : config_.max_open_traces);
  flush_order_.reserve(table_.size());
  flows_.reserve(64);
  line_.reserve(8192);
  host_line_.reserve(2048);
  if (collector_ != nullptr) prev_spans_dropped_ = collector_->dropped();
  if (config_.timeline == TelemetryTimeline::kHost) host_epoch_ns_ = host_now_ns();
}

WindowAggregator::~WindowAggregator() {
  if (!flushed_ && sink_ != nullptr) flush();
}

void WindowAggregator::begin_stream(std::string_view label) {
  started_ = true;
  if (sink_ == nullptr) return;
  line_.clear();
  line_ += "{\"type\":\"tmeta\",\"format\":\"decos-telemetry\",\"version\":1,\"label\":";
  append_escaped(line_, label);
  line_ += ",\"window_ns\":";
  append_int(line_, window_ns_);
  line_ += config_.timeline == TelemetryTimeline::kSim ? ",\"timeline\":\"sim\"}"
                                                       : ",\"timeline\":\"host\"}";
  sink_->write_line(line_);
}

WindowAggregator::SloEntry& WindowAggregator::upsert_slo(std::string_view key) {
  for (SloEntry& e : slo_)
    if (e.key == key) return e;
  SloEntry entry;
  entry.key = std::string{key};
  entry.root = entry.key.substr(0, entry.key.find("->"));
  slo_.push_back(std::move(entry));
  return slo_.back();
}

void WindowAggregator::set_deadline(std::string_view flow_key, Duration d_acc) {
  SloEntry& e = upsert_slo(flow_key);
  const std::int64_t ns = d_acc.ns();
  // Several consumers of the same flow: the tightest deadline governs.
  if (e.deadline_ns < 0 || ns < e.deadline_ns) e.deadline_ns = ns;
  for (FlowState& f : flows_) apply_slo(f);
}

void WindowAggregator::set_bound(std::string_view flow_key, std::int64_t bound_ns) {
  upsert_slo(flow_key).bound_ns = bound_ns;
  for (FlowState& f : flows_) apply_slo(f);
}

void WindowAggregator::apply_slo(FlowState& flow) {
  const std::string_view root{flow.key.data(), flow.key.find("->") == std::string::npos
                                                   ? flow.key.size()
                                                   : flow.key.find("->")};
  for (int pass = 0; pass < 2; ++pass) {
    const SloEntry* match = nullptr;
    bool unique = true;
    for (const SloEntry& e : slo_) {
      if (pass == 0 ? e.key != flow.key : e.root != root) continue;
      if (match == nullptr)
        match = &e;
      else
        unique = false;
    }
    if (match == nullptr) continue;
    if (pass == 1 && !unique) return;  // ambiguous root fallback: no SLO
    if (match->deadline_ns >= 0 &&
        (flow.deadline_ns < 0 || match->deadline_ns < flow.deadline_ns))
      flow.deadline_ns = match->deadline_ns;
    if (match->bound_ns >= 0 && flow.bound_ns < 0) flow.bound_ns = match->bound_ns;
    return;  // exact match wins outright; fallback only when none exists
  }
}

WindowAggregator::FlowState& WindowAggregator::flow_for(Symbol root, Symbol last) {
  const std::uint64_t key = (std::uint64_t{root.id()} << 32) | last.id();
  const auto it = flow_index_.find(key);
  if (it != flow_index_.end()) return flows_[it->second];
  FlowState flow;
  flow.key = flow_key(root, last);
  apply_slo(flow);
  flows_.push_back(std::move(flow));
  flow_index_.emplace(key, flows_.size() - 1);
  return flows_.back();
}

void WindowAggregator::PhaseWindow::add(std::int64_t v) {
  if (n == 0) {
    min = max = v;
  } else {
    if (v < min) min = v;
    if (v > max) max = v;
  }
  ++n;
  sum += v;
  // Insert into the sorted run-length list (binary search, then shift).
  std::uint32_t lo = 0;
  std::uint32_t hi = distinct;
  while (lo < hi) {
    const std::uint32_t mid = (lo + hi) / 2;
    if (value[mid] < v)
      lo = mid + 1;
    else
      hi = mid;
  }
  if (lo < distinct && value[lo] == v) {
    ++count[lo];
    return;
  }
  if (distinct == kWindowValueCap) {
    ++trunc;  // list full: the sample still widened min/max/sum above
    return;
  }
  for (std::uint32_t i = distinct; i > lo; --i) {
    value[i] = value[i - 1];
    count[i] = count[i - 1];
  }
  value[lo] = v;
  count[lo] = 1;
  ++distinct;
}

void WindowAggregator::on_span(const Span& s) {
  if (flushed_) return;  // stream already closed
  advance_to(config_.timeline == TelemetryTimeline::kSim
                 ? s.end
                 : Instant::from_ns(host_now_ns() - host_epoch_ns_));
  if (s.trace_id == 0) return;

  OpenTrace& slot = table_[s.trace_id % table_.size()];
  if (slot.trace_id != s.trace_id) {
    // Only a root span opens a trace; a non-root span without a slot is
    // the tail of a trace already finalized (or evicted) and is dropped.
    if (s.parent_id != 0) return;
    if (slot.trace_id != 0) {
      // Direct-mapped collision: finalize the previous occupant now.
      finalize(slot);
      ++evicted_total_;
      ++win_evicted_;
    }
    slot = OpenTrace{s.trace_id, TraceLandmarks{}};
    ++open_traces_;
  }
  if (slot.landmarks.fold(s)) finalize(slot);
}

void WindowAggregator::finalize(OpenTrace& t) {
  const TraceLandmarks::Samples samples = t.landmarks.samples();
  FlowState& flow = flow_for(samples.root, samples.terminal);
  flow.touched = true;
  ++flow.traces;
  ++flow.win_traces;
  for (std::size_t i = 0; i < kBreakdownPhaseCount; ++i)
    if (samples.ns[i]) flow.phase[i].add(*samples.ns[i]);

  // A value is temporally accurate while t < t_update + d_acc, so an
  // end-to-end latency equal to the deadline is already a miss.
  const std::int64_t total = samples.total_ns();
  if (flow.deadline_ns >= 0 && total >= flow.deadline_ns) {
    ++flow.deadline_miss;
    ++flow.win_deadline_miss;
  }
  if (flow.bound_ns >= 0 && total > flow.bound_ns) {
    ++flow.bound_miss;
    ++flow.win_bound_miss;
  }
  if (config_.timeline == TelemetryTimeline::kSim &&
      samples.end.ns() < current_window_ * window_ns_)
    ++win_late_, ++late_total_;

  t.trace_id = 0;
  --open_traces_;
}

void WindowAggregator::advance_to(Instant now) {
  if (now.ns() > watermark_.ns()) watermark_ = now;
  const std::int64_t target = watermark_.ns() < 0 ? 0 : watermark_.ns() / window_ns_;
  while (current_window_ < target) {
    close_window();
    ++current_window_;
  }
}

void WindowAggregator::close_window() {
  const std::int64_t start_ns = current_window_ * window_ns_;
  line_.clear();
  host_line_.clear();
  line_ += "{\"type\":\"window\",\"seq\":";
  append_int(line_, current_window_);
  if (config_.timeline == TelemetryTimeline::kHost) line_ += ",\"deterministic\":false";
  line_ += ",\"start_ns\":";
  append_int(line_, start_ns);
  line_ += ",\"end_ns\":";
  append_int(line_, start_ns + window_ns_);
  line_ += ",\"flows\":[";
  bool first = true;
  for (const FlowState& f : flows_) {
    if (!f.touched) continue;
    if (!first) line_ += ',';
    first = false;
    append_flow(f);
  }
  line_ += "],\"metrics\":[";
  fold_metrics();
  line_ += "],\"drops\":{\"spans\":";
  const std::uint64_t dropped = collector_ != nullptr ? collector_->dropped() : 0;
  append_uint(line_, dropped - prev_spans_dropped_);
  prev_spans_dropped_ = dropped;
  line_ += ",\"evicted\":";
  append_uint(line_, win_evicted_);
  line_ += ",\"late\":";
  append_uint(line_, win_late_);
  line_ += "},\"open\":";
  append_uint(line_, open_traces_);
  line_ += '}';

  if (sink_ != nullptr) {
    sink_->write_line(line_);
    if (!host_line_.empty()) {
      // Host-clock instruments ride on their own line so determinism
      // checks can filter them wholesale.
      line_.clear();
      line_ += "{\"type\":\"hostm\",\"seq\":";
      append_int(line_, current_window_);
      line_ += ",\"deterministic\":false,\"metrics\":[";
      line_ += host_line_;
      line_ += "]}";
      sink_->write_line(line_);
    }
  }
  ++windows_emitted_;

  for (FlowState& f : flows_) {
    if (!f.touched) continue;
    f.touched = false;
    f.win_traces = f.win_deadline_miss = f.win_bound_miss = 0;
    for (PhaseWindow& p : f.phase) p.reset();
  }
  win_evicted_ = 0;
  win_late_ = 0;
}

void WindowAggregator::append_flow(const FlowState& f) {
  line_ += "{\"flow\":";
  append_escaped(line_, f.key);
  line_ += ",\"n\":";
  append_uint(line_, f.win_traces);
  if (f.deadline_ns >= 0) {
    line_ += ",\"deadline_ns\":";
    append_int(line_, f.deadline_ns);
    line_ += ",\"deadline_miss\":";
    append_uint(line_, f.win_deadline_miss);
  }
  if (f.bound_ns >= 0) {
    line_ += ",\"bound_ns\":";
    append_int(line_, f.bound_ns);
    line_ += ",\"bound_miss\":";
    append_uint(line_, f.win_bound_miss);
  }
  line_ += ",\"phases\":{";
  bool first = true;
  for (std::size_t i = 0; i < kBreakdownPhaseCount; ++i) {
    const PhaseWindow& p = f.phase[i];
    if (p.n == 0) continue;
    if (!first) line_ += ',';
    first = false;
    append_escaped(line_, kBreakdownPhases[i]);
    line_ += ":{\"n\":";
    append_uint(line_, p.n);
    line_ += ",\"min_ns\":";
    append_int(line_, p.min);
    line_ += ",\"max_ns\":";
    append_int(line_, p.max);
    line_ += ",\"sum_ns\":";
    append_int(line_, p.sum);
    if (p.trunc != 0) {
      line_ += ",\"trunc\":";
      append_uint(line_, p.trunc);
    }
    line_ += ",\"values\":[";
    for (std::uint32_t j = 0; j < p.distinct; ++j) {
      if (j != 0) line_ += ',';
      line_ += '[';
      append_int(line_, p.value[j]);
      line_ += ',';
      append_uint(line_, p.count[j]);
      line_ += ']';
    }
    line_ += "]}";
  }
  line_ += "}}";
}

void WindowAggregator::fold_metrics() {
  if (metrics_ == nullptr) return;
  if (prev_.size() < metrics_->instrument_count()) prev_.resize(metrics_->instrument_count());
  std::size_t i = 0;
  bool first_det = true;
  bool first_host = true;
  metrics_->for_each([&](const MetricsRegistry::InstrumentRef& ref) {
    MetricPrev& prev = prev_[i++];
    const bool det = ref.determinism == Determinism::kDeterministic &&
                     config_.timeline == TelemetryTimeline::kSim;
    std::string& out = det ? line_ : host_line_;
    bool& first = det ? first_det : first_host;
    switch (ref.kind) {
      case InstrumentKind::kCounter: {
        const std::uint64_t v = ref.counter->value();
        if (v != prev.counter) {
          if (!first) out += ',';
          first = false;
          out += "{\"name\":";
          append_escaped(out, ref.name);
          out += ",\"kind\":\"counter\",\"delta\":";
          append_uint(out, v - prev.counter);
          out += '}';
          prev.counter = v;
        }
        break;
      }
      case InstrumentKind::kGauge: {
        const std::uint64_t u = ref.gauge->updates();
        if (u != prev.updates) {
          if (!first) out += ',';
          first = false;
          out += "{\"name\":";
          append_escaped(out, ref.name);
          out += ",\"kind\":\"gauge\",\"value\":";
          append_int(out, ref.gauge->value());
          out += ",\"high\":";
          append_int(out, ref.gauge->window_high_water());
          out += '}';
          prev.updates = u;
        }
        ref.gauge->begin_window();
        break;
      }
      case InstrumentKind::kHistogram: {
        const std::uint64_t c = ref.histogram->count();
        if (c != prev.hist_count) {
          std::uint64_t delta[Histogram::kBins];
          std::uint64_t bins[Histogram::kBins];
          ref.histogram->snapshot_bins(bins);
          for (int b = 0; b < Histogram::kBins; ++b) delta[b] = bins[b] - prev.bins[b];
          const std::uint64_t dn = c - prev.hist_count;
          if (!first) out += ',';
          first = false;
          out += "{\"name\":";
          append_escaped(out, ref.name);
          out += ",\"kind\":\"histogram\",\"n\":";
          append_uint(out, dn);
          out += ",\"sum\":";
          append_int(out, ref.histogram->sum() - prev.hist_sum);
          // Delta-bin percentiles, clamped into the cumulative
          // min/max envelope (per-window extremes are not tracked).
          out += ",\"p50\":";
          append_int(out, Histogram::percentile_of(delta, dn, ref.histogram->min(),
                                                   ref.histogram->max(), 0.50));
          out += ",\"p99\":";
          append_int(out, Histogram::percentile_of(delta, dn, ref.histogram->min(),
                                                   ref.histogram->max(), 0.99));
          if (ref.sample_period != 1) {
            out += ",\"sample_period\":";
            append_uint(out, ref.sample_period);
          }
          out += '}';
          for (int b = 0; b < Histogram::kBins; ++b) prev.bins[b] = bins[b];
          prev.hist_count = c;
          prev.hist_sum = ref.histogram->sum();
        }
        break;
      }
    }
  });
}

void WindowAggregator::flush() {
  if (flushed_) return;
  flushed_ = true;
  flush_order_.clear();
  for (std::size_t i = 0; i < table_.size(); ++i)
    if (table_[i].trace_id != 0) flush_order_.push_back(i);
  // Finalize in trace-id order (table order depends on capacity).
  std::sort(flush_order_.begin(), flush_order_.end(), [this](std::size_t a, std::size_t b) {
    return table_[a].trace_id < table_[b].trace_id;
  });
  for (const std::size_t idx : flush_order_) finalize(table_[idx]);
  close_window();
}

std::vector<WindowAggregator::FlowTotals> WindowAggregator::totals() const {
  std::vector<FlowTotals> out;
  out.reserve(flows_.size());
  for (const FlowState& f : flows_)
    out.push_back(
        FlowTotals{f.key, f.traces, f.deadline_ns, f.bound_ns, f.deadline_miss, f.bound_miss});
  std::sort(out.begin(), out.end(),
            [](const FlowTotals& a, const FlowTotals& b) { return a.flow < b.flow; });
  return out;
}

// ---------------------------------------------------------------------
// Stream reader

namespace {

InstrumentKind kind_from(const std::string& s) {
  if (s == "gauge") return InstrumentKind::kGauge;
  if (s == "histogram") return InstrumentKind::kHistogram;
  return InstrumentKind::kCounter;
}

TelemetryMetric read_metric(const json::Value& m, bool deterministic) {
  TelemetryMetric out;
  out.name = m.get_string("name");
  out.kind = kind_from(m.get_string("kind", "counter"));
  out.deterministic = deterministic;
  out.sample_period = static_cast<std::uint32_t>(m.get_int("sample_period", 1));
  out.delta = m.get_int("delta");
  out.value = m.get_int("value");
  out.high = m.get_int("high");
  out.n = static_cast<std::uint64_t>(m.get_int("n"));
  out.sum = m.get_int("sum");
  out.p50 = m.get_int("p50");
  out.p99 = m.get_int("p99");
  return out;
}

}  // namespace

Result<std::vector<TelemetryStream>> load_telemetry(std::istream& in) {
  std::vector<TelemetryStream> streams;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    auto parsed = json::parse(line);
    if (!parsed.ok())
      return Error{"telemetry line " + std::to_string(line_no) + ": " + parsed.error().message};
    const json::Value& v = parsed.value();
    const std::string type = v.get_string("type");
    if (type == "tmeta") {
      TelemetryStream s;
      s.label = v.get_string("label");
      s.window_ns = v.get_int("window_ns");
      streams.push_back(std::move(s));
      continue;
    }
    if (streams.empty()) {
      // Stream without a tmeta header (truncated tail pickup): start an
      // anonymous stream rather than failing.
      streams.push_back(TelemetryStream{});
    }
    TelemetryStream& stream = streams.back();
    if (type == "window") {
      TelemetryWindow w;
      w.seq = static_cast<std::uint64_t>(v.get_int("seq"));
      w.start_ns = v.get_int("start_ns");
      w.end_ns = v.get_int("end_ns");
      if (const json::Value* flows = v.find("flows"); flows != nullptr && flows->is_array()) {
        for (const json::Value& fv : flows->as_array()) {
          TelemetryFlow f;
          f.flow = fv.get_string("flow");
          f.traces = static_cast<std::uint64_t>(fv.get_int("n"));
          f.deadline_ns = fv.get_int("deadline_ns", -1);
          f.bound_ns = fv.get_int("bound_ns", -1);
          f.deadline_miss = static_cast<std::uint64_t>(fv.get_int("deadline_miss"));
          f.bound_miss = static_cast<std::uint64_t>(fv.get_int("bound_miss"));
          if (const json::Value* phases = fv.find("phases");
              phases != nullptr && phases->is_object()) {
            for (const auto& [name, pv] : phases->as_object()) {
              TelemetryPhase p;
              p.n = static_cast<std::uint64_t>(pv.get_int("n"));
              p.trunc = static_cast<std::uint64_t>(pv.get_int("trunc"));
              p.min_ns = pv.get_int("min_ns");
              p.max_ns = pv.get_int("max_ns");
              p.sum_ns = pv.get_int("sum_ns");
              if (const json::Value* vals = pv.find("values");
                  vals != nullptr && vals->is_array()) {
                for (const json::Value& pair : vals->as_array()) {
                  if (!pair.is_array() || pair.as_array().size() != 2) continue;
                  p.values.emplace_back(pair.as_array()[0].as_int(),
                                        static_cast<std::uint64_t>(pair.as_array()[1].as_int()));
                }
              }
              f.phases.emplace(name, std::move(p));
            }
          }
          w.flows.push_back(std::move(f));
        }
      }
      if (const json::Value* metrics = v.find("metrics");
          metrics != nullptr && metrics->is_array()) {
        const json::Value* d = v.find("deterministic");
        const bool det = d == nullptr || !d->is_bool() || d->as_bool();
        for (const json::Value& m : metrics->as_array()) w.metrics.push_back(read_metric(m, det));
      }
      if (const json::Value* drops = v.find("drops"); drops != nullptr) {
        w.spans_dropped = static_cast<std::uint64_t>(drops->get_int("spans"));
        w.evicted = static_cast<std::uint64_t>(drops->get_int("evicted"));
        w.late = static_cast<std::uint64_t>(drops->get_int("late"));
      }
      w.open = static_cast<std::uint64_t>(v.get_int("open"));
      stream.windows.push_back(std::move(w));
      continue;
    }
    if (type == "hostm") {
      const std::uint64_t seq = static_cast<std::uint64_t>(v.get_int("seq"));
      if (stream.windows.empty() || stream.windows.back().seq != seq) continue;
      if (const json::Value* metrics = v.find("metrics");
          metrics != nullptr && metrics->is_array()) {
        for (const json::Value& m : metrics->as_array())
          stream.windows.back().metrics.push_back(read_metric(m, false));
      }
      continue;
    }
    // Unknown line types are skipped so the format can grow.
  }
  return streams;
}

std::int64_t FlowHealth::PhaseAgg::percentile(double p) const {
  if (n == 0) return 0;
  if (p <= 0.0) return min_ns;
  if (p >= 1.0) return max_ns;
  std::uint64_t total = 0;
  for (const auto& [value, count] : values) {
    (void)value;
    total += count;
  }
  if (total == 0) return max_ns;
  const std::uint64_t rank = nearest_rank(p, total);
  std::uint64_t cumulative = 0;
  for (const auto& [value, count] : values) {
    cumulative += count;
    if (cumulative >= rank) return value;
  }
  return max_ns;
}

std::vector<FlowHealth> flow_health(const std::vector<TelemetryStream>& streams) {
  std::map<std::string, FlowHealth> by_key;
  for (const TelemetryStream& stream : streams) {
    for (const TelemetryWindow& w : stream.windows) {
      for (const TelemetryFlow& f : w.flows) {
        FlowHealth& h = by_key[f.flow];
        h.flow = f.flow;
        h.traces += f.traces;
        // Different cells may publish different SLOs for the same flow
        // (e.g. E6's d_acc sweep); the tightest consumer governs.
        if (f.deadline_ns >= 0 && (h.deadline_ns < 0 || f.deadline_ns < h.deadline_ns))
          h.deadline_ns = f.deadline_ns;
        if (f.bound_ns >= 0 && (h.bound_ns < 0 || f.bound_ns < h.bound_ns)) h.bound_ns = f.bound_ns;
        h.deadline_miss += f.deadline_miss;
        h.bound_miss += f.bound_miss;
        for (const auto& [phase, p] : f.phases) {
          FlowHealth::PhaseAgg& agg = h.phases[phase];
          if (agg.n == 0) {
            agg.min_ns = p.min_ns;
            agg.max_ns = p.max_ns;
          } else {
            if (p.min_ns < agg.min_ns) agg.min_ns = p.min_ns;
            if (p.max_ns > agg.max_ns) agg.max_ns = p.max_ns;
          }
          agg.n += p.n;
          agg.trunc += p.trunc;
          agg.sum_ns += p.sum_ns;
          for (const auto& [value, count] : p.values) agg.values[value] += count;
        }
      }
    }
  }
  std::vector<FlowHealth> out;
  out.reserve(by_key.size());
  for (auto& [key, h] : by_key) out.push_back(std::move(h));
  return out;
}

MetricsSnapshot accumulate_metrics(const std::vector<TelemetryStream>& streams) {
  struct Acc {
    MetricValue value;
    std::uint64_t largest_window = 0;
  };
  std::map<std::string, Acc> by_name;
  for (const TelemetryStream& stream : streams) {
    for (const TelemetryWindow& w : stream.windows) {
      for (const TelemetryMetric& m : w.metrics) {
        Acc& acc = by_name[m.name];
        MetricValue& v = acc.value;
        v.name = m.name;
        v.kind = m.kind;
        v.deterministic = m.deterministic;
        v.sample_period = m.sample_period;
        switch (m.kind) {
          case InstrumentKind::kCounter:
            v.value += m.delta;
            v.updates += static_cast<std::uint64_t>(m.delta);
            break;
          case InstrumentKind::kGauge:
            v.value = m.value;  // last wins
            if (m.high > v.high_water) v.high_water = m.high;
            ++v.updates;
            break;
          case InstrumentKind::kHistogram:
            v.count += m.n;
            v.sum += m.sum;
            v.updates += m.n;
            // Bin deltas are not recoverable from the stream; keep the
            // percentiles of the busiest window as representative.
            if (m.n >= acc.largest_window) {
              acc.largest_window = m.n;
              v.p50 = m.p50;
              v.p99 = m.p99;
            }
            break;
        }
      }
    }
  }
  MetricsSnapshot snap;
  snap.entries.reserve(by_name.size());
  for (auto& [name, acc] : by_name) snap.entries.push_back(std::move(acc.value));
  return snap;
}

Result<std::vector<std::pair<std::string, std::int64_t>>> load_flow_bounds(std::istream& in) {
  std::string text{std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
  auto parsed = json::parse(text);
  if (!parsed.ok()) return parsed.error();
  std::vector<std::pair<std::string, std::int64_t>> out;
  const json::Value* cluster = parsed.value().find("cluster");
  const json::Value* flows =
      cluster != nullptr ? cluster->find("flows") : parsed.value().find("flows");
  if (flows == nullptr || !flows->is_array())
    return Error{"bounds file: no cluster.flows array"};
  for (const json::Value& f : flows->as_array()) {
    const std::string key = f.get_string("key");
    if (key.empty()) continue;
    out.emplace_back(key, f.get_int("bound_ns"));
  }
  return out;
}

}  // namespace decos::obs
