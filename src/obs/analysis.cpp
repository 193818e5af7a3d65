#include "obs/analysis.hpp"

#include <algorithm>
#include <unordered_map>

namespace decos::obs {

namespace {

/// Sample slots of TraceLandmarks::Samples, in kBreakdownPhases order.
enum Slot : std::size_t { kIngress, kDissectSlot, kRepoWaitSlot, kConstructSlot, kDelivery, kTotal };

}  // namespace

void LatencySet::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

std::int64_t LatencySet::min() const {
  if (samples_.empty()) return 0;
  ensure_sorted();
  return samples_.front();
}

std::int64_t LatencySet::max() const {
  if (samples_.empty()) return 0;
  ensure_sorted();
  return samples_.back();
}

double LatencySet::mean() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (const std::int64_t s : samples_) sum += static_cast<double>(s);
  return sum / static_cast<double>(samples_.size());
}

std::uint64_t nearest_rank(double p, std::uint64_t n) {
  if (p <= 0.0) return 1;
  if (p >= 1.0) return n;
  const auto rank = static_cast<std::uint64_t>(p * static_cast<double>(n) + 0.999999);
  return std::clamp<std::uint64_t>(rank, 1, n);
}

std::int64_t LatencySet::percentile(double p) const {
  if (samples_.empty()) return 0;
  ensure_sorted();
  return samples_[nearest_rank(p, samples_.size()) - 1];
}

std::string flow_key(Symbol root, Symbol terminal) {
  std::string key = symbol_name(root);
  if (terminal != root) {
    key += "->";
    key += symbol_name(terminal);
  }
  return key;
}

bool TraceLandmarks::fold(const Span& s) {
  if (!started_) {
    started_ = true;
    root_name_ = s.name;
    root_start_ = s.start;
  }
  marks_.last_end = s.end;
  marks_.last_name = s.name;
  switch (s.phase) {
    case Phase::kSend:
      break;
    case Phase::kBus:
      if (!marks_.has_bus) {
        marks_.has_bus = true;
        marks_.bus_end = s.end;
      }
      break;
    case Phase::kDissect:
      if (!marks_.has_dissect) {
        marks_.has_dissect = true;
        marks_.dissect_end = s.end;
      }
      break;
    case Phase::kRepoWait:
      if (!has_construct_ && (!marks_.has_repo || s.duration() > marks_.repo_longest)) {
        marks_.has_repo = true;
        marks_.repo_longest = s.duration();
        marks_.repo_end = s.end;
      }
      break;
    case Phase::kConstruct:
      if (!has_construct_) {
        has_construct_ = true;
        construct_end_ = s.end;
      }
      break;
    case Phase::kDeliver:
      if (has_construct_) {
        marks_.delivered = true;
        return true;
      }
      if (!has_pending_) {
        has_pending_ = true;
        pending_ = marks_;
        pending_.delivered = true;
      }
      break;
  }
  return false;
}

TraceLandmarks::Samples TraceLandmarks::samples() const {
  const Marks& m = has_construct_ || !has_pending_ ? marks_ : pending_;
  Samples out;
  out.root = root_name_;
  out.terminal = m.last_name;
  out.end = m.last_end;
  out.ns[kTotal] = (m.last_end - root_start_).ns();
  if (m.has_bus) out.ns[kIngress] = (m.bus_end - root_start_).ns();
  if (m.has_dissect && m.has_bus) out.ns[kDissectSlot] = (m.dissect_end - m.bus_end).ns();
  if (m.has_repo) out.ns[kRepoWaitSlot] = m.repo_longest.ns();
  if (has_construct_ && m.has_repo) out.ns[kConstructSlot] = (construct_end_ - m.repo_end).ns();
  if (m.delivered) {
    if (has_construct_)
      out.ns[kDelivery] = (m.last_end - construct_end_).ns();
    else if (m.has_bus)
      out.ns[kDelivery] = (m.last_end - m.bus_end).ns();
  }
  return out;
}

Breakdown phase_breakdown(const std::vector<Span>& spans) {
  // Bucket spans per trace, preserving emission (= causal) order.
  std::unordered_map<std::uint64_t, std::vector<const Span*>> traces;
  std::vector<std::uint64_t> order;  // deterministic traversal
  for (const Span& s : spans) {
    if (s.trace_id == 0) continue;
    auto [it, inserted] = traces.try_emplace(s.trace_id);
    if (inserted) order.push_back(s.trace_id);
    it->second.push_back(&s);
  }

  Breakdown breakdown;
  for (const std::uint64_t trace_id : order) {
    std::vector<const Span*>& chain = traces[trace_id];
    std::sort(chain.begin(), chain.end(),
              [](const Span* a, const Span* b) { return a->span_id < b->span_id; });
    TraceLandmarks landmarks;
    for (const Span* s : chain)
      if (landmarks.fold(*s)) break;
    const TraceLandmarks::Samples samples = landmarks.samples();
    FlowStats& flow = breakdown[flow_key(samples.root, samples.terminal)];
    ++flow.traces;
    for (std::size_t i = 0; i < kBreakdownPhaseCount; ++i)
      if (samples.ns[i])
        flow.phases[kBreakdownPhases[i]].add(Duration::nanoseconds(*samples.ns[i]));
  }
  return breakdown;
}

ContainmentSummary containment_summary(
    const std::vector<std::pair<std::string, TraceRecord>>& records) {
  ContainmentSummary summary;
  for (const auto& [source, r] : records) {
    switch (r.kind) {
      case TraceKind::kFaultInjected:
        ++summary.faults_injected;
        break;
      case TraceKind::kFrameBlocked:
        ++summary.frames_blocked;
        break;
      case TraceKind::kGatewayBlocked: {
        ++summary.gateway_blocked;
        // Reason = detail up to the first " (" qualifier.
        std::string reason = r.detail.substr(0, r.detail.find(" ("));
        if (reason.empty()) reason = "unspecified";
        ++summary.blocked_reasons[reason];
        break;
      }
      case TraceKind::kAutomatonError:
        ++summary.automaton_errors;
        break;
      case TraceKind::kGatewayForwarded:
        ++summary.gateway_forwarded;
        break;
      default:
        break;
    }
  }
  return summary;
}

json::Value breakdown_to_json(const Breakdown& breakdown) {
  json::Array flows;
  for (const auto& [key, flow] : breakdown) {
    json::Object o;
    o.emplace_back("flow", key);
    o.emplace_back("traces", flow.traces);
    json::Object phases;
    for (const char* phase : kBreakdownPhases) {
      const auto it = flow.phases.find(phase);
      if (it == flow.phases.end() || it->second.empty()) continue;
      const LatencySet& set = it->second;
      json::Object p;
      p.emplace_back("n", set.count());
      p.emplace_back("min_ns", set.min());
      p.emplace_back("p50_ns", set.percentile(0.50));
      p.emplace_back("p90_ns", set.percentile(0.90));
      p.emplace_back("p99_ns", set.percentile(0.99));
      p.emplace_back("max_ns", set.max());
      p.emplace_back("mean_ns", set.mean());
      phases.emplace_back(phase, std::move(p));
    }
    o.emplace_back("phases", std::move(phases));
    flows.push_back(json::Value{std::move(o)});
  }
  return json::Value{std::move(flows)};
}

json::Value containment_to_json(const ContainmentSummary& summary) {
  json::Object o;
  o.emplace_back("faults_injected", summary.faults_injected);
  o.emplace_back("frames_blocked", summary.frames_blocked);
  o.emplace_back("gateway_blocked", summary.gateway_blocked);
  o.emplace_back("automaton_errors", summary.automaton_errors);
  o.emplace_back("gateway_forwarded", summary.gateway_forwarded);
  json::Object reasons;
  for (const auto& [reason, n] : summary.blocked_reasons) reasons.emplace_back(reason, n);
  o.emplace_back("blocked_reasons", std::move(reasons));
  return json::Value{std::move(o)};
}

std::vector<std::string> check_span_integrity(const std::vector<Span>& spans) {
  std::vector<std::string> violations;
  std::unordered_map<std::uint64_t, const Span*> by_id;
  for (const Span& s : spans) by_id[s.span_id] = &s;
  for (const Span& s : spans) {
    if (s.end < s.start)
      violations.push_back("span " + std::to_string(s.span_id) + " ends before it starts");
    if (s.parent_id == 0) continue;
    const auto it = by_id.find(s.parent_id);
    if (it == by_id.end()) {
      violations.push_back("span " + std::to_string(s.span_id) + " references missing parent " +
                           std::to_string(s.parent_id));
      continue;
    }
    const Span* parent = it->second;
    if (parent->trace_id != s.trace_id)
      violations.push_back("span " + std::to_string(s.span_id) + " (trace " +
                           std::to_string(s.trace_id) + ") has parent in trace " +
                           std::to_string(parent->trace_id));
    if (parent->start > s.end)
      violations.push_back("span " + std::to_string(s.span_id) +
                           " ends before its parent starts");
  }
  return violations;
}

}  // namespace decos::obs
