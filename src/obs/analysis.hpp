// Span/record analysis shared by bench binaries (in-process) and the
// decotrace CLI (offline, from a JSONL dump). Both readers run the exact
// same arithmetic over the same records, so their outputs agree to the
// nanosecond -- the E6 acceptance check relies on this.
#pragma once

#include <array>
#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "util/symbol.hpp"
#include "util/time.hpp"

namespace decos::obs {

/// 1-based nearest-rank (ceil) position of percentile `p` (in [0,1])
/// among `n` > 0 sorted samples, clamped to [1, n]. The one percentile
/// rule behind LatencySet and the telemetry reader, so live and post-hoc
/// percentiles agree to the nanosecond.
std::uint64_t nearest_rank(double p, std::uint64_t n);

/// Exact latency sample set (nearest-rank percentiles over the sorted
/// samples -- no binning, unlike the metrics histograms).
class LatencySet {
 public:
  void add(Duration d) {
    samples_.push_back(d.ns());
    sorted_ = false;
  }
  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  std::int64_t min() const;
  std::int64_t max() const;
  double mean() const;
  /// Nearest-rank percentile in ns; p in [0,1].
  std::int64_t percentile(double p) const;

 private:
  void ensure_sorted() const;
  mutable std::vector<std::int64_t> samples_;
  mutable bool sorted_ = true;
};

/// Phase labels of the per-trace breakdown, in pipeline order. "total"
/// is first span start -> last span end.
inline constexpr const char* kBreakdownPhases[] = {"ingress",   "dissect",  "repo_wait",
                                                   "construct", "delivery", "total"};
inline constexpr std::size_t kBreakdownPhaseCount = std::size(kBreakdownPhases);

/// Flow key of a trace: "msgA" for same-name end-to-end traffic,
/// "msgA->msgB" when a gateway renamed/reconstructed the message.
std::string flow_key(Symbol root, Symbol terminal);

/// Phase landmarks of one trace, folded span by span in causal (span
/// id) order: the first bus, the first dissect, the longest repo_wait
/// before the first construct, the first construct, and the first
/// deliver after it. The post-hoc phase_breakdown and the live
/// WindowAggregator both fold this one type, so their numbers agree by
/// construction.
///
/// A TT state port re-sends its freshest instance every round, so one
/// trace accumulates bus/dissect/construct/deliver spans per round; the
/// breakdown measures the *first* completion of each stage. A deliver
/// before any construct is a delivery into a gateway's own input port,
/// or the end-to-end delivery of a gateway-less trace: the first one is
/// saved together with the landmarks as they stood, and it ends the
/// trace only if no construct ever follows.
class TraceLandmarks {
 public:
  /// Fold the next span; the first span folded is the root. Returns true
  /// once the trace is complete (the first deliver after a construct);
  /// later spans of the trace carry no landmark.
  bool fold(const Span& s);

  /// Per-phase samples in kBreakdownPhases order, ending at the
  /// terminal span: the completing deliver, else the saved
  /// pre-construct deliver when no construct arrived, else the last
  /// span folded. Phases whose landmarks are absent have no value.
  struct Samples {
    Symbol root{};
    Symbol terminal{};
    Instant end{};  // terminal span end
    std::array<std::optional<std::int64_t>, kBreakdownPhaseCount> ns{};

    std::int64_t total_ns() const { return *ns[kBreakdownPhaseCount - 1]; }
  };
  Samples samples() const;

 private:
  /// Landmarks that a pre-construct deliver freezes.
  struct Marks {
    Instant last_end{};
    Symbol last_name{};
    Instant bus_end{};
    Instant dissect_end{};
    Instant repo_end{};
    Duration repo_longest{};
    bool has_bus = false;
    bool has_dissect = false;
    bool has_repo = false;
    bool delivered = false;  // the last span folded is a deliver
  };

  Symbol root_name_{};
  Instant root_start_{};
  Instant construct_end_{};
  bool started_ = false;
  bool has_construct_ = false;
  bool has_pending_ = false;
  Marks marks_;
  Marks pending_;  // marks_ at the first deliver before any construct
};

/// Per-flow phase latency sets, keyed by flow_key().
struct FlowStats {
  std::map<std::string, LatencySet> phases;  // key: kBreakdownPhases entry
  std::size_t traces = 0;
};

using Breakdown = std::map<std::string, FlowStats>;

/// Group spans into traces, fold each (in span id order) into
/// TraceLandmarks and collect its samples:
///   ingress   = first bus delivery - root send
///   dissect   = dissection instant - preceding bus delivery
///   repo_wait = repository store -> fetch (max over elements)
///   construct = construction instant - repository fetch
///   delivery  = final port delivery - construction
///   total     = end-to-end
/// Phases whose spans are absent from a trace contribute no sample.
Breakdown phase_breakdown(const std::vector<Span>& spans);

/// Fault-containment summary from trace records.
struct ContainmentSummary {
  std::uint64_t faults_injected = 0;
  std::uint64_t frames_blocked = 0;     // bus guardian
  std::uint64_t gateway_blocked = 0;    // temporal/value/unknown suppression
  std::uint64_t automaton_errors = 0;
  std::uint64_t gateway_forwarded = 0;  // traffic that crossed a gateway
  std::map<std::string, std::uint64_t> blocked_reasons;  // detail prefix -> n
};

ContainmentSummary containment_summary(
    const std::vector<std::pair<std::string, TraceRecord>>& records);

json::Value breakdown_to_json(const Breakdown& breakdown);
json::Value containment_to_json(const ContainmentSummary& summary);

/// Validate parent/child integrity: every non-root span's parent exists
/// in the same trace and does not start after its child ends. Returns
/// human-readable violations (empty = consistent).
std::vector<std::string> check_span_integrity(const std::vector<Span>& spans);

}  // namespace decos::obs
