// Reference oracle for the trace landmark rules: the original post-hoc
// chain scan, kept verbatim in shape so landmark_property_test can check
// TraceLandmarks (and both of its readers) against an independent,
// whole-chain formulation of the same rules.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/analysis.hpp"

namespace decos::obs::oracle {

/// Per-flow phase breakdown by scanning each sorted chain: the first
/// construct is located over the whole chain, then one pass collects
/// the first bus, the first dissect, the longest repo_wait before that
/// construct and the first deliver after it, stopping at that deliver.
inline Breakdown phase_breakdown(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> traces;
  std::vector<std::uint64_t> order;
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
    const Span* root = chain.front();

    const Span* construct = nullptr;
    for (const Span* s : chain) {
      if (s->phase == Phase::kConstruct) {
        construct = s;
        break;
      }
    }

    const Span* first_bus = nullptr;
    const Span* dissect = nullptr;
    const Span* repo_longest = nullptr;
    const Span* deliver = nullptr;
    for (const Span* s : chain) {
      switch (s->phase) {
        case Phase::kBus:
          if (first_bus == nullptr) first_bus = s;
          break;
        case Phase::kDissect:
          if (dissect == nullptr) dissect = s;
          break;
        case Phase::kRepoWait:
          if ((construct == nullptr || s->span_id < construct->span_id) &&
              (repo_longest == nullptr || s->duration() > repo_longest->duration()))
            repo_longest = s;
          break;
        case Phase::kDeliver:
          if (deliver == nullptr && (construct == nullptr || s->span_id > construct->span_id))
            deliver = s;
          break;
        case Phase::kConstruct:
        case Phase::kSend:
          break;
      }
      if (deliver != nullptr) break;
    }

    const Span* last = deliver != nullptr ? deliver : chain.back();
    std::string key = symbol_name(root->name);
    if (last->name != root->name) key += "->" + symbol_name(last->name);

    FlowStats& flow = breakdown[key];
    ++flow.traces;
    flow.phases["total"].add(last->end - root->start);
    if (first_bus != nullptr) flow.phases["ingress"].add(first_bus->end - root->start);
    if (dissect != nullptr && first_bus != nullptr)
      flow.phases["dissect"].add(dissect->end - first_bus->end);
    if (repo_longest != nullptr) flow.phases["repo_wait"].add(repo_longest->duration());
    if (construct != nullptr && repo_longest != nullptr)
      flow.phases["construct"].add(construct->end - repo_longest->end);
    if (deliver != nullptr) {
      if (construct != nullptr)
        flow.phases["delivery"].add(deliver->end - construct->end);
      else if (first_bus != nullptr)
        flow.phases["delivery"].add(deliver->end - first_bus->end);
    }
  }
  return breakdown;
}

}  // namespace decos::obs::oracle
