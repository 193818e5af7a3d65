// Property: TraceLandmarks reproduces the whole-chain landmark scan
// (landmark_oracle.hpp) exactly, through both of its readers -- the
// post-hoc phase_breakdown and a WindowAggregator streaming the same
// spans -- over seeded random chains: random phase order, delivers
// before and after a construct, several constructs, repo_waits after
// the construct, missing phases, and traces interleaved in emission.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "landmark_oracle.hpp"
#include "obs/analysis.hpp"
#include "obs/telemetry.hpp"
#include "util/rng.hpp"

namespace decos::obs {
namespace {

using Samples = std::map<std::string, std::map<std::string, std::vector<std::int64_t>>>;

constexpr Phase kPhases[] = {Phase::kSend,     Phase::kBus,       Phase::kDissect,
                             Phase::kRepoWait, Phase::kConstruct, Phase::kDeliver};

/// `traces` random chains (ids 1..traces), emitted in a random
/// interleaving that keeps each chain in span id order.
std::vector<Span> random_spans(Rng& rng, int traces) {
  const Symbol names[] = {intern_symbol("msgA"), intern_symbol("msgB"), intern_symbol("msgC")};
  const Symbol track = intern_symbol("node");
  std::vector<std::vector<Span>> chains(static_cast<std::size_t>(traces));
  std::uint64_t next_span = 1;
  for (int t = 0; t < traces; ++t) {
    std::vector<Span>& chain = chains[static_cast<std::size_t>(t)];
    const auto length = rng.uniform_int(1, 12);
    std::int64_t clock = rng.uniform_int(0, 20) * 1000;
    for (std::int64_t i = 0; i < length; ++i) {
      Span s;
      s.trace_id = static_cast<std::uint64_t>(t + 1);
      s.span_id = next_span;
      next_span += static_cast<std::uint64_t>(rng.uniform_int(1, 3));
      s.parent_id = i == 0 ? 0 : chain.back().span_id;
      s.phase = i == 0 ? Phase::kSend : kPhases[rng.uniform_int(0, 5)];
      s.track = track;
      s.name = names[i == 0 ? rng.uniform_int(0, 1) : rng.uniform_int(0, 2)];
      clock += rng.uniform_int(0, 3) * 1000;
      s.start = Instant::from_ns(clock);
      s.end = s.start + Duration::nanoseconds(rng.uniform_int(0, 5) * 1000);
      chain.push_back(s);
    }
  }
  std::vector<Span> spans;
  std::vector<std::size_t> cursor(chains.size(), 0);
  std::vector<std::size_t> live;
  for (std::size_t i = 0; i < chains.size(); ++i) live.push_back(i);
  while (!live.empty()) {
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
    const std::size_t c = live[pick];
    spans.push_back(chains[c][cursor[c]++]);
    if (cursor[c] == chains[c].size()) live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  return spans;
}

/// Sorted samples of every (flow, phase), plus the trace count under
/// phase "#traces".
Samples samples_of(const Breakdown& breakdown) {
  Samples out;
  for (const auto& [key, flow] : breakdown) {
    out[key]["#traces"].push_back(static_cast<std::int64_t>(flow.traces));
    for (const auto& [phase, set] : flow.phases) {
      std::vector<std::int64_t>& v = out[key][phase];
      // Nearest rank i/n selects the i-th smallest sample exactly.
      for (std::size_t i = 1; i <= set.count(); ++i)
        v.push_back(set.percentile(static_cast<double>(i) / static_cast<double>(set.count())));
    }
  }
  return out;
}

Samples samples_of(const std::vector<FlowHealth>& flows) {
  Samples out;
  for (const FlowHealth& flow : flows) {
    out[flow.flow]["#traces"].push_back(static_cast<std::int64_t>(flow.traces));
    for (const auto& [phase, agg] : flow.phases) {
      EXPECT_TRUE(agg.exact()) << flow.flow << "/" << phase;
      std::vector<std::int64_t>& v = out[flow.flow][phase];
      for (const auto& [value, count] : agg.values) v.insert(v.end(), count, value);
    }
  }
  return out;
}

/// Stream `spans` through one large sim-time window and read the
/// per-flow health back, as decomon would.
std::vector<FlowHealth> live_health(const std::vector<Span>& spans) {
  std::ostringstream out;
  OstreamTelemetrySink sink{out};
  TelemetryConfig config;
  config.window = Duration::seconds(3600);
  config.max_open_traces = 4096;  // trace ids stay below: no collisions
  WindowAggregator aggregator{nullptr, nullptr, config};
  aggregator.set_sink(&sink);
  aggregator.begin_stream("landmarks");
  for (const Span& s : spans) aggregator.on_span(s);
  aggregator.flush();
  EXPECT_EQ(aggregator.traces_evicted(), 0u);
  std::istringstream in{out.str()};
  auto streams = load_telemetry(in);
  EXPECT_TRUE(streams.ok());
  return streams.ok() ? flow_health(streams.value()) : std::vector<FlowHealth>{};
}

TEST(LandmarkProperty, BothReadersMatchTheChainScanOracle) {
  Rng rng{0x1a2db33f};
  for (int round = 0; round < 400; ++round) {
    // At most 30 traces per round keeps every (flow, phase, window)
    // value list under the aggregator's 32-entry cap, so the live
    // percentiles are exact and comparable sample by sample.
    const std::vector<Span> spans = random_spans(rng, static_cast<int>(rng.uniform_int(1, 30)));
    const Samples expected = samples_of(oracle::phase_breakdown(spans));
    ASSERT_EQ(samples_of(phase_breakdown(spans)), expected) << "round " << round;
    ASSERT_EQ(samples_of(live_health(spans)), expected) << "round " << round;
  }
}

TEST(LandmarkProperty, NearestRankClampsAndRoundsUp) {
  EXPECT_EQ(nearest_rank(0.0, 10), 1u);
  EXPECT_EQ(nearest_rank(-1.0, 10), 1u);
  EXPECT_EQ(nearest_rank(0.5, 10), 5u);
  EXPECT_EQ(nearest_rank(0.51, 10), 6u);
  EXPECT_EQ(nearest_rank(0.99, 10), 10u);
  EXPECT_EQ(nearest_rank(1.0, 10), 10u);
  EXPECT_EQ(nearest_rank(0.001, 1), 1u);
}

}  // namespace
}  // namespace decos::obs
