#include "live.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/gateway_lint.hpp"
#include "core/gateway_xml.hpp"
#include "core/virtual_gateway.hpp"
#include "lint/lint.hpp"
#include "obs/metrics.hpp"
#include "rt/clock.hpp"
#include "rt/endpoint.hpp"
#include "rt/gateway_runtime.hpp"
#include "rt/ring.hpp"
#include "rt/udp.hpp"
#include "wire.hpp"

namespace perfbench {
namespace {

namespace core = decos::core;
namespace lint = decos::lint;
namespace obs = decos::obs;
namespace rt = decos::rt;
using decos::Duration;
using decos::Instant;

// ---- workload definition -------------------------------------------------

constexpr std::uint64_t kLightFps = 25'000;
/// Heavy points, pinned (README.md says how they relate to capacity on
/// the 4-core reference machine).
constexpr std::uint64_t kRingHeavyFps = 300'000;
constexpr std::uint64_t kUdpHeavyFps = 50'000;
constexpr double kLatencyLimitUs = 1000.0;  // p99 limit at the heavy point

constexpr std::size_t kUdpFlows = 32;
constexpr std::int64_t kUdpLimit = 1'000'000;    // filter: |value| <= lim
constexpr std::uint64_t kBlockedPerMille = 100;  // seeded share out of range

/// Set-up is timed in samples of this many set-ups, one sample before
/// each point, so the samples spread over the run's slow and fast
/// stretches of the host; a sample is the mean set-up time, setup_s the
/// median sample.
constexpr std::size_t kSetupsPerSample = 10;
/// Latency percentiles are taken per window of due instants this many
/// seconds long, but long enough for 1.25x kWindowSamples frames due (the
/// fewest egress frames that honour a p99, with room for filtered ones).
/// The reported figure is the kWindowQuantile quantile over the windows:
/// every window carries the same load, so without host noise their
/// percentiles differ by about 1 %, and a host stall (a preempted virtual
/// CPU) spoils the windows it falls in, not the point. In the host's
/// noisy spells more than half of the windows are spoilt (their median
/// p99 read 200-1400 us where it reads 108 us in quiet ones), so the
/// figure is the quietest tenth.
constexpr double kWindowSeconds = 0.04;
constexpr std::size_t kWindowSamples = 1000;
constexpr double kWindowQuantile = 0.1;
constexpr std::size_t kWarmupFrames = 256;
constexpr std::size_t kBatch = 32;          // pusher batch (sendmmsg / ring pushes)
constexpr std::size_t kMaxFrame = 64;
/// Transport buffers sized to ride out a stall of the runtime's virtual
/// CPU on a shared host (over 100 ms has been seen): rings as decogw
/// --ring-capacity 4194304 makes them, about 0.5 s of frames at the ring
/// heavy rate, and the gateway's UDP ingress socket (see size_udp_rcvbuf),
/// about 0.2 s of frames at the UDP heavy rate.
constexpr std::size_t kRingBytes = 4 << 20;
constexpr int kSocketBytes = 4 << 20;
/// A saturation point is runtime-bound only if the runtime was busy at
/// least this share of the point's wall time.
constexpr double kBusyFloor = 0.9;
/// Saturation: the pusher offers bursts of this many frames with a pause
/// between them (up to ~9M frames/s), the egress drainer empties its side
/// once per pause. Both sleep most of the point, so the runtime's core is
/// left to the runtime.
constexpr std::size_t kSaturationBurst = 1024;
constexpr auto kSaturationPause = std::chrono::microseconds(50);
/// capacity_fps is measured on one thread: fill the ingress transport
/// with kCapacityFill frames, let poll_once serve them, drain and check
/// the egress, repeat. Only the poll_once calls are timed, in windows of
/// at least kCapacityWindowNs of that time; the figure is the median
/// (kCapacityQuantile) of the windows' rates over the run's three
/// capacity points.
constexpr std::size_t kCapacityFill = 1024;
constexpr std::int64_t kCapacityWindowNs = 20'000'000;
constexpr double kCapacityQuantile = 0.5;
/// Fixed-rate pusher: the most it may exceed the rate while catching up.
constexpr double kCatchUpFactor = 2.0;
/// The traced stages, less the wrappers' own clock reads, must sum to the
/// untraced per-frame service time within this share of it. claim +
/// on_frame + tick add up to the traced busy time by construction, so this
/// bounds the tracing overhead (and the host's speed drift between the two
/// points, about 15 % on a shared virtual machine); it cannot see how the
/// busy time is split. The sign checks in run_live() test the split.
constexpr double kStageTolerance = 0.5;

// CPU slots (indices into the allowed CPU list): one core each. They stay
// put: moving the UDP runtime and helpers one CPU on per point (to spread
// the host's slow vCPUs over the points) raised udp_state's light p99 from
// about 122 us to 127-637 us on the reference machine.
constexpr std::size_t kRuntimeCpu = 1;
constexpr std::size_t kPusherCpu = 2;
constexpr std::size_t kDrainerCpu = 3;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

std::int64_t now_ns(rt::Clock& clock) { return clock.now().ns(); }

/// What frame number `g` of a point carries; pure in (seed, g), so the
/// pusher and the egress checker agree without sharing state.
struct FrameValues {
  std::size_t flow = 0;
  std::int64_t value = 0;
  bool blocked = false;  // out of the filter's range: the gateway must drop it
};

struct Flow {
  const spec::MessageSpec* in = nullptr;   // ingress message (owned by the gateway)
  const spec::MessageSpec* out = nullptr;  // egress message
  FrameTemplate frame;
  EgressLayout egress;
  std::int64_t egress_key = 0;
};

struct Schema {
  bool udp = false;
  std::uint64_t seed = 0;
  std::int64_t value_base = 0;  // ring_event: value = base + frame number
  std::vector<Flow> flows;
  std::size_t frame_size = 0;

  FrameValues values(std::uint64_t g) const {
    if (!udp) return {0, value_base + static_cast<std::int64_t>(g), false};
    const std::uint64_t r = mix(seed, 2 * g + 1);
    FrameValues v;
    v.flow = static_cast<std::size_t>(mix(seed, 2 * g) % flows.size());
    v.blocked = r % 1000 < kBlockedPerMille;
    const auto m = static_cast<std::int64_t>((r >> 10) % static_cast<std::uint64_t>(kUdpLimit));
    if (!v.blocked)
      v.value = static_cast<std::int64_t>((r >> 10) % (2 * kUdpLimit + 1)) - kUdpLimit;
    else
      v.value = ((r >> 40) & 1) != 0 ? kUdpLimit + 1 + m : -kUdpLimit - 1 - m;
    return v;
  }

  void stamp(std::byte* out, std::uint64_t g, std::int64_t t_ns) const {
    const FrameValues v = values(g);
    flows[v.flow].frame.stamp(out, v.value, static_cast<std::int64_t>(g), t_ns);
  }
};

// ---- gateways ------------------------------------------------------------

/// ring_event: the E22 flow -- msgA (event, push) -> "image" -> msgB.
std::unique_ptr<core::VirtualGateway> make_ring_gateway() {
  spec::LinkSpec link_a{"dasA"};
  link_a.add_message(value_message("msgA", "image", 1));
  spec::PortSpec in;
  in.message = "msgA";
  in.direction = spec::DataDirection::kInput;
  in.semantics = spec::InfoSemantics::kEvent;
  in.paradigm = spec::ControlParadigm::kEventTriggered;
  in.period = Duration::milliseconds(10);
  in.max_interarrival = Duration::seconds(3600);
  in.queue_capacity = 256;
  in.interaction = spec::Interaction::kPush;
  link_a.add_port(in);

  spec::LinkSpec link_b{"dasB"};
  link_b.add_message(value_message("msgB", "image", 2));
  spec::PortSpec out;
  out.message = "msgB";
  out.direction = spec::DataDirection::kOutput;
  out.semantics = spec::InfoSemantics::kEvent;
  out.paradigm = spec::ControlParadigm::kEventTriggered;
  out.queue_capacity = 256;
  link_b.add_port(out);

  core::GatewayConfig config;
  config.default_d_acc = Duration::seconds(3600);
  config.dispatch_period = Duration::milliseconds(1);
  config.default_queue_capacity = 256;
  auto gw = std::make_unique<core::VirtualGateway>("ring_event", std::move(link_a),
                                                   std::move(link_b), config);
  gw->set_element_config("image", spec::InfoSemantics::kEvent, Duration::seconds(3600), 256);
  gw->finalize();
  return gw;
}

/// udp_state: 32 state flows, each a key plus two convertible elements
/// (value+timestamp, sequence number) guarded by a value-domain filter.
std::string udp_state_xml() {
  std::ostringstream x;
  x << "<?xml version=\"1.0\"?>\n"
    << "<gatewayspec name=\"udp_state\">\n"
    << "  <config dispatch=\"1ms\" dacc=\"7200s\" queue=\"8\"/>\n";
  for (int side = 0; side < 2; ++side) {
    x << "  <linkspec>\n    <das>" << (side == 0 ? "producers" : "consumers") << "</das>\n";
    if (side == 0) x << "    <param name=\"lim\" value=\"" << kUdpLimit << "\"/>\n";
    for (std::size_t k = 0; k < kUdpFlows; ++k) {
      const std::string msg = (side == 0 ? "in" : "out") + std::to_string(k);
      x << "    <message name=\"" << msg << "\">\n"
        << "      <element name=\"name\" key=\"yes\" conv=\"no\"><field name=\"id\">"
        << "<type length=\"16\">integer</type><value>" << (side == 0 ? 100 : 1000) + k
        << "</value></field></element>\n"
        << "      <element name=\"v" << k << "\" key=\"no\" conv=\"yes\">"
        << "<field name=\"val" << k << "\"><type length=\"32\">integer</type></field>"
        << "<field name=\"t" << k << "\"><type>timestamp</type></field></element>\n"
        << "      <element name=\"s" << k << "\" key=\"no\" conv=\"yes\">"
        << "<field name=\"seq" << k << "\"><type length=\"32\">integer</type></field>"
        << "</element>\n"
        << "    </message>\n";
      if (side == 0) {
        x << "    <port message=\"" << msg << "\" direction=\"input\" semantics=\"state\""
          << " paradigm=\"et\" tmin=\"0ms\" tmax=\"3600s\"/>\n"
          << "    <filter message=\"" << msg << "\">val" << k << " &gt;= -lim &amp;&amp; val" << k
          << " &lt;= lim</filter>\n";
      } else {
        x << "    <port message=\"" << msg << "\" direction=\"output\" semantics=\"state\""
          << " paradigm=\"et\" queue=\"8\"/>\n";
      }
    }
    x << "  </linkspec>\n";
  }
  x << "</gatewayspec>\n";
  return x.str();
}

/// Load, lint and build the udp_state gateway the way decogw does.
std::unique_ptr<core::VirtualGateway> load_udp_gateway(const std::string& path) {
  auto doc = core::load_gateway_doc(path);
  if (!doc.ok()) throw std::runtime_error(path + ": " + doc.error().to_string());
  lint::GatewayModel model = core::make_lint_model(doc.value());
  model.transport_ring_bytes = kRingBytes;
  const lint::Report report = lint::lint_gateway_local(model);
  if (!report.clean()) throw std::runtime_error(path + ": lint errors in the generated spec");
  auto gw = core::build_gateway(doc.value());
  if (!gw.ok()) throw std::runtime_error(path + ": " + gw.error().to_string());
  return std::move(gw.value());
}

Schema make_schema(const core::VirtualGateway& gw, bool udp, std::uint64_t seed) {
  Schema schema;
  schema.udp = udp;
  schema.seed = seed;
  schema.value_base = static_cast<std::int64_t>(mix(seed, 0) % 1'000'000);
  const std::size_t flows = udp ? kUdpFlows : 1;
  for (std::size_t k = 0; k < flows; ++k) {
    const std::string in_name = udp ? "in" + std::to_string(k) : "msgA";
    const std::string out_name = udp ? "out" + std::to_string(k) : "msgB";
    const spec::MessageSpec* in = gw.link(0).spec().message(in_name);
    const spec::MessageSpec* out = gw.link(1).spec().message(out_name);
    if (in == nullptr || out == nullptr) throw std::runtime_error("flow messages missing");
    const std::string v = udp ? "v" + std::to_string(k) : "image";
    const std::string val = udp ? "val" + std::to_string(k) : "value";
    const std::string t = udp ? "t" + std::to_string(k) : "t";
    const std::string s = "s" + std::to_string(k);
    const std::string seq = "seq" + std::to_string(k);
    Flow flow{in, out,
              FrameTemplate{*in, field_at(*in, v, val),
                            udp ? field_at(*in, s, seq) : FieldAt{}, field_at(*in, v, t)},
              EgressLayout{field_at(*out, "name", "id"), field_at(*out, v, val),
                           udp ? field_at(*out, s, seq) : FieldAt{}, field_at(*out, v, t),
                           out->wire_size()},
              udp ? 1000 + static_cast<std::int64_t>(k) : 2};
    if (flow.frame.bytes.size() > kMaxFrame) throw std::runtime_error("frame too large");
    schema.frame_size = flow.frame.bytes.size();
    schema.flows.push_back(std::move(flow));
  }
  return schema;
}

// ---- timing wrappers (traced run) ----------------------------------------

/// Per-iteration stage times the wrappers add up; the loop folds them
/// into its phase slot only for iterations that moved frames.
struct StageClock {
  std::int64_t poll_ns = 0;
  std::int64_t sink_ns = 0;
  std::int64_t send_ns = 0;
  std::uint64_t sends = 0;
  std::uint64_t backlog_max = 0;
};

class TimedSink final : public rt::FrameSink {
 public:
  TimedSink(rt::FrameSink& inner, rt::Clock& clock, StageClock& acc)
      : inner_{&inner}, clock_{&clock}, acc_{&acc} {}
  void on_frame(std::span<const std::byte> payload) override {
    const Instant t0 = clock_->now();
    inner_->on_frame(payload);
    acc_->sink_ns += (clock_->now() - t0).ns();
  }

 private:
  rt::FrameSink* inner_;
  rt::Clock* clock_;
  StageClock* acc_;
};

/// rt::Endpoint decorator timing poll (and each on_frame inside it),
/// send, and sampling backlog() whenever the runtime reads it.
class TimedEndpoint final : public rt::Endpoint {
 public:
  TimedEndpoint(rt::Endpoint& inner, rt::Clock& clock, StageClock& acc)
      : inner_{&inner}, clock_{&clock}, acc_{&acc} {}

  std::size_t poll(rt::FrameSink& sink, std::size_t max_frames) override {
    TimedSink timed{sink, *clock_, *acc_};
    const Instant t0 = clock_->now();
    const std::size_t n = inner_->poll(timed, max_frames);
    acc_->poll_ns += (clock_->now() - t0).ns();
    return n;
  }
  bool send(std::span<const std::byte> payload) override {
    const Instant t0 = clock_->now();
    const bool ok = inner_->send(payload);
    acc_->send_ns += (clock_->now() - t0).ns();
    ++acc_->sends;
    return ok;
  }
  std::size_t backlog() const override {
    const std::size_t b = inner_->backlog();
    acc_->backlog_max = std::max<std::uint64_t>(acc_->backlog_max, b);
    return b;
  }
  const char* kind() const override { return inner_->kind(); }

 private:
  rt::Endpoint* inner_;
  rt::Clock* clock_;
  StageClock* acc_;
};

// ---- the runtime thread --------------------------------------------------

/// Everything the runtime loop measures in one phase. The loop thread
/// alone writes a slot; main reads it after the loop acknowledged the
/// switch to a later phase.
struct LoopSlot {
  rt::RuntimeStats rt_start, rt_end;
  core::GatewayStats gw_start, gw_end;
  std::int64_t wall_start_ns = 0, wall_end_ns = 0;
  std::uint64_t busy_iterations = 0, frames = 0;
  std::int64_t busy_ns = 0;  // poll_once time of iterations that moved frames
  // traced only
  std::int64_t poll_ns = 0, sink_ns = 0, send_ns = 0;
  std::uint64_t sends = 0, backlog_max = 0;
  std::vector<double> idle_gap_us;
};

constexpr std::size_t kMaxSlots = 16;  // 3 per point, up to 5 points, plus slot 0

struct LoopControl {
  std::atomic<bool> running{true};
  std::atomic<std::size_t> phase_req{0};
  std::atomic<std::size_t> phase_ack{0};
  std::array<LoopSlot, kMaxSlots> slots;
};

/// decogw's loop -- poll_once at the current instant, idle-sleep for the
/// default RuntimeConfig::idle_sleep when nothing moved -- plus the
/// benchmark's per-phase accounting.
template <bool kTraced>
void runtime_loop(LoopControl& ctl, rt::GatewayRuntime& runtime, rt::Clock& clock,
                  StageClock& stage) {
  pin_current_thread(kRuntimeCpu);
  const auto idle = std::chrono::nanoseconds(rt::RuntimeConfig{}.idle_sleep.ns());
  const core::VirtualGateway& gw = runtime.gateway();
  std::size_t phase = 0;
  LoopSlot* slot = &ctl.slots[0];
  slot->rt_start = runtime.stats();
  slot->gw_start = gw.stats();
  slot->wall_start_ns = now_ns(clock);
  if constexpr (kTraced) slot->idle_gap_us.reserve(1 << 18);
  while (ctl.running.load(std::memory_order_relaxed)) {
    const std::size_t want = ctl.phase_req.load(std::memory_order_acquire);
    if (want != phase) {
      slot->rt_end = runtime.stats();
      slot->gw_end = gw.stats();
      slot->wall_end_ns = now_ns(clock);
      phase = want;
      slot = &ctl.slots[phase];
      slot->rt_start = runtime.stats();
      slot->gw_start = gw.stats();
      slot->wall_start_ns = now_ns(clock);
      if constexpr (kTraced) slot->idle_gap_us.reserve(1 << 18);
      ctl.phase_ack.store(phase, std::memory_order_release);
    }
    if constexpr (kTraced) stage = StageClock{};
    const Instant t0 = clock.now();
    const std::size_t moved = runtime.poll_once(t0);
    if (moved > 0) {
      slot->busy_ns += (clock.now() - t0).ns();
      slot->frames += moved;
      ++slot->busy_iterations;
      if constexpr (kTraced) {
        slot->poll_ns += stage.poll_ns;
        slot->sink_ns += stage.sink_ns;
        slot->send_ns += stage.send_ns;
        slot->sends += stage.sends;
      }
    } else {
      std::this_thread::sleep_for(idle);
      if constexpr (kTraced) {
        if (slot->idle_gap_us.size() < slot->idle_gap_us.capacity())
          slot->idle_gap_us.push_back(static_cast<double>((clock.now() - t0).ns()) / 1e3);
      }
    }
    if constexpr (kTraced) slot->backlog_max = std::max(slot->backlog_max, stage.backlog_max);
  }
  slot->rt_end = runtime.stats();
  slot->gw_end = gw.stats();
  slot->wall_end_ns = now_ns(clock);
}

// ---- transports, generator side ------------------------------------------

/// Owns one file descriptor.
class Fd {
 public:
  Fd() = default;
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  ~Fd() { reset(-1); }
  void reset(int fd) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = fd;
  }
  int get() const { return fd_; }

 private:
  int fd_ = -1;
};

int udp_socket_bound(std::uint16_t& port_out) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof addr;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    throw std::runtime_error("bind() failed");
  }
  port_out = ntohs(addr.sin_port);
  return fd;
}

/// Size the receive buffer of the loopback UDP socket bound to `port`.
/// rt::UdpEndpoint keeps its socket private and takes the kernel default
/// (net.core.rmem_default, 208 KiB on stock Linux: a few ms of traffic
/// at the heavy rate), so the benchmark finds the socket by its bound
/// port and sizes it as an operator would size it for decogw, up to
/// net.core.rmem_max. Returns the size the kernel reports.
int size_udp_rcvbuf(std::uint16_t port, int bytes) {
  for (int fd = 0; fd < 1024; ++fd) {
    int type = 0;
    socklen_t type_len = sizeof type;
    sockaddr_in addr{};
    socklen_t addr_len = sizeof addr;
    if (::getsockopt(fd, SOL_SOCKET, SO_TYPE, &type, &type_len) != 0 || type != SOCK_DGRAM ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0 ||
        addr.sin_family != AF_INET || ntohs(addr.sin_port) != port)
      continue;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof bytes);
    int got = 0;
    socklen_t got_len = sizeof got;
    ::getsockopt(fd, SOL_SOCKET, SO_RCVBUF, &got, &got_len);
    return got;
  }
  throw std::runtime_error("gateway UDP socket not found");
}

/// One gateway under test with its transports, the generator's ends of
/// them and (traced) the timing wrappers.
class Rig {
 public:
  Rig(bool udp, const std::string& xml_path, std::uint64_t seed, bool traced, rt::Clock& clock)
      : udp_{udp}, traced_{traced}, clock_{&clock} {
    gw_ = udp ? load_udp_gateway(xml_path) : make_ring_gateway();
    gw_->trace().set_enabled(false);
    schema_ = make_schema(*gw_, udp, seed);
    runtime_ = std::make_unique<rt::GatewayRuntime>(*gw_, clock);
    if (udp) {
      std::uint16_t gen_port = 0, drain_port = 0;
      gen_fd_.reset(udp_socket_bound(gen_port));
      drain_fd_.reset(udp_socket_bound(drain_port));
      const int on = 1;
      ::setsockopt(drain_fd_.get(), SOL_SOCKET, SO_RXQ_OVFL, &on, sizeof on);
      ::setsockopt(drain_fd_.get(), SOL_SOCKET, SO_RCVBUF, &kSocketBytes, sizeof kSocketBytes);
      auto a = rt::UdpEndpoint::bind_loopback(0, gen_port);
      auto b = rt::UdpEndpoint::bind_loopback(0, drain_port);
      if (!a.ok() || !b.ok()) throw std::runtime_error("gateway UDP bind failed");
      udp_a_.emplace(std::move(a.value()));
      udp_b_.emplace(std::move(b.value()));
      ingress_rcvbuf_ = size_udp_rcvbuf(udp_a_->local_port(), kSocketBytes);
      sockaddr_in peer{};
      peer.sin_family = AF_INET;
      peer.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      peer.sin_port = htons(udp_a_->local_port());
      if (::connect(gen_fd_.get(), reinterpret_cast<sockaddr*>(&peer), sizeof peer) != 0)
        throw std::runtime_error("connect() failed");
      endpoints_[0] = &*udp_a_;
      endpoints_[1] = &*udp_b_;
    } else {
      for (auto& ring : rings_) ring = std::make_unique<rt::SpscRing>(kRingBytes);
      ring_a_.emplace(*rings_[0], *rings_[1]);
      ring_b_.emplace(*rings_[2], *rings_[3]);
      endpoints_[0] = &*ring_a_;
      endpoints_[1] = &*ring_b_;
    }
    for (int side = 0; side < 2; ++side) {
      rt::Endpoint* endpoint = endpoints_[side];
      if (traced) {
        timed_[side].emplace(*endpoint, clock, stage_);
        endpoint = &*timed_[side];
      }
      runtime_->attach(side, *endpoint);
    }
    runtime_->bind_observability(registry_);
    runtime_->start();
    for (std::size_t i = 0; i < kBatch; ++i) {
      iov_[i] = iovec{frames_[i], schema_.frame_size};
      send_hdr_[i] = mmsghdr{};
      send_hdr_[i].msg_hdr.msg_iov = &iov_[i];
      send_hdr_[i].msg_hdr.msg_iovlen = 1;
    }
    for (std::size_t i = 0; i < kDrainBatch; ++i) {
      recv_iov_[i] = iovec{recv_buf_[i], kMaxFrame};
    }
  }

  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  ~Rig() {
    stop_runtime();
  }

  const Schema& schema() const { return schema_; }
  rt::GatewayRuntime& runtime() { return *runtime_; }
  LoopControl& control() { return control_; }

  /// Start the runtime thread (traced or plain loop).
  void start_runtime() {
    if (traced_)
      thread_ = std::thread{[this] { runtime_loop<true>(control_, *runtime_, *clock_, stage_); }};
    else
      thread_ = std::thread{[this] { runtime_loop<false>(control_, *runtime_, *clock_, stage_); }};
  }
  void stop_runtime() {
    if (!thread_.joinable()) return;
    control_.running.store(false, std::memory_order_relaxed);
    thread_.join();
  }
  pthread_t runtime_thread() { return thread_.native_handle(); }

  /// Switch the runtime loop to phase slot `phase` and wait until it did.
  void enter_phase(std::size_t phase) {
    control_.phase_req.store(phase, std::memory_order_release);
    while (control_.phase_ack.load(std::memory_order_acquire) != phase)
      std::this_thread::sleep_for(std::chrono::microseconds(20));
  }

  /// Generator side: stamp frames [g, g+n) (due instants from `due`) and
  /// hand them to the transport. Returns how many it accepted (a prefix).
  template <typename DueFn>
  std::size_t push(std::uint64_t g, std::size_t n, DueFn&& due) {
    for (std::size_t i = 0; i < n; ++i) schema_.stamp(frames_[i], g + i, due(g + i));
    if (udp_) {
      const int sent = ::sendmmsg(gen_fd_.get(), send_hdr_, static_cast<unsigned>(n), MSG_DONTWAIT);
      return sent < 0 ? 0 : static_cast<std::size_t>(sent);
    }
    for (std::size_t i = 0; i < n; ++i)
      if (!rings_[0]->try_push(std::span<const std::byte>(frames_[i], schema_.frame_size)))
        return i;
    return n;
  }

  /// Egress side: hand every pending egress frame to `fn(payload,
  /// recv_ns)`, recv_ns being the instant the batch became visible here;
  /// returns the count. Drain-socket overflow (SO_RXQ_OVFL) is tracked.
  template <typename Fn>
  std::size_t drain(Fn&& fn) {
    if (!udp_) {
      std::int64_t recv_ns = 0;  // read at the first frame, after the ring claim
      return rings_[3]->consume(256, [&](std::span<const std::byte> payload) {
        if (recv_ns == 0) recv_ns = now_ns(*clock_);
        fn(payload, recv_ns);
      });
    }
    for (std::size_t i = 0; i < kDrainBatch; ++i) {
      recv_hdr_[i] = mmsghdr{};
      recv_hdr_[i].msg_hdr.msg_iov = &recv_iov_[i];
      recv_hdr_[i].msg_hdr.msg_iovlen = 1;
      recv_hdr_[i].msg_hdr.msg_control = recv_ctl_[i];
      recv_hdr_[i].msg_hdr.msg_controllen = sizeof recv_ctl_[i];
    }
    const int n = ::recvmmsg(drain_fd_.get(), recv_hdr_, kDrainBatch, MSG_DONTWAIT, nullptr);
    if (n <= 0) return 0;
    const std::int64_t recv_ns = now_ns(*clock_);
    for (int i = 0; i < n; ++i) {
      msghdr& h = recv_hdr_[i].msg_hdr;
      for (cmsghdr* c = CMSG_FIRSTHDR(&h); c != nullptr; c = CMSG_NXTHDR(&h, c)) {
        if (c->cmsg_level == SOL_SOCKET && c->cmsg_type == SO_RXQ_OVFL) {
          std::uint32_t dropped = 0;
          std::memcpy(&dropped, CMSG_DATA(c), sizeof dropped);
          drain_overflow_ = std::max<std::uint64_t>(drain_overflow_, dropped);
        }
      }
      fn(std::span<const std::byte>(recv_buf_[i], recv_hdr_[i].msg_len), recv_ns);
    }
    return static_cast<std::size_t>(n);
  }
  std::uint64_t drain_overflow() const { return drain_overflow_; }
  int ingress_rcvbuf() const { return ingress_rcvbuf_; }

 private:
  static constexpr std::size_t kDrainBatch = 64;

  bool udp_;
  bool traced_;
  rt::Clock* clock_;
  std::unique_ptr<core::VirtualGateway> gw_;
  Schema schema_;
  obs::MetricsRegistry registry_;
  std::unique_ptr<rt::GatewayRuntime> runtime_;
  std::array<std::unique_ptr<rt::SpscRing>, 4> rings_;  // a_in, a_out, b_in, b_out
  std::optional<rt::RingEndpoint> ring_a_, ring_b_;
  std::optional<rt::UdpEndpoint> udp_a_, udp_b_;
  std::array<rt::Endpoint*, 2> endpoints_{};
  StageClock stage_;
  std::array<std::optional<TimedEndpoint>, 2> timed_;
  Fd gen_fd_;
  Fd drain_fd_;
  std::byte frames_[kBatch][kMaxFrame] = {};
  iovec iov_[kBatch] = {};
  mmsghdr send_hdr_[kBatch] = {};
  std::byte recv_buf_[kDrainBatch][kMaxFrame] = {};
  alignas(cmsghdr) std::byte recv_ctl_[kDrainBatch][CMSG_SPACE(sizeof(std::uint32_t))] = {};
  iovec recv_iov_[kDrainBatch] = {};
  mmsghdr recv_hdr_[kDrainBatch] = {};
  std::uint64_t drain_overflow_ = 0;
  int ingress_rcvbuf_ = 0;
  LoopControl control_;
  std::thread thread_;  // last: joined before the members it uses go
};

// ---- one measured point --------------------------------------------------

/// The egress checker: every frame must carry exactly what the schedule
/// put into frame number g of its flow, in order, never a filtered one.
/// At a fixed rate it also records latency by window of due instants,
/// in fixed-size histograms, so its memory does not grow with the run.
struct EgressCheck {
  const Schema* schema = nullptr;
  std::uint64_t rate_fps = 0;  // 0 = saturation (t is the push instant)
  std::int64_t t0_ns = 0;
  std::int64_t count_from_ns = 0;  // saturation: frames counted from here
  std::int64_t count_to_ns = 0;

  std::atomic<std::uint64_t> received{0};  // frames that passed every check
  std::uint64_t wrong = 0;
  std::uint64_t counted = 0;  // saturation: frames received in [count_from, count_to)
  std::int64_t last_g = -1;
  std::string first_error;

  // Fixed rate: latency by window of due instants.
  std::int64_t window_ns = 0;
  std::size_t window_count = 0;
  std::int64_t open_window = -1;
  Histogram window_latency;         // the open window's
  Histogram latency;                // every closed window's
  std::vector<double> window_p50_us, window_p99_us;  // per closed window

  std::int64_t due(std::uint64_t g) const {
    return t0_ns + static_cast<std::int64_t>((static_cast<unsigned __int128>(g) * 1'000'000'000u) /
                                             rate_fps);
  }

  /// Cut a fixed-rate point `seconds` long into equal windows.
  void start_windows(double seconds) {
    const double shortest = std::max(
        kWindowSeconds, 1.25 * static_cast<double>(kWindowSamples) / static_cast<double>(rate_fps));
    window_count = std::max<std::size_t>(1, static_cast<std::size_t>(seconds / shortest));
    window_ns = static_cast<std::int64_t>(std::ceil(seconds * 1e9 / window_count));
    window_p50_us.reserve(window_count);
    window_p99_us.reserve(window_count);
  }

  /// Record the open window's percentiles and fold its histogram into
  /// the point's. A window short of frames (lost ones) has no p99 and
  /// records none.
  void close_window() {
    if (open_window < 0) return;
    const Tail p99 = window_latency.percentile_us(0.99);
    if (p99.percentile == 0.99) {
      window_p50_us.push_back(window_latency.percentile_us(0.5).value);
      window_p99_us.push_back(p99.value);
    }
    latency.merge(window_latency);
    window_latency.clear();
    open_window = -1;
  }

  void fail(const char* what, std::int64_t g) {
    ++wrong;
    if (first_error.empty()) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "egress frame %lld: %s", static_cast<long long>(g), what);
      first_error = buf;
    }
  }

  void check(std::span<const std::byte> p, std::int64_t recv_ns) {
    const Schema& s = *schema;
    const EgressLayout& any = s.flows[0].egress;
    if (p.size() != any.size) return fail("wrong size", -1);
    const std::int64_t key = load_be_signed(p.data() + any.key.offset, any.key.bytes);
    const std::int64_t flow_index = key - s.flows[0].egress_key;
    if (flow_index < 0 || flow_index >= static_cast<std::int64_t>(s.flows.size()))
      return fail("unknown key", -1);
    const Flow& flow = s.flows[static_cast<std::size_t>(flow_index)];
    const EgressLayout& e = flow.egress;
    const std::int64_t value = load_be_signed(p.data() + e.value.offset, e.value.bytes);
    const std::int64_t t = load_be_signed(p.data() + e.t.offset, e.t.bytes);
    const std::int64_t g = e.seq.bytes != 0 ? load_be_signed(p.data() + e.seq.offset, e.seq.bytes)
                                            : value - s.value_base;
    if (g <= last_g) return fail("out of order or duplicated", g);
    const FrameValues want = s.values(static_cast<std::uint64_t>(g));
    if (want.flow != static_cast<std::size_t>(flow_index)) return fail("wrong flow", g);
    if (want.blocked) return fail("filtered value forwarded", g);
    if (want.value != value) return fail("wrong value", g);
    if (rate_fps != 0 ? t != due(static_cast<std::uint64_t>(g)) : (t < t0_ns || t > recv_ns))
      return fail("wrong timestamp", g);
    last_g = g;
    if (rate_fps != 0) {
      const std::int64_t k =
          std::min((t - t0_ns) / window_ns, static_cast<std::int64_t>(window_count) - 1);
      if (k != open_window) {
        close_window();
        open_window = k;
      }
      window_latency.add(recv_ns - t);
    }
    if (recv_ns >= count_from_ns && recv_ns < count_to_ns) ++counted;
    received.fetch_add(1, std::memory_order_relaxed);
  }
};

struct PushTally {
  std::uint64_t due = 0;           // fixed rate: frames whose due instant passed
  std::uint64_t sent = 0;          // accepted by the transport
  std::uint64_t sent_blocked = 0;  // accepted and out of the filter's range
  std::uint64_t rejected = 0;      // refused by the transport (fixed rate: frames)
  Histogram late;                  // push instant - due instant, fixed rate
};

struct PointSpec {
  const char* name = "";
  std::uint64_t rate_fps = 0;  // 0 = saturation
  double seconds = 1.0;
};

struct Point {
  PointSpec spec;
  PushTally push;
  EgressCheck egress;
  LoopSlot loop;          // the active part of the point
  LoopSlot flush;         // the drain-out after the pusher stopped
  double wall_s = 0.0;
  double runtime_cpu_s = 0.0;
  std::uint64_t drain_overflow = 0;
  std::uint64_t in_flight_end = 0;  // fixed rate: sent, not yet back, when the pusher stopped

  // derived
  std::uint64_t failures = 0;
  std::uint64_t attempted = 0;
  double p50_us = 0.0, p99_us = 0.0;  // kWindowQuantile over the windows
  Tail p99_whole, late99;  // over the whole point
  double capacity_fps = 0.0;
  double busy_frac = 0.0;
  double service_ns = 0.0;  // runtime busy time per frame
};

void pusher_thread(Rig& rig, const PointSpec& spec, std::int64_t t0, std::int64_t end,
                   rt::Clock& clock, PushTally& tally) {
  pin_current_thread(kPusherCpu);
  const Schema& schema = rig.schema();
  std::uint64_t g = 0;
  while (now_ns(clock) < t0) cpu_relax();
  if (spec.rate_fps == 0) {
    // Saturation: offer bursts of up to kSaturationBurst frames, each
    // ended early by the first refusal, with a kSaturationPause sleep
    // between them. A refused frame is shed (re-offered later with a
    // fresh stamp, never counted as sent). Sleeping, not spinning, keeps
    // the generator off the runtime's core resources while it saturates.
    while (now_ns(clock) < end) {
      for (std::size_t burst = 0; burst < kSaturationBurst; burst += kBatch) {
        const std::int64_t now = now_ns(clock);
        const std::size_t accepted = rig.push(g, kBatch, [now](std::uint64_t) { return now; });
        for (std::size_t i = 0; i < accepted; ++i)
          if (schema.values(g + i).blocked) ++tally.sent_blocked;
        tally.sent += accepted;
        g += accepted;
        if (accepted < kBatch) {
          ++tally.rejected;
          break;
        }
      }
      std::this_thread::sleep_for(kSaturationPause);
    }
    return;
  }
  const auto due = [&](std::uint64_t n) {
    return t0 + static_cast<std::int64_t>(
                    (static_cast<unsigned __int128>(n) * 1'000'000'000u) / spec.rate_fps);
  };
  // A pusher that fell behind (its own thread was descheduled) catches up
  // at no more than kCatchUpFactor times the rate, so its stall reaches
  // the gateway as a run of late frames (each still stamped with its due
  // instant), not as one burst the transport could not have seen.
  const auto catch_up_ns = static_cast<std::int64_t>(1e9 / (kCatchUpFactor * spec.rate_fps));
  std::int64_t next_send = t0;
  while (true) {
    const std::int64_t now = now_ns(clock);
    if (now >= end) break;
    std::size_t n = 0;
    while (n < kBatch && due(g + n) <= now && due(g + n) < end) ++n;
    if (n == 0 || now < next_send) {
      cpu_relax();
      continue;
    }
    next_send = now + static_cast<std::int64_t>(n) * catch_up_ns;
    const std::size_t accepted = rig.push(g, n, due);
    for (std::size_t i = 0; i < n; ++i) {
      tally.late.add(now - due(g + i));
      if (i < accepted) {
        ++tally.sent;
        if (schema.values(g + i).blocked) ++tally.sent_blocked;
      } else {
        ++tally.rejected;
      }
    }
    g += n;
  }
  tally.due = g;
}

void drainer_thread(Rig& rig, EgressCheck& check, const std::atomic<bool>& stop) {
  pin_current_thread(kDrainerCpu);
  const auto on_frame = [&](std::span<const std::byte> p, std::int64_t at) { check.check(p, at); };
  while (!stop.load(std::memory_order_relaxed)) {
    if (check.rate_fps == 0) {
      // Saturation measures no latency: drain everything, then sleep.
      while (rig.drain(on_frame) != 0) {
      }
      std::this_thread::sleep_for(kSaturationPause);
    } else if (rig.drain(on_frame) == 0) {
      cpu_relax();
    }
  }
}

std::uint64_t delta(std::uint64_t end, std::uint64_t start) { return end - start; }

/// Run one point on a started rig in phase slots 3*index+1 (active) and
/// 3*index+2 (drain-out); slot 3*index+3 covers the evaluation after it,
/// slot 0 the time before the first point.
void run_point(Rig& rig, std::size_t index, Point& point, rt::Clock& clock) {
  const PointSpec& spec = point.spec;
  const std::size_t active = 3 * index + 1;
  rig.enter_phase(active);
  const double cpu0 = thread_cpu_seconds(rig.runtime_thread());
  const std::int64_t t0 = now_ns(clock) + 2'000'000;  // 2 ms lead for the threads to start
  const std::int64_t end = t0 + static_cast<std::int64_t>(spec.seconds * 1e9);

  EgressCheck& check = point.egress;
  check.schema = &rig.schema();
  check.rate_fps = spec.rate_fps;
  check.t0_ns = t0;
  check.count_from_ns = t0 + static_cast<std::int64_t>(spec.seconds * 0.2e9);
  check.count_to_ns = end;
  if (spec.rate_fps != 0) check.start_windows(spec.seconds);

  std::atomic<bool> stop_drain{false};
  std::thread drainer{[&] { drainer_thread(rig, check, stop_drain); }};
  std::thread pusher{[&] { pusher_thread(rig, spec, t0, end, clock, point.push); }};
  pusher.join();
  const std::uint64_t back = check.received.load() + point.push.sent_blocked;
  point.in_flight_end = point.push.sent > back ? point.push.sent - back : 0;
  rig.enter_phase(active + 1);
  const double cpu1 = thread_cpu_seconds(rig.runtime_thread());
  // Drain-out: wait until everything sent is accounted for (fixed rate)
  // or the egress went quiet for 30 ms (saturation sheds and a lossy point
  // loses frames, so counts never close), so no frame of this point is
  // left to reach the next one. Bounded, for an overloaded runtime.
  const std::uint64_t expect = point.push.sent - point.push.sent_blocked;
  const std::int64_t deadline = now_ns(clock) + 5'000'000'000;
  std::uint64_t seen = check.received.load();
  std::int64_t quiet_since = now_ns(clock);
  while (now_ns(clock) < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::uint64_t r = check.received.load();
    if (spec.rate_fps != 0 && r >= expect) break;
    if (r != seen) {
      seen = r;
      quiet_since = now_ns(clock);
    } else if (now_ns(clock) - quiet_since > 30'000'000) {
      break;
    }
  }
  stop_drain.store(true);
  drainer.join();
  check.close_window();
  rig.enter_phase(active + 2);
  point.loop = std::move(rig.control().slots[active]);
  point.flush = std::move(rig.control().slots[active + 1]);
  point.wall_s = static_cast<double>(point.loop.wall_end_ns - point.loop.wall_start_ns) / 1e9;
  point.runtime_cpu_s = cpu1 - cpu0;
  point.drain_overflow = rig.drain_overflow();

  // Derived figures and the ledger.
  const rt::RuntimeStats& a = point.loop.rt_start;
  const rt::RuntimeStats& b = point.flush.rt_end;
  const std::uint64_t counted_drops =
      delta(b.rx_dropped, a.rx_dropped) + delta(b.tx_dropped, a.tx_dropped) +
      delta(b.rx_unknown, a.rx_unknown) + delta(b.rx_decode_errors, a.rx_decode_errors) +
      delta(b.tx_encode_errors, a.tx_encode_errors);
  const std::uint64_t blocked =
      delta(point.flush.gw_end.blocked_value, point.loop.gw_start.blocked_value);
  point.busy_frac = point.wall_s > 0 ? static_cast<double>(point.loop.busy_ns) / 1e9 / point.wall_s
                                     : 0.0;
  point.service_ns = point.loop.frames > 0 ? static_cast<double>(point.loop.busy_ns) /
                                                 static_cast<double>(point.loop.frames)
                                           : 0.0;
  if (spec.rate_fps != 0) {
    const std::uint64_t received = check.received.load();
    const std::uint64_t lost = expect > received ? expect - received : 0;
    point.attempted = point.push.due;
    point.failures = point.push.rejected + lost + check.wrong + counted_drops +
                     (blocked > point.push.sent_blocked ? blocked - point.push.sent_blocked
                                                        : point.push.sent_blocked - blocked);
    point.p50_us = quantile(check.window_p50_us, kWindowQuantile);
    point.p99_us = quantile(check.window_p99_us, kWindowQuantile);
    point.p99_whole = check.latency.percentile_us(0.99);
    point.late99 = point.push.late.percentile_us(0.99);
  } else {
    const double count_s = static_cast<double>(check.count_to_ns - check.count_from_ns) / 1e9;
    point.capacity_fps = static_cast<double>(check.counted) / count_s;
  }
}

double ns_per(double total_ns, double count) { return count > 0 ? total_ns / count : 0.0; }

/// Cost of one clock.now(), the unit the timing wrappers add per read.
double clock_read_ns(rt::Clock& clock) {
  constexpr int kReads = 1 << 20;
  std::int64_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kReads; ++i) sink += clock.now().ns();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  return sink == 0 ? 0.0
                   : static_cast<double>(
                         std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()) /
                         kReads;
}

// ---- the spec-layer replay -----------------------------------------------

struct CodecReplay {
  double matches_key_ns = 0.0;  // per ingress frame, runtime lookup order
  double decode_into_ns = 0.0;  // per ingress frame
  double encode_into_ns = 0.0;  // per egress frame
};

/// Time the codec calls the runtime makes per frame by replaying the
/// workload's frames (the same generator, frame numbers 0..N) through
/// spec::matches_key (last-hit first, then in port order, as the
/// runtime looks keys up), spec::decode_into and spec::encode_into.
CodecReplay replay_codec(const Schema& schema) {
  constexpr std::size_t kFrames = 4096;
  constexpr std::int64_t kMinNs = 40'000'000;
  std::vector<std::vector<std::byte>> frames(kFrames);
  std::vector<std::size_t> flow_of(kFrames);
  std::vector<spec::MessageInstance> scratch;
  std::vector<spec::MessageInstance> egress;  // one per forwarded frame
  std::vector<std::size_t> egress_flow;
  for (const Flow& f : schema.flows) scratch.push_back(spec::make_instance(*f.in));
  for (std::size_t i = 0; i < kFrames; ++i) {
    frames[i].resize(schema.frame_size);
    schema.stamp(frames[i].data(), i, static_cast<std::int64_t>(i) * 1000);
    const FrameValues v = schema.values(i);
    flow_of[i] = v.flow;
    if (v.blocked) continue;
    const Flow& f = schema.flows[v.flow];
    spec::MessageInstance out = spec::make_instance(*f.out);
    out.elements()[f.egress.value.element].fields[f.egress.value.field] = decos::ta::Value{v.value};
    out.elements()[f.egress.t.element].fields[f.egress.t.field] =
        decos::ta::Value{Instant::from_ns(static_cast<std::int64_t>(i) * 1000)};
    if (f.egress.seq.bytes != 0)
      out.elements()[f.egress.seq.element].fields[f.egress.seq.field] =
          decos::ta::Value{static_cast<std::int64_t>(i)};
    egress.push_back(std::move(out));
    egress_flow.push_back(v.flow);
  }
  const auto timed = [&](auto&& body, std::size_t per_rep) {
    std::uint64_t reps = 0;
    const auto t0 = std::chrono::steady_clock::now();
    std::int64_t elapsed = 0;
    while (elapsed < kMinNs) {
      body();
      ++reps;
      elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    }
    return static_cast<double>(elapsed) / static_cast<double>(reps * per_rep);
  };
  CodecReplay r;
  std::size_t sink = 0;
  r.matches_key_ns = timed(
      [&] {
        std::size_t last = 0;
        for (const auto& frame : frames) {
          if (spec::matches_key(*schema.flows[last].in, frame)) continue;
          for (std::size_t i = 0; i < schema.flows.size(); ++i) {
            if (spec::matches_key(*schema.flows[i].in, frame)) {
              last = i;
              break;
            }
          }
        }
        sink += last;
      },
      kFrames);
  r.decode_into_ns = timed(
      [&] {
        for (std::size_t i = 0; i < kFrames; ++i)
          sink += spec::decode_into(*schema.flows[flow_of[i]].in, frames[i], scratch[flow_of[i]])
                      .ok();
      },
      kFrames);
  std::vector<std::byte> buf;
  r.encode_into_ns = timed(
      [&] {
        for (std::size_t i = 0; i < egress.size(); ++i)
          sink += spec::encode_into(*schema.flows[egress_flow[i]].out, egress[i], buf).ok();
      },
      egress.size());
  if (sink == 0) r.matches_key_ns += 0.0;  // keep the loops observable
  return r;
}

// ---- set-up --------------------------------------------------------------

/// Push kWarmupFrames through the freshly started gateway on the calling
/// thread (poll_once + drain) and check every egress frame.
void warm_up(Rig& rig, rt::Clock& clock) {
  EgressCheck check;
  check.schema = &rig.schema();
  check.rate_fps = 0;
  check.t0_ns = now_ns(clock);
  std::uint64_t sent = 0, blocked = 0, g = 0;
  const std::int64_t deadline = now_ns(clock) + 5'000'000'000;
  const auto on_frame = [&](std::span<const std::byte> p, std::int64_t at) { check.check(p, at); };
  while (g < kWarmupFrames && now_ns(clock) < deadline) {
    const std::int64_t now = now_ns(clock);
    const std::size_t n = rig.push(g, kBatch, [now](std::uint64_t) { return now; });
    for (std::size_t i = 0; i < n; ++i) blocked += rig.schema().values(g + i).blocked ? 1 : 0;
    sent += n;
    g += n;
    while (rig.runtime().poll_once(clock.now()) > 0) {
    }
    rig.drain(on_frame);
  }
  while (check.received.load() + check.wrong < sent - blocked && now_ns(clock) < deadline) {
    rig.runtime().poll_once(clock.now());
    rig.drain(on_frame);
  }
  if (check.wrong != 0 || check.received.load() != sent - blocked)
    throw std::runtime_error("warm-up: " + std::to_string(check.received.load()) + " of " +
                             std::to_string(sent - blocked) + " frames came back correct" +
                             (check.first_error.empty() ? "" : "; " + check.first_error));
}

std::unique_ptr<Rig> build_rig(bool udp, const std::string& xml_path, std::uint64_t seed,
                               bool traced, rt::Clock& clock, bool start = true) {
  auto rig = std::make_unique<Rig>(udp, xml_path, seed, traced, clock);
  warm_up(*rig, clock);
  if (start) rig->start_runtime();
  return rig;
}

std::string write_udp_spec(const std::string& work_dir) {
  const std::string path = work_dir + "/udp_state.xml";
  std::ofstream out{path};
  out << udp_state_xml();
  if (!out) throw std::runtime_error("cannot write " + path);
  return path;
}

void print_point(const char* workload, const Point& p) {
  if (p.spec.rate_fps != 0) {
    std::printf(
        "[%s] %-5s %8llu fps  %5.2fs  due=%llu sent=%llu rejected=%llu blocked=%llu recv=%llu "
        "fail=%llu  "
        "p50=%.1fus p99=%.1fus (lowest tenth of %zu windows; whole point p%.0f=%.1fus, "
        "n=%llu)  "
        "gen.late_p%.0f=%.1fus  runtime cpu=%.3f busy=%.3f\n",
        workload, p.spec.name, static_cast<unsigned long long>(p.spec.rate_fps), p.wall_s,
        static_cast<unsigned long long>(p.push.due), static_cast<unsigned long long>(p.push.sent),
        static_cast<unsigned long long>(p.push.rejected),
        static_cast<unsigned long long>(p.push.sent_blocked),
        static_cast<unsigned long long>(p.egress.received.load()),
        static_cast<unsigned long long>(p.failures), p.p50_us, p.p99_us,
        p.egress.window_p99_us.size(), p.p99_whole.percentile * 100, p.p99_whole.value,
        static_cast<unsigned long long>(p.p99_whole.count), p.late99.percentile * 100,
        p.late99.value,
        p.runtime_cpu_s / p.wall_s, p.busy_frac);
  } else {
    std::printf(
        "[%s] %-5s  saturated  %5.2fs  sent=%llu rejected=%llu recv=%llu  capacity=%.0f fps  "
        "busy=%.3f  service=%.1f ns/frame  batch=%.1f\n",
        workload, p.spec.name, p.wall_s, static_cast<unsigned long long>(p.push.sent),
        static_cast<unsigned long long>(p.push.rejected),
        static_cast<unsigned long long>(p.egress.received.load()), p.capacity_fps, p.busy_frac,
        p.service_ns,
        ns_per(static_cast<double>(p.loop.frames), static_cast<double>(p.loop.busy_iterations)));
  }
}

/// Run the given points in order, point i on the rig `rig_for(i)` returns.
std::vector<Point> run_points(const std::vector<PointSpec>& specs, rt::Clock& clock,
                              const char* workload,
                              const std::function<Rig&(std::size_t)>& rig_for) {
  std::vector<Point> points(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    points[i].spec = specs[i];
    run_point(rig_for(i), i, points[i], clock);
    print_point(workload, points[i]);
  }
  return points;
}

/// Ledger and generator-bound checks of one point, folded into `result`.
void check_point(const Point& p, RunResult& result, const char* workload) {
  const std::string where = std::string{workload} + " " + p.spec.name + ": ";
  if (!p.egress.first_error.empty()) result.error(where + p.egress.first_error);
  if (p.drain_overflow != 0) result.error(where + "egress drain socket overflowed (generator-bound)");
  if (p.spec.rate_fps != 0) {
    result.attempted += p.attempted;
    result.failed += p.failures;
    if (2 * p.egress.window_p99_us.size() < p.egress.window_count)
      result.error(where + "too few windows with the latency samples for a p99");
    if (p.push.due == 0 || p.push.sent + p.push.rejected != p.push.due)
      result.error(where + "pusher ledger does not add up");
    return;
  }
  // Saturation must be runtime-bound: the transport sheds, the runtime is
  // busy, and egress is never the limit.
  const std::uint64_t received = p.egress.received.load();
  const bool shed = p.push.rejected > 0 || p.push.sent > received + p.push.sent_blocked;
  const std::uint64_t tx_dropped = p.flush.rt_end.tx_dropped - p.loop.rt_start.tx_dropped;
  if (!shed) result.error(where + "generator-bound: the transport shed nothing");
  if (p.busy_frac < kBusyFloor) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "generator-bound: runtime busy %.3f < %.2f", p.busy_frac,
                  kBusyFloor);
    result.error(where + buf);
  }
  if (tx_dropped != 0) result.error(where + "generator-bound: egress transport refused frames");
  if (p.capacity_fps <= 0) result.error(where + "no frames carried");
}

/// One capacity point on a rig whose runtime thread was never started:
/// the pusher, the runtime and the drainer take turns on the runtime's
/// CPU, so the figure is the runtime's own cost per frame. Three threads
/// on three vCPUs add the cost of moving cache lines between them, and
/// that depends on where the host happens to place the vCPUs: on the
/// reference machine ten runs of one build of ring_event read a
/// three-thread saturation rate of 1.05 to 1.74 M/s (quartile spread 0.26
/// of the median); the one-thread figure spread 0.015 to 0.054. Appends
/// the rate of each window to `window_fps`; any lost, surplus or wrong
/// frame fails the run.
void run_capacity(Rig& rig, double seconds, rt::Clock& clock, const char* workload,
                  std::vector<double>& window_fps, RunResult& result) {
  ScopedPin pin{kRuntimeCpu};
  rt::GatewayRuntime& runtime = rig.runtime();
  const rt::RuntimeStats rt_start = runtime.stats();
  const core::GatewayStats gw_start = runtime.gateway().stats();
  EgressCheck check;
  check.schema = &rig.schema();
  check.t0_ns = now_ns(clock);
  const auto on_frame = [&](std::span<const std::byte> p, std::int64_t at) { check.check(p, at); };
  const std::size_t first_window = window_fps.size();
  std::uint64_t g = 0, blocked = 0, frames = 0, window_frames = 0;
  std::int64_t busy_ns = 0, window_busy_ns = 0;
  const std::int64_t end = now_ns(clock) + static_cast<std::int64_t>(seconds * 1e9);
  while (now_ns(clock) < end) {
    for (std::size_t filled = 0; filled < kCapacityFill;) {
      const std::int64_t now = now_ns(clock);
      const std::size_t n = rig.push(g, kBatch, [now](std::uint64_t) { return now; });
      for (std::size_t i = 0; i < n; ++i) blocked += rig.schema().values(g + i).blocked ? 1 : 0;
      g += n;
      filled += n;
      if (n < kBatch) break;
    }
    while (true) {
      const Instant t0 = clock.now();
      const std::size_t moved = runtime.poll_once(t0);
      if (moved == 0) break;
      window_busy_ns += (clock.now() - t0).ns();
      window_frames += moved;
    }
    while (rig.drain(on_frame) != 0) {
    }
    if (window_busy_ns >= kCapacityWindowNs) {
      window_fps.push_back(static_cast<double>(window_frames) * 1e9 /
                           static_cast<double>(window_busy_ns));
      busy_ns += window_busy_ns;
      frames += window_frames;
      window_busy_ns = 0;
      window_frames = 0;
    }
  }
  // Serve and drain what is left (datagrams still on their way included).
  const std::int64_t deadline = now_ns(clock) + 1'000'000'000;
  while (check.received.load() + check.wrong < g - blocked && now_ns(clock) < deadline) {
    runtime.poll_once(clock.now());
    rig.drain(on_frame);
  }
  const rt::RuntimeStats rt_end = runtime.stats();
  const std::uint64_t counted_drops =
      delta(rt_end.rx_dropped, rt_start.rx_dropped) + delta(rt_end.tx_dropped, rt_start.tx_dropped) +
      delta(rt_end.rx_unknown, rt_start.rx_unknown) +
      delta(rt_end.rx_decode_errors, rt_start.rx_decode_errors) +
      delta(rt_end.tx_encode_errors, rt_start.tx_encode_errors);
  const std::uint64_t gw_blocked = runtime.gateway().stats().blocked_value - gw_start.blocked_value;
  const std::string where = std::string{workload} + " capacity: ";
  if (!check.first_error.empty()) result.error(where + check.first_error);
  if (check.received.load() != g - blocked || counted_drops != 0 || gw_blocked != blocked)
    result.error(where + std::to_string(g) + " frames sent, " + std::to_string(blocked) +
                 " out of range, " + std::to_string(gw_blocked) + " blocked, " +
                 std::to_string(check.received.load()) + " came back, " +
                 std::to_string(counted_drops) + " counted drops");
  if (rig.drain_overflow() != 0) result.error(where + "egress drain socket overflowed");
  if (window_fps.size() == first_window) result.error(where + "no complete window");
  std::printf("[%s] cap   one thread  %5.2fs  sent=%llu recv=%llu  %.0f fps over %zu windows "
              "(%.1f ns/frame)\n",
              workload, seconds, static_cast<unsigned long long>(g),
              static_cast<unsigned long long>(check.received.load()),
              frames > 0 ? static_cast<double>(frames) * 1e9 / static_cast<double>(busy_ns) : 0.0,
              window_fps.size() - first_window,
              ns_per(static_cast<double>(busy_ns), static_cast<double>(frames)));
}

}  // namespace

bool is_live_workload(const std::string& workload) {
  return workload == "ring_event" || workload == "udp_state";
}

RunResult run_live(const Options& options, const std::string& work_dir) {
  const bool udp = options.workload == "udp_state";
  const char* name = udp ? "udp_state" : "ring_event";
  const std::uint64_t heavy_fps = udp ? kUdpHeavyFps : kRingHeavyFps;
  RunResult result;
  rt::MonotonicClock clock;
  pin_current_thread(0);
  const std::string xml_path = udp ? write_udp_spec(work_dir) : std::string{};

  const double s = options.seconds;
  std::unique_ptr<Rig> rig;
  if (!options.trace) {
    // Each point runs on its own rig, the last of a sample of
    // kSetupsPerSample set-ups (spec load, lint and build, runtime start
    // and warm-up; tearing the previous rig down is not timed) made just
    // before it. The capacity points never start the runtime thread.
    std::vector<double> setup_s;
    int ingress_rcvbuf = 0;
    const auto set_up = [&](bool start) -> Rig& {
      double total = 0.0;
      for (std::size_t i = 0; i < kSetupsPerSample; ++i) {
        rig.reset();
        const auto t0 = std::chrono::steady_clock::now();
        rig = build_rig(udp, xml_path, options.seed, /*traced=*/false, clock, start);
        total += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      }
      setup_s.push_back(total / kSetupsPerSample);
      ingress_rcvbuf = rig->ingress_rcvbuf();
      return *rig;
    };
    std::vector<double> window_fps;
    const auto capacity_point = [&] {
      run_capacity(set_up(false), s / 6, clock, name, window_fps, result);
    };
    const auto fixed_point = [&](Point& p, PointSpec spec) {
      p.spec = spec;
      run_point(set_up(true), 0, p, clock);
      print_point(name, p);
    };
    Point light, heavy;
    capacity_point();
    fixed_point(light, {"light", kLightFps, s / 4});
    capacity_point();
    fixed_point(heavy, {"heavy", heavy_fps, s / 4});
    capacity_point();
    rig.reset();
    std::printf("[%s] setup %.4f s (median of %zu samples of %zu set-ups; range %.4f-%.4f)\n",
                name, median(setup_s), setup_s.size(), kSetupsPerSample,
                *std::min_element(setup_s.begin(), setup_s.end()),
                *std::max_element(setup_s.begin(), setup_s.end()));
    if (udp) std::printf("[%s] gateway ingress socket buffer %d bytes\n", name, ingress_rcvbuf);
    check_point(light, result, name);
    check_point(heavy, result, name);
    const double capacity = quantile(window_fps, kCapacityQuantile);
    // The heavy point's limit: p99 within 1 ms and, when the pusher
    // stopped, no more than 1 ms of frames still in flight.
    const double in_flight_ms = static_cast<double>(heavy.in_flight_end) * 1e3 /
                                static_cast<double>(heavy.spec.rate_fps);
    std::printf("[%s] heavy point: p99 %.1f us, %.3f ms of frames in flight at the end: %s the "
                "%.0f us limit\n",
                name, heavy.p99_us, in_flight_ms,
                heavy.p99_us <= kLatencyLimitUs && in_flight_ms <= kLatencyLimitUs / 1e3
                    ? "within"
                    : "MISSES",
                kLatencyLimitUs);
    result.add("setup_s", "s", median(setup_s));
    result.add("capacity_fps", "1/s", capacity);
    result.add("p50_us.light", "us", light.p50_us);
    result.add("p99_us.light", "us", light.p99_us);
    result.add("p50_us.heavy", "us", heavy.p50_us);
    result.add("p99_us.heavy", "us", heavy.p99_us);
    result.add("cpu_frac.light", "1", light.runtime_cpu_s / light.wall_s);
    return result;
  }

  // Traced mode: the untraced saturation point first (the reference the
  // stages must add up to), then every point through the wrappers.
  rig = build_rig(udp, xml_path, options.seed, /*traced=*/false, clock);
  const std::vector<Point> plain =
      run_points({{"sat", 0, 0.25 * s}}, clock, name, [&](std::size_t) -> Rig& { return *rig; });
  rig.reset();
  auto traced = build_rig(udp, xml_path, options.seed, /*traced=*/true, clock);
  const std::vector<Point> points =
      run_points({{"light", kLightFps, 0.25 * s}, {"heavy", heavy_fps, 0.25 * s},
                  {"sat", 0, 0.25 * s}},
                 clock, name, [&](std::size_t) -> Rig& { return *traced; });
  const CodecReplay codec = replay_codec(traced->schema());
  traced.reset();
  check_point(plain[0], result, name);
  for (const Point& p : points) check_point(p, result, name);

  const Point& light = points[0];
  const Point& heavy = points[1];
  const LoopSlot& sat = points[2].loop;
  const auto frames = static_cast<double>(sat.frames);
  const double claim = ns_per(static_cast<double>(sat.poll_ns - sat.sink_ns), frames);
  const double sink = ns_per(static_cast<double>(sat.sink_ns), frames);
  const double tick = ns_per(static_cast<double>(sat.busy_ns - sat.poll_ns), frames);
  const double push = ns_per(static_cast<double>(sat.send_ns), static_cast<double>(sat.sends));
  const double egress_share = ns_per(static_cast<double>(sat.sends), frames);
  const double residual = sink - codec.matches_key_ns - codec.decode_into_ns -
                          egress_share * (codec.encode_into_ns + push);
  const double untraced = plain[0].service_ns;
  const double stages = claim + sink + tick;
  const double overhead = untraced > 0 ? stages / untraced - 1.0 : 0.0;
  // The wrappers read the clock twice per on_frame, per send and per
  // endpoint poll (two endpoints per poll_once); take that cost out
  // before holding the stages against the untraced service time.
  const double wrapper_ns =
      (2.0 + 2.0 * egress_share +
       4.0 * ns_per(static_cast<double>(sat.busy_iterations), frames)) *
      clock_read_ns(clock);
  const double gap = untraced > 0 ? (stages - wrapper_ns) / untraced - 1.0 : 0.0;
  std::printf("[%s] stages per frame: claim %.1f + on_frame %.1f + tick %.1f = %.1f ns, "
              "%.1f ns of it the wrappers' clock reads; untraced service %.1f ns; gap %.3f "
              "(tolerance %.2f)\n",
              name, claim, sink, tick, stages, wrapper_ns, untraced, gap, kStageTolerance);
  std::printf("[%s] on_frame: matches_key %.1f + decode_into %.1f + %.2f x (encode_into %.1f + "
              "push %.1f) + residual %.1f ns\n",
              name, codec.matches_key_ns, codec.decode_into_ns, egress_share,
              codec.encode_into_ns, push, residual);
  if (std::abs(gap) > kStageTolerance)
    result.error(std::string{name} + ": traced stages do not sum to the untraced service time");
  // Stage accounting: each stage is a difference of nested timings and
  // the residual subtracts replayed codec costs, so a negative one means
  // the split is wrong: a timing outside the span it should nest in, or
  // replayed codec + push costs above the on_frame time they are part of.
  for (const auto& [stage, ns] : {std::pair{"claim", claim}, std::pair{"tick", tick},
                                  std::pair{"core residual", residual}})
    if (ns < 0)
      result.error(std::string{name} + ": traced stage " + stage + " is negative (" +
                   std::to_string(ns) + " ns per frame)");

  // Fixed-rate ledgers (exact counts for a seed) over the traced run.
  rt::RuntimeStats rt_sum{};
  core::GatewayStats gw_sum{};
  double late99 = 0.0, sent_ratio = 1.0;
  for (const Point* p : {&light, &heavy}) {
    const rt::RuntimeStats& a = p->loop.rt_start;
    const rt::RuntimeStats& b = p->flush.rt_end;
    rt_sum.rx_dropped += b.rx_dropped - a.rx_dropped;
    rt_sum.tx_dropped += b.tx_dropped - a.tx_dropped;
    rt_sum.rx_unknown += b.rx_unknown - a.rx_unknown;
    rt_sum.rx_decode_errors += b.rx_decode_errors - a.rx_decode_errors;
    const core::GatewayStats& ga = p->loop.gw_start;
    const core::GatewayStats& gb = p->flush.gw_end;
    gw_sum.messages_in += gb.messages_in - ga.messages_in;
    gw_sum.messages_constructed += gb.messages_constructed - ga.messages_constructed;
    gw_sum.blocked_value += gb.blocked_value - ga.blocked_value;
    late99 = std::max(late99, p->late99.value);
    sent_ratio = std::min(sent_ratio, p->push.due > 0 ? static_cast<double>(p->push.sent) /
                                                            static_cast<double>(p->push.due)
                                                      : 0.0);
  }

  result.add("gen.late_p99_us", "us", late99);
  result.add("tail.p99_whole_us.light", "us", light.p99_whole.value);
  result.add("tail.p99_whole_us.heavy", "us", heavy.p99_whole.value);
  result.add("gen.sent_ratio", "1", sent_ratio);
  result.add("rt.claim_ns_per_frame", "ns", claim);
  result.add("rt.push_ns_per_frame", "ns", push);
  result.add("rt.batch_frames_mean", "frames",
             ns_per(frames, static_cast<double>(sat.busy_iterations)));
  result.add("rt.busy_frac", "1", points[2].busy_frac);
  result.add("rt.tick_ns", "ns", tick);
  result.add("rt.idle_gap_us_p50", "us", median(light.loop.idle_gap_us));
  result.add("rt.backlog_bytes_max", "bytes", static_cast<double>(heavy.loop.backlog_max));
  result.add("rt.rx_dropped", "count", static_cast<double>(rt_sum.rx_dropped));
  result.add("rt.tx_dropped", "count", static_cast<double>(rt_sum.tx_dropped));
  result.add("rt.rx_unknown", "count", static_cast<double>(rt_sum.rx_unknown));
  result.add("rt.decode_errors", "count", static_cast<double>(rt_sum.rx_decode_errors));
  result.add("spec.matches_key_ns", "ns", codec.matches_key_ns);
  result.add("spec.decode_into_ns", "ns", codec.decode_into_ns);
  result.add("spec.encode_into_ns", "ns", codec.encode_into_ns);
  result.add("core.residual_ns_per_frame", "ns", residual);
  result.add("core.messages_in", "count", static_cast<double>(gw_sum.messages_in));
  result.add("core.messages_constructed", "count",
             static_cast<double>(gw_sum.messages_constructed));
  result.add("core.blocked_value", "count", static_cast<double>(gw_sum.blocked_value));
  result.add("trace_overhead_frac", "1", overhead);
  return result;
}

std::vector<std::string> live_self_test(const std::string& work_dir) {
  std::vector<std::string> failures;
  const std::string xml_path = write_udp_spec(work_dir);
  for (const bool udp : {false, true}) {
    auto gw = udp ? load_udp_gateway(xml_path) : make_ring_gateway();
    for (const std::uint64_t seed : {1ull, 7ull, 12345ull}) {
      const Schema schema = make_schema(*gw, udp, seed);
      std::vector<std::byte> patched(schema.frame_size), encoded;
      for (std::uint64_t i = 0; i < 256; ++i) {
        const std::uint64_t g = mix(seed, 1000 + i) % (1u << 30);
        const auto t = static_cast<std::int64_t>(mix(seed, 5000 + i) >> 2);
        schema.stamp(patched.data(), g, t);
        const FrameValues v = schema.values(g);
        const Flow& f = schema.flows[v.flow];
        spec::MessageInstance in = spec::make_instance(*f.in);
        in.elements()[f.frame.value.element].fields[f.frame.value.field] =
            decos::ta::Value{v.value};
        in.elements()[f.frame.t.element].fields[f.frame.t.field] =
            decos::ta::Value{Instant::from_ns(t)};
        if (f.frame.seq.bytes != 0)
          in.elements()[f.frame.seq.element].fields[f.frame.seq.field] =
              decos::ta::Value{static_cast<std::int64_t>(g)};
        if (!spec::encode_into(*f.in, in, encoded).ok() || encoded != patched) {
          failures.push_back(std::string{udp ? "udp_state" : "ring_event"} +
                             ": patched template differs from spec::encode_into");
          break;
        }
        // Egress: the fixed-offset reads must return what encode wrote.
        spec::MessageInstance out = spec::make_instance(*f.out);
        out.elements()[f.egress.value.element].fields[f.egress.value.field] =
            decos::ta::Value{v.value};
        out.elements()[f.egress.t.element].fields[f.egress.t.field] =
            decos::ta::Value{Instant::from_ns(t)};
        if (f.egress.seq.bytes != 0)
          out.elements()[f.egress.seq.element].fields[f.egress.seq.field] =
              decos::ta::Value{static_cast<std::int64_t>(g)};
        if (!spec::encode_into(*f.out, out, encoded).ok() || encoded.size() != f.egress.size ||
            load_be_signed(encoded.data() + f.egress.key.offset, f.egress.key.bytes) !=
                f.egress_key ||
            load_be_signed(encoded.data() + f.egress.value.offset, f.egress.value.bytes) !=
                v.value ||
            load_be_signed(encoded.data() + f.egress.t.offset, f.egress.t.bytes) != t ||
            (f.egress.seq.bytes != 0 &&
             load_be_signed(encoded.data() + f.egress.seq.offset, f.egress.seq.bytes) !=
                 static_cast<std::int64_t>(g))) {
          failures.push_back(std::string{udp ? "udp_state" : "ring_event"} +
                             ": fixed-offset egress read differs from spec::encode_into");
          break;
        }
      }
    }
  }
  return failures;
}

}  // namespace perfbench
