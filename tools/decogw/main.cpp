// decogw -- live virtual-gateway runtime (S30).
//
// Loads a <gatewayspec> deployment, attaches a byte transport to each
// link side (lock-free shared-memory rings or non-blocking UDP
// sockets) and runs the compiled gateway path against real frames on
// host time: ingress bursts -> warmed decode -> admission -> repository
// -> batched dispatch -> construct -> zero-copy egress encode.
//
// Transports (per side):
//   shm:<name>   create /dev/shm SPSC rings <name>.in (peer -> gateway)
//                and <name>.out (gateway -> peer); peers open them with
//                rt::ShmRing::open. Capacity set by --ring-capacity.
//   udp:<port>[:<peerhost>:<peerport>]
//                bind a non-blocking UDP socket on <port>; without an
//                explicit peer the first sender is learned as the
//                egress destination.
//
// Before starting, the deployment is linted with the live-runtime
// transport context (rule DL011): event queues provisioned deeper than
// the ingress ring can buffer are reported, because such bursts drop at
// the transport before admission ever sees them.
//
// Exit status: 0 = clean shutdown (duration elapsed or SIGINT),
// 2 = usage / IO / spec failure.
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/gateway_lint.hpp"
#include "core/gateway_xml.hpp"
#include "lint/lint.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "rt/gateway_runtime.hpp"
#include "rt/ring.hpp"
#include "rt/udp.hpp"

namespace {

using namespace decos;

constexpr const char* kUsage =
    "usage: decogw [options] <gatewayspec.xml>\n"
    "\n"
    "Runs a virtual gateway live on host time, bridging the byte\n"
    "transports attached to its two link sides.\n"
    "\n"
    "  --side-a <transport>   transport for link side 0 (see below)\n"
    "  --side-b <transport>   transport for link side 1\n"
    "  --ring-capacity <B>    shm ring capacity in bytes (default 1048576);\n"
    "                         also the DL011 lint context\n"
    "  --duration <seconds>   run this long, then exit (default: until SIGINT)\n"
    "  --stats-interval <s>   print runtime counters every s seconds\n"
    "                         (default 1, 0 = off)\n"
    "  --telemetry-out <file> stream S27 windowed telemetry (JSONL) to a\n"
    "                         file; watch it live with decomon --watch\n"
    "  --max-batch <n>        frames drained per endpoint per iteration\n"
    "                         (default 64)\n"
    "  --quiet                suppress periodic stats\n"
    "\n"
    "transports:\n"
    "  shm:<name>             create SPSC rings <name>.in / <name>.out\n"
    "  udp:<port>[:<peerhost>:<peerport>]\n"
    "                         bind UDP <port>; peer learned from first\n"
    "                         datagram when not given\n";

volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }

struct Options {
  std::string spec_path;
  std::string side[2];
  std::size_t ring_capacity = 1 << 20;
  double duration = 0;        // 0 = run until SIGINT
  double stats_interval = 1;  // seconds, 0 = off
  std::string telemetry_out;
  std::size_t max_batch = 64;
  bool quiet = false;
};

/// One attached transport, whichever kind it is. Rings are created (and
/// unlinked at exit) by this process; peers open them by name.
struct Transport {
  std::unique_ptr<rt::ShmRing> rx, tx;
  std::unique_ptr<rt::UdpEndpoint> udp;
  std::unique_ptr<rt::RingEndpoint> ring_endpoint;

  rt::Endpoint* endpoint() {
    if (udp != nullptr) return udp.get();
    return ring_endpoint.get();
  }
};

bool parse_positive(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end != nullptr && *end == '\0' && out >= 0;
}

bool parse_bytes(const char* text, std::size_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == nullptr || *end != '\0' || v == 0) return false;
  out = static_cast<std::size_t>(v);
  return true;
}

/// Build the transport a `shm:...` / `udp:...` descriptor names.
int make_transport(const std::string& descriptor, const char* side_name,
                   std::size_t ring_capacity, Transport& out) {
  if (descriptor.rfind("shm:", 0) == 0) {
    const std::string name = descriptor.substr(4);
    if (name.empty()) {
      std::cerr << "decogw: " << side_name << ": shm transport needs a name\n";
      return 2;
    }
    auto rx = rt::ShmRing::create(name + ".in", ring_capacity);
    if (!rx.ok()) {
      std::cerr << "decogw: " << side_name << ": " << rx.error().to_string() << "\n";
      return 2;
    }
    auto tx = rt::ShmRing::create(name + ".out", ring_capacity);
    if (!tx.ok()) {
      std::cerr << "decogw: " << side_name << ": " << tx.error().to_string() << "\n";
      return 2;
    }
    out.rx = std::make_unique<rt::ShmRing>(std::move(rx.value()));
    out.tx = std::make_unique<rt::ShmRing>(std::move(tx.value()));
    out.ring_endpoint = std::make_unique<rt::RingEndpoint>(out.rx->ring(), out.tx->ring());
    return 0;
  }
  if (descriptor.rfind("udp:", 0) == 0) {
    const std::string rest = descriptor.substr(4);
    const std::size_t colon = rest.find(':');
    const std::string port_text = rest.substr(0, colon);
    std::string peer_host;
    std::uint16_t peer_port = 0;
    if (colon != std::string::npos) {
      const std::string peer = rest.substr(colon + 1);
      const std::size_t peer_colon = peer.rfind(':');
      if (peer_colon == std::string::npos) {
        std::cerr << "decogw: " << side_name << ": udp peer needs host:port\n";
        return 2;
      }
      peer_host = peer.substr(0, peer_colon);
      peer_port = static_cast<std::uint16_t>(std::atoi(peer.c_str() + peer_colon + 1));
    }
    const int local_port = std::atoi(port_text.c_str());
    if (local_port <= 0 || local_port > 65535) {
      std::cerr << "decogw: " << side_name << ": bad udp port '" << port_text << "'\n";
      return 2;
    }
    auto ep = rt::UdpEndpoint::bind("0.0.0.0", static_cast<std::uint16_t>(local_port),
                                    peer_host, peer_port);
    if (!ep.ok()) {
      std::cerr << "decogw: " << side_name << ": " << ep.error().to_string() << "\n";
      return 2;
    }
    out.udp = std::make_unique<rt::UdpEndpoint>(std::move(ep.value()));
    return 0;
  }
  std::cerr << "decogw: " << side_name << ": unknown transport '" << descriptor
            << "' (expected shm:<name> or udp:<port>[:<host>:<port>])\n";
  return 2;
}

void print_stats(const rt::GatewayRuntime& runtime, double elapsed_s) {
  const rt::RuntimeStats s = runtime.stats();
  std::cout << "[decogw " << elapsed_s << "s] rx=" << s.rx_frames << " tx=" << s.tx_frames
            << " dispatches=" << s.dispatches << " rx_unknown=" << s.rx_unknown
            << " rx_decode_err=" << s.rx_decode_errors << " queue_drops=" << s.rx_dropped
            << " tx_drops=" << s.tx_dropped << "\n";
  for (const rt::FlowStats& flow : runtime.flow_stats()) {
    std::cout << "  side " << flow.side << " '" << flow.message << "' ("
              << (flow.is_event ? "event" : "state") << "): frames=" << flow.frames
              << " drops=" << flow.drops << " decode_err=" << flow.decode_errors << "\n";
  }
  std::cout.flush();
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "decogw: " << flag << " needs an argument\n" << kUsage;
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    } else if (arg == "--side-a" || arg == "--side-b") {
      const char* value = need_value(arg.c_str());
      if (value == nullptr) return 2;
      options.side[arg == "--side-b" ? 1 : 0] = value;
    } else if (arg == "--ring-capacity") {
      const char* value = need_value("--ring-capacity");
      if (value == nullptr || !parse_bytes(value, options.ring_capacity)) {
        std::cerr << "decogw: --ring-capacity needs a positive byte count\n";
        return 2;
      }
    } else if (arg == "--duration") {
      const char* value = need_value("--duration");
      if (value == nullptr || !parse_positive(value, options.duration)) {
        std::cerr << "decogw: --duration needs a non-negative number of seconds\n";
        return 2;
      }
    } else if (arg == "--stats-interval") {
      const char* value = need_value("--stats-interval");
      if (value == nullptr || !parse_positive(value, options.stats_interval)) {
        std::cerr << "decogw: --stats-interval needs a non-negative number of seconds\n";
        return 2;
      }
    } else if (arg == "--telemetry-out") {
      const char* value = need_value("--telemetry-out");
      if (value == nullptr) return 2;
      options.telemetry_out = value;
    } else if (arg == "--max-batch") {
      const char* value = need_value("--max-batch");
      if (value == nullptr || !parse_bytes(value, options.max_batch)) {
        std::cerr << "decogw: --max-batch needs a positive count\n";
        return 2;
      }
    } else if (arg == "--quiet" || arg == "-q") {
      options.quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "decogw: unknown option '" << arg << "'\n" << kUsage;
      return 2;
    } else if (options.spec_path.empty()) {
      options.spec_path = arg;
    } else {
      std::cerr << "decogw: exactly one gatewayspec expected\n" << kUsage;
      return 2;
    }
  }
  if (options.spec_path.empty()) {
    std::cerr << kUsage;
    return 2;
  }
  if (options.side[0].empty() && options.side[1].empty()) {
    std::cerr << "decogw: at least one of --side-a / --side-b is required\n" << kUsage;
    return 2;
  }

  // Load the deployment document once: the same doc feeds the runtime
  // gateway and the DL011 pre-start lint.
  auto doc = core::load_gateway_doc(options.spec_path);
  if (!doc.ok()) {
    std::cerr << "decogw: " << options.spec_path << ": " << doc.error().to_string() << "\n";
    return 2;
  }

  lint::GatewayModel model = core::make_lint_model(doc.value());
  model.transport_ring_bytes = options.ring_capacity;
  const lint::Report lint_report = lint::lint_gateway_local(model);
  for (const auto& d : lint_report.diagnostics()) {
    if (d.rule == lint::kRuleRingCapacity)
      std::cerr << "decogw: " << options.spec_path << ": " << d.to_string() << "\n";
  }

  auto gateway = core::build_gateway(doc.value());
  if (!gateway.ok()) {
    std::cerr << "decogw: " << options.spec_path << ": " << gateway.error().to_string() << "\n";
    return 2;
  }
  gateway.value()->trace().set_enabled(false);

  rt::MonotonicClock clock;
  rt::RuntimeConfig config;
  config.max_batch = options.max_batch;
  rt::GatewayRuntime runtime{*gateway.value(), clock, config};

  Transport transports[2];
  for (int side = 0; side < 2; ++side) {
    if (options.side[side].empty()) continue;
    const char* name = side == 0 ? "--side-a" : "--side-b";
    if (const int rc =
            make_transport(options.side[side], name, options.ring_capacity, transports[side]);
        rc != 0)
      return rc;
    runtime.attach(side, *transports[side].endpoint());
  }

  obs::MetricsRegistry metrics;
  runtime.bind_observability(metrics);

  std::ofstream telemetry_file;
  std::unique_ptr<obs::OstreamTelemetrySink> telemetry_sink;
  std::unique_ptr<obs::WindowAggregator> aggregator;
  if (!options.telemetry_out.empty()) {
    telemetry_file.open(options.telemetry_out);
    if (!telemetry_file) {
      std::cerr << "decogw: cannot open " << options.telemetry_out << "\n";
      return 2;
    }
    obs::TelemetryConfig tconfig;
    tconfig.window = Duration::milliseconds(100);
    tconfig.timeline = obs::TelemetryTimeline::kHost;
    aggregator = std::make_unique<obs::WindowAggregator>(&metrics, nullptr, tconfig);
    telemetry_sink = std::make_unique<obs::OstreamTelemetrySink>(telemetry_file);
    aggregator->set_sink(telemetry_sink.get());
    aggregator->begin_stream("decogw:" + gateway.value()->name());
    runtime.set_telemetry(aggregator.get());
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  runtime.start();

  if (!options.quiet) {
    std::cout << "decogw: gateway '" << gateway.value()->name() << "' running";
    for (int side = 0; side < 2; ++side)
      if (!options.side[side].empty())
        std::cout << (side == 0 ? "  A=" : "  B=") << options.side[side];
    std::cout << "\n";
    std::cout.flush();
  }

  // Single-threaded poll loop: no locking against the stats printer,
  // deterministic shutdown, and SIGINT only flips a flag.
  const Instant start = clock.now();
  const Duration idle = rt::RuntimeConfig{}.idle_sleep;
  Instant next_stats = start + Duration::seconds(1);
  const bool show_stats = !options.quiet && options.stats_interval > 0;
  const auto stats_period =
      Duration::nanoseconds(static_cast<std::int64_t>(options.stats_interval * 1e9));
  while (g_stop == 0) {
    const Instant now = clock.now();
    if (options.duration > 0 && (now - start).as_seconds() >= options.duration) break;
    const std::size_t moved = runtime.poll_once(now);
    if (moved == 0)
      std::this_thread::sleep_for(std::chrono::nanoseconds(idle.ns()));
    if (show_stats && now >= next_stats) {
      print_stats(runtime, (now - start).as_seconds());
      next_stats = now + stats_period;
    }
  }

  if (aggregator != nullptr) aggregator->flush();
  if (!options.quiet) print_stats(runtime, (clock.now() - start).as_seconds());
  return 0;
}
