// The two live-runtime workloads (ring_event, udp_state): a gateway
// hosted on rt::GatewayRuntime as decogw hosts it, driven open-loop by a
// pinned pusher thread and drained by a pinned egress thread.
#pragma once

#include <string>
#include <vector>

#include "support.hpp"

namespace perfbench {

/// True for the workload names run_live() accepts.
bool is_live_workload(const std::string& workload);

/// Run one live workload: set-up, the light and heavy fixed-rate points
/// and the saturation point; with options.trace, the untraced
/// saturation point and then every point again through the timing
/// wrappers. Spec files it generates go to `work_dir`.
RunResult run_live(const Options& options, const std::string& work_dir);

/// Generator shortcut self-test over both live workloads' messages:
/// patched templates must equal spec::encode_into byte for byte and
/// fixed-offset egress reads must equal the encoded values. Returns the
/// failures (empty = pass).
std::vector<std::string> live_self_test(const std::string& work_dir);

}  // namespace perfbench
