// Non-blocking UDP transport endpoint (S30).
//
// One datagram carries one message frame. The socket is opened
// non-blocking; poll() drains a burst with a single recvmmsg() call on
// Linux (one syscall for up to the batch size, the socket-side analogue
// of the ring's run-length claim) and falls back to a recvfrom() loop
// elsewhere. send() never blocks: EWOULDBLOCK/ENOBUFS returns false --
// same backpressure contract as the ring endpoint.
//
// The peer address is either configured up front (connect-style) or
// learned from the first received datagram (reply-to-sender mode), so a
// loopback test needs no address plumbing.
#pragma once

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/uio.h>

#include <cstdint>
#include <string>
#include <vector>

#include "rt/endpoint.hpp"
#include "util/result.hpp"

namespace decos::rt {

class UdpEndpoint final : public Endpoint {
 public:
  /// Datagrams larger than this are truncated by the kernel; generous
  /// for the fixed-layout message codec (frames are tens of bytes).
  static constexpr std::size_t kMaxDatagram = 2048;
  /// Upper bound on one recvmmsg burst; poll() clamps to it.
  static constexpr std::size_t kMaxBurst = 64;

  /// Bind to 127.0.0.1:`local_port` (0 = kernel-assigned). If
  /// `peer_port` != 0 the peer is fixed to 127.0.0.1:`peer_port`,
  /// otherwise it is learned from the first received datagram.
  static Result<UdpEndpoint> bind_loopback(std::uint16_t local_port, std::uint16_t peer_port = 0);

  /// General form: bind to `local_host`:`local_port`; optional fixed
  /// peer `peer_host`:`peer_port` (empty host = learn from traffic).
  static Result<UdpEndpoint> bind(const std::string& local_host, std::uint16_t local_port,
                                  const std::string& peer_host, std::uint16_t peer_port);

  UdpEndpoint(UdpEndpoint&& o) noexcept;
  UdpEndpoint& operator=(UdpEndpoint&& o) noexcept;
  UdpEndpoint(const UdpEndpoint&) = delete;
  UdpEndpoint& operator=(const UdpEndpoint&) = delete;
  ~UdpEndpoint() override;

  std::size_t poll(FrameSink& sink, std::size_t max_frames) override;
  bool send(std::span<const std::byte> payload) override;
  const char* kind() const override { return "udp"; }

  /// The locally bound port (resolves kernel-assigned port 0).
  std::uint16_t local_port() const;
  bool has_peer() const { return has_peer_; }

 private:
  UdpEndpoint(int fd, sockaddr_in peer, bool has_peer);

  int fd_ = -1;
  sockaddr_in peer_{};
  bool has_peer_ = false;
  // Warmed burst-receive scratch: one buffer + iovec + mmsghdr per
  // burst slot, allocated once at construction.
  std::vector<std::byte> burst_storage_;
  std::vector<iovec> iovecs_;
#ifdef __linux__
  std::vector<struct mmsghdr> headers_;
#endif
};

}  // namespace decos::rt
