#include "rt/udp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace decos::rt {

namespace {

Result<sockaddr_in> make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    return Result<sockaddr_in>::failure("not an IPv4 address: " + host);
  return addr;
}

}  // namespace

UdpEndpoint::UdpEndpoint(int fd, sockaddr_in peer, bool has_peer)
    : fd_{fd}, peer_{peer}, has_peer_{has_peer} {
  burst_storage_.resize(kMaxBurst * kMaxDatagram);
  iovecs_.resize(kMaxBurst);
#ifdef __linux__
  headers_.resize(kMaxBurst);
#endif
  for (std::size_t i = 0; i < kMaxBurst; ++i) {
    iovecs_[i].iov_base = burst_storage_.data() + i * kMaxDatagram;
    iovecs_[i].iov_len = kMaxDatagram;
  }
}

UdpEndpoint::UdpEndpoint(UdpEndpoint&& o) noexcept { *this = std::move(o); }

UdpEndpoint& UdpEndpoint::operator=(UdpEndpoint&& o) noexcept {
  if (this == &o) return *this;
  if (fd_ >= 0) ::close(fd_);
  fd_ = o.fd_;
  peer_ = o.peer_;
  has_peer_ = o.has_peer_;
  burst_storage_ = std::move(o.burst_storage_);
  iovecs_ = std::move(o.iovecs_);
#ifdef __linux__
  headers_ = std::move(o.headers_);
#endif
  // The iovecs point into burst_storage_, whose heap block moved with
  // the vector, so they stay valid.
  o.fd_ = -1;
  return *this;
}

UdpEndpoint::~UdpEndpoint() {
  if (fd_ >= 0) ::close(fd_);
}

Result<UdpEndpoint> UdpEndpoint::bind_loopback(std::uint16_t local_port, std::uint16_t peer_port) {
  return bind("127.0.0.1", local_port, peer_port != 0 ? "127.0.0.1" : "", peer_port);
}

Result<UdpEndpoint> UdpEndpoint::bind(const std::string& local_host, std::uint16_t local_port,
                                      const std::string& peer_host, std::uint16_t peer_port) {
  auto local = make_addr(local_host, local_port);
  if (!local.ok()) return local.error();
  sockaddr_in peer{};
  bool has_peer = false;
  if (!peer_host.empty()) {
    auto addr = make_addr(peer_host, peer_port);
    if (!addr.ok()) return addr.error();
    peer = addr.value();
    has_peer = true;
  }
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return Result<UdpEndpoint>::failure(std::string{"socket: "} + std::strerror(errno));
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Result<UdpEndpoint>::failure("fcntl(O_NONBLOCK): " + err);
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&local.value()), sizeof(sockaddr_in)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Result<UdpEndpoint>::failure("bind(" + local_host + ":" +
                                        std::to_string(local_port) + "): " + err);
  }
  return UdpEndpoint{fd, peer, has_peer};
}

std::uint16_t UdpEndpoint::local_port() const {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) return 0;
  return ntohs(addr.sin_port);
}

std::size_t UdpEndpoint::poll(FrameSink& sink, std::size_t max_frames) {
  std::size_t burst = max_frames < kMaxBurst ? max_frames : kMaxBurst;
  if (burst == 0) return 0;
  std::size_t delivered = 0;
#ifdef __linux__
  for (std::size_t i = 0; i < burst; ++i) {
    std::memset(&headers_[i], 0, sizeof(headers_[i]));
    headers_[i].msg_hdr.msg_iov = &iovecs_[i];
    headers_[i].msg_hdr.msg_iovlen = 1;
    if (!has_peer_ && i == 0) {
      headers_[i].msg_hdr.msg_name = &peer_;
      headers_[i].msg_hdr.msg_namelen = sizeof(peer_);
    }
  }
  const int n = ::recvmmsg(fd_, headers_.data(), static_cast<unsigned>(burst), MSG_DONTWAIT,
                           nullptr);
  if (n <= 0) return 0;
  if (!has_peer_ && headers_[0].msg_hdr.msg_namelen >= sizeof(sockaddr_in)) has_peer_ = true;
  for (int i = 0; i < n; ++i) {
    const std::size_t len = headers_[i].msg_len;
    sink.on_frame(std::span<const std::byte>(
        static_cast<const std::byte*>(iovecs_[i].iov_base), len));
  }
  delivered = static_cast<std::size_t>(n);
#else
  for (std::size_t i = 0; i < burst; ++i) {
    sockaddr_in from{};
    socklen_t from_len = sizeof(from);
    const ssize_t len =
        ::recvfrom(fd_, iovecs_[0].iov_base, kMaxDatagram, MSG_DONTWAIT,
                   reinterpret_cast<sockaddr*>(&from), &from_len);
    if (len < 0) break;
    if (!has_peer_) {
      peer_ = from;
      has_peer_ = true;
    }
    sink.on_frame(std::span<const std::byte>(
        static_cast<const std::byte*>(iovecs_[0].iov_base), static_cast<std::size_t>(len)));
    ++delivered;
  }
#endif
  return delivered;
}

bool UdpEndpoint::send(std::span<const std::byte> payload) {
  if (!has_peer_) return false;  // nowhere to send yet (peer not learned)
  const ssize_t sent =
      ::sendto(fd_, payload.data(), payload.size(), MSG_DONTWAIT,
               reinterpret_cast<const sockaddr*>(&peer_), sizeof(peer_));
  return sent == static_cast<ssize_t>(payload.size());
}

}  // namespace decos::rt
