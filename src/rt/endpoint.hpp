// Transport endpoints for the live gateway runtime (S30).
//
// An Endpoint is one side's byte-frame attachment point: the runtime
// drains ingress frames from it in batches and pushes egress frames into
// it. Two transports implement the interface -- SPSC shared-memory rings
// (RingEndpoint, in-process or cross-process via ShmRing) and
// non-blocking UDP sockets (UdpEndpoint, udp.hpp). Both are non-blocking
// on both directions; a transmit that cannot complete returns false
// instead of stalling the gateway loop. Endpoints keep no counters: the
// runtime counts every frame outcome once, from these return values.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "rt/ring.hpp"

namespace decos::rt {

/// Receiver of drained ingress frames. A virtual interface (not
/// std::function) so per-frame delivery stays allocation-free.
class FrameSink {
 public:
  virtual ~FrameSink() = default;
  /// `payload` aliases transport storage; valid only during the call.
  virtual void on_frame(std::span<const std::byte> payload) = 0;
};

class Endpoint {
 public:
  virtual ~Endpoint() = default;

  /// Drain up to `max_frames` pending ingress frames into `sink`.
  /// Returns the number delivered (0 = nothing pending).
  virtual std::size_t poll(FrameSink& sink, std::size_t max_frames) = 0;

  /// Transmit one egress frame. False = transport backpressure (ring
  /// full / EWOULDBLOCK / no peer yet); the frame is dropped, and the
  /// caller counts it (the runtime's egress policy).
  virtual bool send(std::span<const std::byte> payload) = 0;

  /// Ingress frames queued but not yet drained (best effort; rings
  /// report bytes-derived estimates, sockets report 0).
  virtual std::size_t backlog() const { return 0; }

  virtual const char* kind() const = 0;
};

/// Endpoint over a pair of SPSC rings: `rx` carries peer->gateway
/// frames (the runtime is the consumer), `tx` carries gateway->peer
/// frames (the runtime is the producer). The rings are borrowed -- the
/// bench owns in-process rings, decogw owns ShmRing mappings.
class RingEndpoint final : public Endpoint {
 public:
  RingEndpoint(SpscRing& rx, SpscRing& tx) : rx_{&rx}, tx_{&tx} {}

  std::size_t poll(FrameSink& sink, std::size_t max_frames) override {
    return rx_->consume(max_frames,
                        [&](std::span<const std::byte> payload) { sink.on_frame(payload); });
  }

  bool send(std::span<const std::byte> payload) override { return tx_->try_push(payload); }

  std::size_t backlog() const override { return rx_->readable_bytes(); }
  const char* kind() const override { return "ring"; }

  SpscRing& rx() { return *rx_; }
  SpscRing& tx() { return *tx_; }

 private:
  SpscRing* rx_;
  SpscRing* tx_;
};

}  // namespace decos::rt
