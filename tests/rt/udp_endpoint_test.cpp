// UDP transport endpoint: loopback round trips, burst drains, peer
// learning, and the non-blocking backpressure contract. Runs entirely
// on 127.0.0.1 with kernel-assigned ports.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "rt/udp.hpp"

namespace decos::rt {
namespace {

class CollectSink final : public FrameSink {
 public:
  void on_frame(std::span<const std::byte> payload) override {
    frames.emplace_back(payload.begin(), payload.end());
  }
  std::vector<std::vector<std::byte>> frames;
};

std::vector<std::byte> frame_of(std::size_t size, std::uint8_t fill) {
  return std::vector<std::byte>(size, std::byte{fill});
}

/// Drain `ep` until `want` frames arrived or ~1 s passed (datagrams on
/// loopback are fast but not synchronous). Returns the frame count the
/// poll() calls reported.
std::size_t poll_until(UdpEndpoint& ep, CollectSink& sink, std::size_t want) {
  std::size_t polled = 0;
  for (int spin = 0; spin < 100'000 && sink.frames.size() < want; ++spin)
    polled += ep.poll(sink, 64);
  return polled;
}

TEST(UdpEndpoint, LoopbackRoundTrip) {
  auto a = UdpEndpoint::bind_loopback(0);
  ASSERT_TRUE(a.ok()) << a.error().to_string();
  auto b = UdpEndpoint::bind_loopback(0, a.value().local_port());
  ASSERT_TRUE(b.ok()) << b.error().to_string();

  ASSERT_TRUE(b.value().send(frame_of(48, 0x5a))) << "send() reports the transmitted frame";
  CollectSink sink;
  const std::size_t polled = poll_until(a.value(), sink, 1);
  ASSERT_EQ(sink.frames.size(), 1u);
  EXPECT_EQ(sink.frames[0], frame_of(48, 0x5a));
  EXPECT_EQ(polled, 1u) << "poll() reports each delivered frame";
}

TEST(UdpEndpoint, LearnsPeerFromFirstDatagramAndReplies) {
  auto gw = UdpEndpoint::bind_loopback(0);  // no fixed peer
  ASSERT_TRUE(gw.ok()) << gw.error().to_string();
  EXPECT_FALSE(gw.value().has_peer());

  // Sending before any peer is known cannot block; it drops, and
  // send() says so (the caller counts the drop).
  EXPECT_FALSE(gw.value().send(frame_of(8, 0x01)));

  auto client = UdpEndpoint::bind_loopback(0, gw.value().local_port());
  ASSERT_TRUE(client.ok()) << client.error().to_string();
  ASSERT_TRUE(client.value().send(frame_of(8, 0x02)));
  CollectSink gw_sink;
  poll_until(gw.value(), gw_sink, 1);
  ASSERT_EQ(gw_sink.frames.size(), 1u);
  EXPECT_TRUE(gw.value().has_peer());

  // Now the reply path works: gateway -> learned client address.
  ASSERT_TRUE(gw.value().send(frame_of(8, 0x03)));
  CollectSink client_sink;
  poll_until(client.value(), client_sink, 1);
  ASSERT_EQ(client_sink.frames.size(), 1u);
  EXPECT_EQ(client_sink.frames[0], frame_of(8, 0x03));
}

TEST(UdpEndpoint, BurstDrainDeliversManyPerPoll) {
  auto rx = UdpEndpoint::bind_loopback(0);
  ASSERT_TRUE(rx.ok()) << rx.error().to_string();
  auto tx = UdpEndpoint::bind_loopback(0, rx.value().local_port());
  ASSERT_TRUE(tx.ok()) << tx.error().to_string();

  constexpr std::size_t kFrames = 32;
  for (std::size_t i = 0; i < kFrames; ++i)
    ASSERT_TRUE(tx.value().send(frame_of(16 + i, static_cast<std::uint8_t>(i))));

  CollectSink sink;
  poll_until(rx.value(), sink, kFrames);
  ASSERT_EQ(sink.frames.size(), kFrames);
  for (std::size_t i = 0; i < kFrames; ++i)
    EXPECT_EQ(sink.frames[i], frame_of(16 + i, static_cast<std::uint8_t>(i))) << i;
}

TEST(UdpEndpoint, PollHonorsMaxFrames) {
  auto rx = UdpEndpoint::bind_loopback(0);
  ASSERT_TRUE(rx.ok()) << rx.error().to_string();
  auto tx = UdpEndpoint::bind_loopback(0, rx.value().local_port());
  ASSERT_TRUE(tx.ok()) << tx.error().to_string();

  for (int i = 0; i < 10; ++i) ASSERT_TRUE(tx.value().send(frame_of(8, 0x77)));
  CollectSink sink;
  // Allow delivery, then claim at most 4.
  for (int spin = 0; spin < 100'000 && sink.frames.empty(); ++spin) rx.value().poll(sink, 4);
  EXPECT_LE(sink.frames.size(), 4u);
  poll_until(rx.value(), sink, 10);
  EXPECT_EQ(sink.frames.size(), 10u);
}

TEST(UdpEndpoint, RejectsBadAddress) {
  EXPECT_FALSE(UdpEndpoint::bind("not-an-address", 0, "", 0).ok());
  EXPECT_FALSE(UdpEndpoint::bind("127.0.0.1", 0, "also-bad", 9).ok());
}

}  // namespace
}  // namespace decos::rt
