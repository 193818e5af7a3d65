// SPSC ring unit tests: frame round trips, wrap-around via the marker
// path, full/empty boundaries, run-length claim limits, the consumer's
// checks against a hostile producer, and the ShmRing create/open
// lifecycle.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "rt/ring.hpp"

namespace decos::rt {
namespace {

std::vector<std::byte> frame_of(std::size_t size, std::uint8_t fill) {
  return std::vector<std::byte>(size, std::byte{fill});
}

std::vector<std::vector<std::byte>> drain(SpscRing& ring, std::size_t max = 1024) {
  std::vector<std::vector<std::byte>> frames;
  ring.consume(max, [&](std::span<const std::byte> payload) {
    frames.emplace_back(payload.begin(), payload.end());
  });
  return frames;
}

TEST(SpscRing, RoundTripsFramesInOrder) {
  SpscRing ring{4096};
  EXPECT_TRUE(ring.empty());
  EXPECT_TRUE(ring.try_push(frame_of(10, 0xaa)));
  EXPECT_TRUE(ring.try_push(frame_of(1, 0xbb)));
  EXPECT_TRUE(ring.try_push(frame_of(333, 0xcc)));
  EXPECT_FALSE(ring.empty());

  const auto frames = drain(ring);
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0], frame_of(10, 0xaa));
  EXPECT_EQ(frames[1], frame_of(1, 0xbb));
  EXPECT_EQ(frames[2], frame_of(333, 0xcc));
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.drops(), 0u);
}

TEST(SpscRing, EmptyConsumeDeliversNothing) {
  SpscRing ring{4096};
  EXPECT_EQ(drain(ring).size(), 0u);
}

TEST(SpscRing, ZeroLengthFramesAreFrames) {
  SpscRing ring{4096};
  EXPECT_TRUE(ring.try_push({}));
  EXPECT_TRUE(ring.try_push(frame_of(5, 0x11)));
  const auto frames = drain(ring);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_TRUE(frames[0].empty());
  EXPECT_EQ(frames[1].size(), 5u);
}

TEST(SpscRing, WrapAroundPreservesFrames) {
  // Frame sizes chosen so the cursor repeatedly lands near the end of
  // the 4 KiB data area and the wrap-marker path runs many times.
  SpscRing ring{4096};
  std::uint8_t fill = 0;
  for (int round = 0; round < 200; ++round) {
    const std::size_t size = 100 + (round * 37) % 500;
    ASSERT_TRUE(ring.try_push(frame_of(size, fill))) << "round " << round;
    const auto frames = drain(ring);
    ASSERT_EQ(frames.size(), 1u) << "round " << round;
    EXPECT_EQ(frames[0], frame_of(size, fill)) << "round " << round;
    ++fill;
  }
  EXPECT_EQ(ring.drops(), 0u);
}

TEST(SpscRing, FullRingDropsAndCounts) {
  SpscRing ring{4096};
  std::size_t pushed = 0;
  while (ring.try_push(frame_of(500, 0x42))) ++pushed;
  EXPECT_GT(pushed, 0u);
  EXPECT_EQ(ring.drops(), 1u);
  EXPECT_FALSE(ring.try_push(frame_of(500, 0x42)));
  EXPECT_EQ(ring.drops(), 2u);

  // Draining frees the space again.
  EXPECT_EQ(drain(ring).size(), pushed);
  EXPECT_TRUE(ring.try_push(frame_of(500, 0x43)));
}

TEST(SpscRing, OversizePayloadRejected) {
  SpscRing ring{4096};
  EXPECT_FALSE(ring.try_push(frame_of(ring.max_payload() + 1, 0x01)));
  EXPECT_EQ(ring.drops(), 1u);
  EXPECT_TRUE(ring.try_push(frame_of(ring.max_payload(), 0x02)));
}

TEST(SpscRing, ConsumeHonorsMaxFrames) {
  SpscRing ring{8192};
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(ring.try_push(frame_of(16, 0x55)));
  std::size_t seen = 0;
  EXPECT_EQ(ring.consume(3, [&](std::span<const std::byte>) { ++seen; }), 3u);
  EXPECT_EQ(seen, 3u);
  EXPECT_EQ(drain(ring).size(), 7u);
}

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing::round_capacity(1), SpscRing::kMinCapacity);
  EXPECT_EQ(SpscRing::round_capacity(4096), 4096u);
  EXPECT_EQ(SpscRing::round_capacity(4097), 8192u);
  EXPECT_EQ(SpscRing::round_capacity(1 << 20), std::size_t{1} << 20);
}

// A 4096-byte ring over an exactly-sized heap region, with the header
// exposed: a hostile producer process can write any cursor or byte, and
// a read past the region is a heap overflow the sanitizer build reports.
struct HostileRing {
  static constexpr std::size_t kCapacity = 4096;
  struct alignas(64) Region {
    std::byte bytes[sizeof(RingHeader) + kCapacity];
  };
  std::unique_ptr<Region> region = std::make_unique<Region>();
  SpscRing ring{region->bytes, sizeof(Region::bytes), /*init=*/true};

  RingHeader& header() { return *reinterpret_cast<RingHeader*>(region->bytes); }
  void write_u32(std::size_t offset, std::uint32_t value) {
    std::memcpy(region->bytes + sizeof(RingHeader) + offset, &value, sizeof(value));
  }
};

TEST(SpscRingHostile, HugeLengthPoisonsWithoutReading) {
  HostileRing h;
  h.write_u32(0, 1u << 20);  // len = 1 MiB at offset 0
  h.header().tail.store(16);
  EXPECT_EQ(drain(h.ring).size(), 0u);
  EXPECT_TRUE(h.ring.poisoned());
  EXPECT_EQ(h.header().head.load(), 0u);
}

TEST(SpscRingHostile, FrameCrossingTheRegionEndPoisons) {
  HostileRing h;
  // A 64-byte frame at offset 4080: its bytes would run 56 bytes past
  // the data area. Producers never split a frame across the end.
  h.header().head.store(HostileRing::kCapacity - 16);
  h.write_u32(HostileRing::kCapacity - 16, 64);
  h.header().tail.store(HostileRing::kCapacity - 16 + SpscRing::framed_size(64));
  EXPECT_EQ(drain(h.ring).size(), 0u);
  EXPECT_TRUE(h.ring.poisoned());
  EXPECT_EQ(h.header().head.load(), HostileRing::kCapacity - 16);
}

TEST(SpscRingHostile, BadFrameAfterGoodOnesKeepsHeadAtTheLastGoodFrame) {
  HostileRing h;
  ASSERT_TRUE(h.ring.try_push(frame_of(24, 0x11)));
  ASSERT_TRUE(h.ring.try_push(frame_of(40, 0x22)));
  const std::uint64_t good_end = h.header().tail.load();
  // A third frame claims more bytes than were published.
  h.write_u32(good_end, 200);
  h.header().tail.store(good_end + 16);
  const auto frames = drain(h.ring);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[1], frame_of(40, 0x22));
  EXPECT_TRUE(h.ring.poisoned());
  EXPECT_EQ(h.header().head.load(), good_end);
}

TEST(SpscRingHostile, TailBehindHeadPoisons) {
  HostileRing h;
  h.header().head.store(64);
  h.header().tail.store(32);
  EXPECT_EQ(drain(h.ring).size(), 0u);
  EXPECT_TRUE(h.ring.poisoned());
  EXPECT_EQ(h.header().head.load(), 64u);
}

TEST(SpscRingHostile, WrapMarkerPastTailPoisons) {
  HostileRing h;
  h.write_u32(0, SpscRing::kWrapMarker);  // claims the whole ring is gap
  h.header().tail.store(16);
  EXPECT_EQ(drain(h.ring).size(), 0u);
  EXPECT_TRUE(h.ring.poisoned());
  EXPECT_EQ(h.header().head.load(), 0u);
}

TEST(SpscRingHostile, PoisonedRingDeliversNothingAgain) {
  HostileRing h;
  h.header().tail.store(HostileRing::kCapacity + 8);  // run longer than the ring
  EXPECT_EQ(drain(h.ring).size(), 0u);
  ASSERT_TRUE(h.ring.poisoned());
  // Even once the producer looks honest again, the consumer stays shut.
  h.header().tail.store(0);
  ASSERT_TRUE(h.ring.try_push(frame_of(8, 0x01)));
  EXPECT_EQ(drain(h.ring).size(), 0u);
}

TEST(ShmRing, CreateOpenRoundTrip) {
  const std::string name = "/decos_rt_ring_test_" + std::to_string(::getpid());
  auto created = ShmRing::create(name, 8192);
  ASSERT_TRUE(created.ok()) << created.error().to_string();
  auto opened = ShmRing::open(name);
  ASSERT_TRUE(opened.ok()) << opened.error().to_string();

  // Producer through the creator's mapping, consumer through the
  // opener's: the cursors live in the shared region.
  ASSERT_TRUE(created.value().ring().try_push(frame_of(64, 0x7e)));
  const auto frames = drain(opened.value().ring());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0], frame_of(64, 0x7e));
}

TEST(ShmRing, OpenMissingObjectFails) {
  auto opened = ShmRing::open("/decos_rt_ring_never_created");
  EXPECT_FALSE(opened.ok());
}

TEST(ShmRing, CreatorUnlinksOnDestruction) {
  const std::string name = "/decos_rt_ring_unlink_" + std::to_string(::getpid());
  {
    auto created = ShmRing::create(name, 4096);
    ASSERT_TRUE(created.ok()) << created.error().to_string();
  }
  EXPECT_FALSE(ShmRing::open(name).ok());
}

}  // namespace
}  // namespace decos::rt
