// Lock-free SPSC byte-frame ring: the runtime's shared-memory transport.
//
// One producer thread (or process) pushes length-prefixed frames; one
// consumer drains them. Cursors are free-running 64-bit byte offsets
// (head = consumer, tail = producer) reduced modulo the power-of-two
// capacity, so full/empty never needs a spare slot and wrap-around is a
// mask. Frames are 8-byte aligned and never split across the wrap: when
// the contiguous space at the end is too small the producer writes a
// wrap marker and continues at offset 0.
//
// Synchronisation is the classic SPSC pair: the producer publishes
// payload bytes with a release store of `tail`; the consumer claims the
// whole published run with one acquire load of `tail`, processes every
// frame in it without further atomics, and retires the run with one
// release store of `head` (the "run-length claim" the batched runtime
// drains ride on). The producer never blocks: a full ring counts a drop
// and returns false -- backpressure is visible, not silent.
//
// The cursor block lives at the start of the region, so the same layout
// works over private heap memory (in-process benches/tests) and over a
// shm_open mapping shared between processes (ShmRing below).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>

#include "rt/framing.hpp"
#include "util/result.hpp"

namespace decos::rt {

/// Control block at the head of every ring region. 64-byte alignment
/// keeps the producer- and consumer-written cursors on separate cache
/// lines (no false sharing between the two sides).
struct RingHeader {
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint64_t capacity = 0;  // data bytes, power of two
  alignas(64) std::atomic<std::uint64_t> tail{0};   // producer cursor
  alignas(64) std::atomic<std::uint64_t> head{0};   // consumer cursor
  alignas(64) std::atomic<std::uint64_t> drops{0};  // producer-side full/oversize rejections
};
static_assert(std::is_trivially_destructible_v<RingHeader>);

class SpscRing {
 public:
  static constexpr std::uint32_t kMagic = 0x44435247;  // "DCRG"
  static constexpr std::uint32_t kVersion = 1;
  static constexpr std::size_t kFrameAlign = framing::kFrameAlign;
  static constexpr std::uint32_t kWrapMarker = 0xffffffffu;
  static constexpr std::size_t kMinCapacity = framing::kMinCapacity;

  /// Bytes a frame of `payload` bytes occupies in the ring.
  static constexpr std::size_t framed_size(std::size_t payload) {
    return framing::framed_size(payload);
  }

  /// Smallest valid capacity >= `bytes` (power of two, >= kMinCapacity).
  static constexpr std::size_t round_capacity(std::size_t bytes) {
    return framing::round_capacity(bytes);
  }

  /// Region bytes needed for a ring of `capacity` data bytes.
  static std::size_t region_size(std::size_t capacity) { return sizeof(RingHeader) + capacity; }

  /// In-process ring owning its storage. `capacity_bytes` is rounded up
  /// via round_capacity().
  explicit SpscRing(std::size_t capacity_bytes);

  /// Ring over an external region of `region_bytes` (e.g. a shared
  /// mapping). `init` formats the header (creator side); otherwise the
  /// header is validated against magic/version/capacity.
  SpscRing(void* region, std::size_t region_bytes, bool init);

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;
  SpscRing(SpscRing&& o) noexcept { move_from(o); }
  SpscRing& operator=(SpscRing&& o) noexcept {
    if (this != &o) move_from(o);
    return *this;
  }

  bool valid() const { return header_ != nullptr; }
  std::size_t capacity() const { return capacity_; }
  /// Largest single payload accepted (framing::max_payload).
  std::size_t max_payload() const { return framing::max_payload(capacity_); }

  /// Producer side. False = ring full or payload oversize; both count a
  /// drop (the caller applies its per-flow policy on top).
  bool try_push(std::span<const std::byte> payload);

  /// Consumer side: claim the currently published run (one acquire
  /// load), hand up to `max_frames` frames to `sink` as
  /// span<const byte>, retire them with one release store. Returns the
  /// number of frames delivered. The spans alias ring storage and are
  /// only valid inside the callback.
  template <typename Sink>
  std::size_t consume(std::size_t max_frames, Sink&& sink) {
    const std::uint64_t tail = header_->tail.load(std::memory_order_acquire);
    std::uint64_t head = header_->head.load(std::memory_order_relaxed);
    std::size_t delivered = 0;
    while (head != tail && delivered < max_frames) {
      const std::size_t offset = static_cast<std::size_t>(head & mask_);
      std::uint32_t len;
      std::memcpy(&len, data_ + offset, sizeof(len));
      if (len == kWrapMarker) {
        head += capacity_ - offset;  // skip the tail gap, continue at 0
        continue;
      }
      sink(std::span<const std::byte>(data_ + offset + sizeof(std::uint32_t), len));
      head += framed_size(len);
      ++delivered;
    }
    header_->head.store(head, std::memory_order_release);
    return delivered;
  }

  /// Published-but-unconsumed bytes (approximate across threads).
  std::size_t readable_bytes() const {
    return static_cast<std::size_t>(header_->tail.load(std::memory_order_acquire) -
                                    header_->head.load(std::memory_order_acquire));
  }
  bool empty() const { return readable_bytes() == 0; }
  std::uint64_t drops() const { return header_->drops.load(std::memory_order_relaxed); }

 private:
  void move_from(SpscRing& o) {
    owned_ = std::move(o.owned_);
    header_ = o.header_;
    data_ = o.data_;
    capacity_ = o.capacity_;
    mask_ = o.mask_;
    o.header_ = nullptr;
    o.data_ = nullptr;
  }

  std::unique_ptr<std::byte[]> owned_;  // in-process mode only
  RingHeader* header_ = nullptr;
  std::byte* data_ = nullptr;
  std::size_t capacity_ = 0;
  std::uint64_t mask_ = 0;
};

/// A SpscRing living in a POSIX shared-memory object, so a producer in
/// another process can feed the runtime. The creator formats and later
/// unlinks the object; openers map an existing one and must agree on
/// the layout (magic/version/capacity are validated).
class ShmRing {
 public:
  static Result<ShmRing> create(const std::string& name, std::size_t capacity_bytes);
  static Result<ShmRing> open(const std::string& name);

  ShmRing(ShmRing&& o) noexcept { move_from(o); }
  ShmRing& operator=(ShmRing&& o) noexcept {
    if (this != &o) {
      release();
      move_from(o);
    }
    return *this;
  }
  ShmRing(const ShmRing&) = delete;
  ShmRing& operator=(const ShmRing&) = delete;
  ~ShmRing() { release(); }

  SpscRing& ring() { return ring_; }
  const std::string& name() const { return name_; }

 private:
  ShmRing(std::string name, void* region, std::size_t region_bytes, bool creator);
  void move_from(ShmRing& o);
  void release();

  std::string name_;
  void* region_ = nullptr;
  std::size_t region_bytes_ = 0;
  bool creator_ = false;
  SpscRing ring_{nullptr, 0, false};
};

}  // namespace decos::rt
