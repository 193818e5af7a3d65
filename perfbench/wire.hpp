// Message shapes the workloads use, and the generator's codec shortcut:
// a frame template pre-encoded once per flow whose dynamic fields are
// patched in place at their wire offsets, and fixed-offset reads of
// egress fields. main.cpp's self-test pins both against spec::encode_into
// and spec::decode so the shortcut cannot drift from the codec.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "spec/link_spec.hpp"
#include "spec/message.hpp"
#include "support.hpp"

namespace perfbench {

namespace spec = decos::spec;

/// Key element {id: int16 = `id`} plus one convertible element
/// {value: int32, t: timestamp} -- the smallest E22 frame (14 bytes).
spec::MessageSpec value_message(const std::string& name, const std::string& element, int id);

/// The byte range one field occupies in a frame of its message, and the
/// field's (element, field) index in a MessageInstance of that message.
struct FieldAt {
  std::size_t offset = 0;
  std::size_t bytes = 0;
  std::size_t element = 0;
  std::size_t field = 0;
};

/// Wire position of `field` inside `element`: the codec lays fields out
/// back to back in declaration order, each at its fixed wire size.
FieldAt field_at(const spec::MessageSpec& message, const std::string& element,
                 const std::string& field);

/// One flow's pre-encoded ingress frame. stamp() copies the template and
/// patches value, sequence number and due instant; a flow whose sequence
/// number rides in the value field has seq.bytes == 0.
struct FrameTemplate {
  std::vector<std::byte> bytes;  // statics encoded, dynamic fields zero
  FieldAt value;
  FieldAt seq;
  FieldAt t;

  FrameTemplate(const spec::MessageSpec& message, FieldAt value_at, FieldAt seq_at, FieldAt t_at);

  void stamp(std::byte* out, std::int64_t value_v, std::int64_t seq_v, std::int64_t t_ns) const {
    std::copy(bytes.begin(), bytes.end(), out);
    store_be(out + value.offset, static_cast<std::uint64_t>(value_v), value.bytes);
    if (seq.bytes != 0) store_be(out + seq.offset, static_cast<std::uint64_t>(seq_v), seq.bytes);
    store_be(out + t.offset, static_cast<std::uint64_t>(t_ns), t.bytes);
  }
};

/// Fixed-offset reader of one egress message's key, value, sequence
/// number and timestamp.
struct EgressLayout {
  FieldAt key;
  FieldAt value;
  FieldAt seq;  // bytes == 0: the sequence number is the value
  FieldAt t;
  std::size_t size = 0;
};

}  // namespace perfbench
