// Equivalence property of the compiled wire layout (S29): for arbitrary
// generated message specs -- static fields of every type, strings,
// key elements -- the compiled WireLayout path behind encode_into /
// decode_into / matches_key must be indistinguishable from the
// field-walk reference codec: byte-identical buffers, value-identical
// decoded instances, string-identical Status errors, and identical
// matches_key verdicts, on well-formed and malformed inputs alike.
#include <gtest/gtest.h>

#include <cstddef>
#include <exception>
#include <string>
#include <vector>

#include "spec/message.hpp"
#include "util/rng.hpp"

namespace decos::spec {
namespace {

/// Random valid MessageSpec: a static key element plus 1-3 payload
/// elements whose fields are randomly static (all types) or dynamic.
MessageSpec random_spec(Rng& rng, int id) {
  MessageSpec ms{"m" + std::to_string(id)};
  ElementSpec key;
  key.name = "name";
  key.key = true;
  key.fields.push_back(FieldSpec{"id", FieldType::kUInt16, 0, ta::Value{id}});
  if (rng.bernoulli(0.5)) {
    // Multi-field keys exercise the memcmp key ops beyond the id.
    key.fields.push_back(FieldSpec{"tag", FieldType::kInt8, 0, ta::Value{rng.uniform_int(-5, 5)}});
  }
  ms.add_element(std::move(key));

  const FieldType kTypes[] = {
      FieldType::kBoolean, FieldType::kInt8,    FieldType::kInt16,     FieldType::kInt32,
      FieldType::kInt64,   FieldType::kUInt8,   FieldType::kUInt16,    FieldType::kUInt32,
      FieldType::kUInt64,  FieldType::kFloat32, FieldType::kFloat64,   FieldType::kTimestamp,
      FieldType::kString,
  };
  const std::int64_t elements = rng.uniform_int(1, 3);
  for (std::int64_t e = 0; e < elements; ++e) {
    ElementSpec es;
    es.name = "e" + std::to_string(e);
    es.convertible = rng.bernoulli(0.5);
    const std::int64_t fields = rng.uniform_int(1, 5);
    for (std::int64_t f = 0; f < fields; ++f) {
      FieldSpec fs;
      fs.name = "f" + std::to_string(f);
      fs.type = kTypes[rng.uniform_int(0, 12)];
      if (fs.type == FieldType::kString)
        fs.string_length = static_cast<std::size_t>(rng.uniform_int(1, 12));
      if (rng.bernoulli(0.3)) {
        // Static field of matching value kind (in range for its width).
        switch (fs.type) {
          case FieldType::kBoolean: fs.static_value = ta::Value{rng.bernoulli(0.5)}; break;
          case FieldType::kInt8: fs.static_value = ta::Value{rng.uniform_int(-128, 127)}; break;
          case FieldType::kInt16: fs.static_value = ta::Value{rng.uniform_int(-100, 100)}; break;
          case FieldType::kInt32: fs.static_value = ta::Value{rng.uniform_int(-100000, 100000)}; break;
          case FieldType::kInt64: fs.static_value = ta::Value{static_cast<std::int64_t>(rng.next_u64())}; break;
          case FieldType::kUInt8: fs.static_value = ta::Value{rng.uniform_int(0, 255)}; break;
          case FieldType::kUInt16: fs.static_value = ta::Value{rng.uniform_int(0, 65535)}; break;
          case FieldType::kUInt32: fs.static_value = ta::Value{rng.uniform_int(0, 4294967295LL)}; break;
          case FieldType::kUInt64: fs.static_value = ta::Value{rng.uniform_int(0, 1LL << 62)}; break;
          case FieldType::kFloat32:
            fs.static_value = ta::Value{static_cast<double>(static_cast<float>(rng.uniform(-1e6, 1e6)))};
            break;
          case FieldType::kFloat64: fs.static_value = ta::Value{rng.uniform(-1e12, 1e12)}; break;
          case FieldType::kTimestamp:
            fs.static_value = ta::Value{Instant::from_ns(rng.uniform_int(0, 1LL << 50))};
            break;
          case FieldType::kString: {
            std::string s;
            const std::int64_t len =
                rng.uniform_int(0, static_cast<std::int64_t>(fs.string_length));
            for (std::int64_t i = 0; i < len; ++i)
              s.push_back(static_cast<char>(rng.uniform_int('a', 'z')));
            fs.static_value = ta::Value{std::move(s)};
            break;
          }
        }
      }
      es.fields.push_back(std::move(fs));
    }
    ms.add_element(std::move(es));
  }
  return ms;
}

/// Random in-range values for the dynamic fields.
void randomize(MessageInstance& inst, const MessageSpec& ms, Rng& rng) {
  for (std::size_t ei = 0; ei < ms.elements().size(); ++ei) {
    const ElementSpec& es = ms.elements()[ei];
    for (std::size_t fi = 0; fi < es.fields.size(); ++fi) {
      const FieldSpec& fs = es.fields[fi];
      if (fs.is_static()) continue;
      ta::Value& v = inst.elements()[ei].fields[fi];
      switch (fs.type) {
        case FieldType::kBoolean: v = ta::Value{rng.bernoulli(0.5)}; break;
        case FieldType::kInt8: v = ta::Value{rng.uniform_int(-128, 127)}; break;
        case FieldType::kInt16: v = ta::Value{rng.uniform_int(-32768, 32767)}; break;
        case FieldType::kInt32: v = ta::Value{rng.uniform_int(-2147483648LL, 2147483647LL)}; break;
        case FieldType::kInt64: v = ta::Value{static_cast<std::int64_t>(rng.next_u64())}; break;
        case FieldType::kUInt8: v = ta::Value{rng.uniform_int(0, 255)}; break;
        case FieldType::kUInt16: v = ta::Value{rng.uniform_int(0, 65535)}; break;
        case FieldType::kUInt32: v = ta::Value{rng.uniform_int(0, 4294967295LL)}; break;
        case FieldType::kUInt64: v = ta::Value{rng.uniform_int(0, 1LL << 62)}; break;
        case FieldType::kFloat32:
          v = ta::Value{static_cast<double>(static_cast<float>(rng.uniform(-1e6, 1e6)))};
          break;
        case FieldType::kFloat64: v = ta::Value{rng.uniform(-1e12, 1e12)}; break;
        case FieldType::kTimestamp:
          v = ta::Value{Instant::from_ns(rng.uniform_int(0, 1LL << 50))};
          break;
        case FieldType::kString: {
          std::string s;
          const std::int64_t len = rng.uniform_int(0, static_cast<std::int64_t>(fs.string_length));
          for (std::int64_t i = 0; i < len; ++i)
            s.push_back(static_cast<char>(rng.uniform_int('a', 'z')));
          v = ta::Value{std::move(s)};
          break;
        }
      }
    }
  }
}

/// Both paths run on the same inputs; ok-ness, error text and (on
/// success) bytes must agree.
void expect_encode_equivalent(const MessageSpec& ms, const MessageInstance& inst,
                              const char* what) {
  std::vector<std::byte> compiled;
  std::vector<std::byte> reference;
  const Status a = encode_into(ms, inst, compiled);
  const Status b = encode_fieldwalk_into(ms, inst, reference);
  EXPECT_EQ(a.ok(), b.ok()) << what;
  if (a.ok() && b.ok()) {
    EXPECT_EQ(compiled, reference) << what;
  } else if (!a.ok() && !b.ok()) {
    EXPECT_EQ(a.error().to_string(), b.error().to_string()) << what;
  }
}

void expect_decode_equivalent(const MessageSpec& ms, std::span<const std::byte> payload,
                              const char* what) {
  MessageInstance compiled = make_instance(ms);
  MessageInstance reference = make_instance(ms);
  const Status a = decode_into(ms, payload, compiled);
  const Status b = decode_fieldwalk_into(ms, payload, reference);
  EXPECT_EQ(a.ok(), b.ok()) << what;
  if (!a.ok() && !b.ok()) {
    EXPECT_EQ(a.error().to_string(), b.error().to_string()) << what;
    return;
  }
  if (!a.ok() || !b.ok()) return;
  ASSERT_EQ(compiled.elements().size(), reference.elements().size()) << what;
  for (std::size_t ei = 0; ei < compiled.elements().size(); ++ei) {
    ASSERT_EQ(compiled.elements()[ei].fields.size(), reference.elements()[ei].fields.size())
        << what;
    for (std::size_t fi = 0; fi < compiled.elements()[ei].fields.size(); ++fi) {
      const ta::Value& x = compiled.elements()[ei].fields[fi];
      const ta::Value& y = reference.elements()[ei].fields[fi];
      // Exact representational equality, not just numeric ==: both paths
      // must produce the same variant alternative and the same bits.
      EXPECT_EQ(x.is_int(), y.is_int()) << what;
      EXPECT_EQ(x.is_real(), y.is_real()) << what;
      EXPECT_EQ(x.is_bool(), y.is_bool()) << what;
      EXPECT_EQ(x.is_string(), y.is_string()) << what;
      EXPECT_TRUE(x == y) << what << " element " << ei << " field " << fi << ": " << x.to_string()
                          << " vs " << y.to_string();
    }
  }
}

/// Like expect_encode_equivalent, but for inputs that may make the
/// codec *throw* (wrong value kind reaches an as_bool()/as_int()
/// accessor): both paths must agree on Status vs exception, and on the
/// message either way.
void expect_encode_equivalent_or_throw(const MessageSpec& ms, const MessageInstance& inst,
                                       const char* what) {
  std::vector<std::byte> compiled;
  std::vector<std::byte> reference;
  bool threw_a = false;
  bool threw_b = false;
  std::string text_a;
  std::string text_b;
  bool ok_a = false;
  bool ok_b = false;
  try {
    const Status a = encode_into(ms, inst, compiled);
    ok_a = a.ok();
    if (!a.ok()) text_a = a.error().to_string();
  } catch (const std::exception& e) {
    threw_a = true;
    text_a = e.what();
  }
  try {
    const Status b = encode_fieldwalk_into(ms, inst, reference);
    ok_b = b.ok();
    if (!b.ok()) text_b = b.error().to_string();
  } catch (const std::exception& e) {
    threw_b = true;
    text_b = e.what();
  }
  EXPECT_EQ(threw_a, threw_b) << what;
  EXPECT_EQ(ok_a, ok_b) << what;
  EXPECT_EQ(text_a, text_b) << what;
  if (ok_a && ok_b) {
    EXPECT_EQ(compiled, reference) << what;
  }
}

class WireLayoutEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireLayoutEquivalence, EncodeDecodeAndKeyMatchTheFieldWalk) {
  Rng rng{GetParam()};
  for (int iteration = 0; iteration < 40; ++iteration) {
    const MessageSpec ms = random_spec(rng, static_cast<int>(rng.uniform_int(0, 1000)));
    ASSERT_TRUE(ms.validate().ok());
    MessageInstance inst = make_instance(ms);
    randomize(inst, ms, rng);

    // 1. Encoding a well-formed instance: byte-identical.
    expect_encode_equivalent(ms, inst, "well-formed encode");
    std::vector<std::byte> bytes;
    ASSERT_TRUE(encode_fieldwalk_into(ms, inst, bytes).ok());

    // 2. Decoding it back: value-identical, twice (the second pass runs
    //    against warmed scratch -- the branch-light in-place path).
    expect_decode_equivalent(ms, bytes, "well-formed decode");
    MessageInstance warmed = make_instance(ms);
    ASSERT_TRUE(decode_into(ms, bytes, warmed).ok());
    ASSERT_TRUE(decode_into(ms, bytes, warmed).ok());

    // 3. matches_key agrees on the genuine payload...
    EXPECT_EQ(matches_key(ms, bytes), matches_key_fieldwalk(ms, bytes));
    EXPECT_TRUE(matches_key(ms, bytes));
    // ...and under byte mutation anywhere in the payload.
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      std::vector<std::byte> mutated = bytes;
      mutated[i] ^= std::byte{0xFF};
      EXPECT_EQ(matches_key(ms, mutated), matches_key_fieldwalk(ms, mutated))
          << "mutated byte " << i;
    }

    // 4. Short / long / empty payloads: identical error text.
    if (!bytes.empty()) {
      const std::span<const std::byte> short_payload{bytes.data(), bytes.size() - 1};
      expect_decode_equivalent(ms, short_payload, "short payload");
      EXPECT_EQ(matches_key(ms, short_payload), matches_key_fieldwalk(ms, short_payload));
    }
    std::vector<std::byte> long_payload = bytes;
    long_payload.push_back(std::byte{0});
    expect_decode_equivalent(ms, long_payload, "long payload");
    expect_decode_equivalent(ms, std::span<const std::byte>{}, "empty payload");

    // 5. Name mismatch: identical error text.
    MessageInstance misnamed = inst;
    misnamed.set_message("not-" + ms.name());
    expect_encode_equivalent(ms, misnamed, "name mismatch");

    // 6. Structural mismatch: an element short of one field.
    if (!inst.elements().empty() && !inst.elements().back().fields.empty()) {
      MessageInstance chopped = inst;
      chopped.elements().back().fields.pop_back();
      expect_encode_equivalent(ms, chopped, "field-count mismatch");
      MessageInstance elementless = inst;
      elementless.elements().pop_back();
      expect_encode_equivalent(ms, elementless, "element-count mismatch");
    }
  }
}

TEST_P(WireLayoutEquivalence, ValueFaultsMatchTheFieldWalk) {
  Rng rng{GetParam() + 7777};
  for (int iteration = 0; iteration < 40; ++iteration) {
    const MessageSpec ms = random_spec(rng, static_cast<int>(rng.uniform_int(0, 1000)));
    MessageInstance inst = make_instance(ms);
    randomize(inst, ms, rng);

    // Pick a random dynamic field and poison it out of range / out of
    // type; both paths must report the same failure.
    std::vector<std::pair<std::size_t, std::size_t>> dynamics;
    for (std::size_t ei = 0; ei < ms.elements().size(); ++ei)
      for (std::size_t fi = 0; fi < ms.elements()[ei].fields.size(); ++fi)
        if (!ms.elements()[ei].fields[fi].is_static()) dynamics.emplace_back(ei, fi);
    if (dynamics.empty()) continue;
    const auto [ei, fi] =
        dynamics[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(dynamics.size()) - 1))];
    const FieldSpec& fs = ms.elements()[ei].fields[fi];
    MessageInstance poisoned = inst;
    ta::Value& v = poisoned.elements()[ei].fields[fi];
    switch (fs.type) {
      case FieldType::kInt8:
      case FieldType::kInt16:
      case FieldType::kInt32:
        v = ta::Value{std::int64_t{1} << 40};  // out of range
        break;
      case FieldType::kUInt8:
      case FieldType::kUInt16:
      case FieldType::kUInt32:
      case FieldType::kUInt64:
        v = ta::Value{std::int64_t{-1}};  // negative for unsigned
        break;
      case FieldType::kString: {
        std::string s(fs.string_length + 3, 'x');  // overlong
        v = ta::Value{std::move(s)};
        break;
      }
      case FieldType::kBoolean:
      case FieldType::kInt64:
      case FieldType::kTimestamp:
      case FieldType::kFloat32:
      case FieldType::kFloat64:
        v = ta::Value{std::string{"wrong-kind"}};  // string where a number belongs
        break;
    }
    expect_encode_equivalent_or_throw(ms, poisoned, "poisoned value");
  }
}

TEST_P(WireLayoutEquivalence, StaticMismatchFallsBackBitIdentically) {
  Rng rng{GetParam() + 31337};
  for (int iteration = 0; iteration < 40; ++iteration) {
    const MessageSpec ms = random_spec(rng, static_cast<int>(rng.uniform_int(0, 1000)));
    MessageInstance inst = make_instance(ms);
    randomize(inst, ms, rng);

    // Mutate one static field of the instance away from the spec's
    // value: the compiled template no longer applies and the layout must
    // take its wholesale field-walk fallback -- equivalence holds either
    // way, whatever the reference decides (encode the instance's value
    // or fail).
    std::vector<std::pair<std::size_t, std::size_t>> statics;
    for (std::size_t ei = 0; ei < ms.elements().size(); ++ei)
      for (std::size_t fi = 0; fi < ms.elements()[ei].fields.size(); ++fi)
        if (ms.elements()[ei].fields[fi].is_static()) statics.emplace_back(ei, fi);
    if (statics.empty()) continue;
    const auto [ei, fi] =
        statics[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(statics.size()) - 1))];
    const FieldSpec& fs = ms.elements()[ei].fields[fi];
    MessageInstance skewed = inst;
    ta::Value& v = skewed.elements()[ei].fields[fi];
    switch (fs.type) {
      case FieldType::kBoolean: v = ta::Value{!v.as_bool()}; break;
      case FieldType::kFloat32:
      case FieldType::kFloat64: v = ta::Value{v.as_real() + 1.0}; break;
      case FieldType::kString: v = ta::Value{std::string{"zz"}}; break;
      default: v = ta::Value{v.as_int() == 0 ? std::int64_t{1} : std::int64_t{0}}; break;
    }
    expect_encode_equivalent(ms, skewed, "skewed static");

    // Cross-representation statics: an integer written as a real (or
    // vice versa) must not silently memcpy the template -- the bit-exact
    // static comparison demands the same variant alternative.
    MessageInstance crosskind = inst;
    ta::Value& w = crosskind.elements()[ei].fields[fi];
    if (fs.type != FieldType::kString && fs.type != FieldType::kBoolean) {
      w = w.is_real() ? ta::Value{static_cast<std::int64_t>(w.as_real())}
                      : ta::Value{static_cast<double>(w.as_int())};
      expect_encode_equivalent(ms, crosskind, "cross-kind static");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireLayoutEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace decos::spec
