#include "wire.hpp"

#include <stdexcept>

namespace perfbench {

spec::MessageSpec value_message(const std::string& name, const std::string& element, int id) {
  spec::MessageSpec message{name};
  spec::ElementSpec key;
  key.name = "name";
  key.key = true;
  key.fields.push_back(
      spec::FieldSpec{"id", spec::FieldType::kInt16, 0, decos::ta::Value{id}});
  message.add_element(std::move(key));
  spec::ElementSpec payload;
  payload.name = element;
  payload.convertible = true;
  payload.fields.push_back(spec::FieldSpec{"value", spec::FieldType::kInt32, 0, std::nullopt});
  payload.fields.push_back(spec::FieldSpec{"t", spec::FieldType::kTimestamp, 0, std::nullopt});
  message.add_element(std::move(payload));
  return message;
}

FieldAt field_at(const spec::MessageSpec& message, const std::string& element,
                 const std::string& field) {
  std::size_t offset = 0;
  const auto& elements = message.elements();
  for (std::size_t ei = 0; ei < elements.size(); ++ei) {
    for (std::size_t fi = 0; fi < elements[ei].fields.size(); ++fi) {
      const spec::FieldSpec& fs = elements[ei].fields[fi];
      if (elements[ei].name == element && fs.name == field) return {offset, fs.wire_size(), ei, fi};
      offset += fs.wire_size();
    }
  }
  throw std::runtime_error("message '" + message.name() + "' has no field " + element + "." +
                           field);
}

FrameTemplate::FrameTemplate(const spec::MessageSpec& message, FieldAt value_at, FieldAt seq_at,
                             FieldAt t_at)
    : value{value_at}, seq{seq_at}, t{t_at} {
  auto encoded = spec::encode(message, spec::make_instance(message));
  if (!encoded.ok())
    throw std::runtime_error("cannot encode template of '" + message.name() +
                             "': " + encoded.error().to_string());
  bytes = std::move(encoded.value());
}

}  // namespace perfbench
