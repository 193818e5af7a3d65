#include "xml/xml.hpp"

#include <cctype>

namespace decos::xml {
namespace {

bool is_name_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}
bool is_name_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':' || c == '-' ||
         c == '.';
}

std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string{s.substr(b, e - b)};
}

/// Recursive-descent XML parser over a string_view with position tracking.
class Parser {
 public:
  explicit Parser(std::string_view input) : in_{input} {}

  Result<Document> parse_document() {
    skip_prolog();
    if (at_end()) return fail("document has no root element");
    auto root = std::make_unique<Element>();
    if (auto st = parse_element(*root, 1); !st.ok()) return st.error();
    skip_misc();
    if (!at_end()) return fail("trailing content after root element");
    return Document{std::move(root)};
  }

 private:
  bool at_end() const { return pos_ >= in_.size(); }
  char peek() const { return in_[pos_]; }
  char peek(std::size_t ahead) const {
    return pos_ + ahead < in_.size() ? in_[pos_ + ahead] : '\0';
  }
  bool looking_at(std::string_view s) const { return in_.substr(pos_, s.size()) == s; }

  void advance() {
    if (in_[pos_] == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    ++pos_;
  }
  void advance(std::size_t n) {
    for (std::size_t i = 0; i < n && !at_end(); ++i) advance();
  }

  void skip_ws() {
    while (!at_end() && std::isspace(static_cast<unsigned char>(peek()))) advance();
  }

  Error fail(std::string message) const { return Error{std::move(message), line_, col_}; }

  /// Skip the XML declaration, comments, PIs and whitespace before/after
  /// the root element.
  void skip_prolog() { skip_misc(); }
  void skip_misc() {
    for (;;) {
      skip_ws();
      if (looking_at("<?")) {
        while (!at_end() && !looking_at("?>")) advance();
        advance(2);
      } else if (looking_at("<!--")) {
        while (!at_end() && !looking_at("-->")) advance();
        advance(3);
      } else if (looking_at("<!")) {  // DOCTYPE etc. -- skip to '>'
        while (!at_end() && peek() != '>') advance();
        advance(1);
      } else {
        return;
      }
    }
  }

  Result<std::string> parse_name() {
    if (at_end() || !is_name_start(peek())) return fail("expected name");
    std::string name;
    while (!at_end() && is_name_char(peek())) {
      name.push_back(peek());
      advance();
    }
    return name;
  }

  Result<std::string> parse_entity() {
    // positioned at '&'
    std::string ref;
    advance();  // consume '&'
    while (!at_end() && peek() != ';' && ref.size() < 12) {
      ref.push_back(peek());
      advance();
    }
    if (at_end() || peek() != ';') return fail("unterminated entity reference");
    advance();  // consume ';'
    if (ref == "lt") return std::string{"<"};
    if (ref == "gt") return std::string{">"};
    if (ref == "amp") return std::string{"&"};
    if (ref == "quot") return std::string{"\""};
    if (ref == "apos") return std::string{"'"};
    if (!ref.empty() && ref[0] == '#') {
      const int base = (ref.size() > 1 && (ref[1] == 'x' || ref[1] == 'X')) ? 16 : 10;
      const std::string digits = base == 16 ? ref.substr(2) : ref.substr(1);
      char* end = nullptr;
      const long code = std::strtol(digits.c_str(), &end, base);
      if (end == digits.c_str() || *end != '\0' || code <= 0 || code > 0x10FFFF)
        return fail("bad character reference &" + ref + ";");
      // Encode as UTF-8.
      std::string out;
      const auto c = static_cast<unsigned long>(code);
      if (c < 0x80) {
        out.push_back(static_cast<char>(c));
      } else if (c < 0x800) {
        out.push_back(static_cast<char>(0xC0 | (c >> 6)));
        out.push_back(static_cast<char>(0x80 | (c & 0x3F)));
      } else if (c < 0x10000) {
        out.push_back(static_cast<char>(0xE0 | (c >> 12)));
        out.push_back(static_cast<char>(0x80 | ((c >> 6) & 0x3F)));
        out.push_back(static_cast<char>(0x80 | (c & 0x3F)));
      } else {
        out.push_back(static_cast<char>(0xF0 | (c >> 18)));
        out.push_back(static_cast<char>(0x80 | ((c >> 12) & 0x3F)));
        out.push_back(static_cast<char>(0x80 | ((c >> 6) & 0x3F)));
        out.push_back(static_cast<char>(0x80 | (c & 0x3F)));
      }
      return out;
    }
    return fail("unknown entity &" + ref + ";");
  }

  Result<std::string> parse_attribute_value() {
    if (at_end() || (peek() != '"' && peek() != '\'')) return fail("expected quoted value");
    const char quote = peek();
    advance();
    std::string value;
    while (!at_end() && peek() != quote) {
      if (peek() == '&') {
        auto ent = parse_entity();
        if (!ent.ok()) return ent.error();
        value += ent.value();
      } else if (peek() == '<') {
        return fail("'<' not allowed in attribute value");
      } else {
        value.push_back(peek());
        advance();
      }
    }
    if (at_end()) return fail("unterminated attribute value");
    advance();  // closing quote
    return value;
  }

  Status parse_element(Element& out, int depth) {
    if (at_end() || peek() != '<') return fail("expected '<'");
    if (depth > kMaxDepth)
      return fail("elements nested deeper than " + std::to_string(kMaxDepth) + " levels");
    out.set_location(line_, col_);
    advance();
    auto name = parse_name();
    if (!name.ok()) return name.error();
    out.set_name(name.value());

    // Attributes.
    for (;;) {
      skip_ws();
      if (at_end()) return fail("unterminated start tag <" + out.name());
      if (peek() == '>' || looking_at("/>")) break;
      auto key = parse_name();
      if (!key.ok()) return key.error();
      skip_ws();
      if (at_end() || peek() != '=') return fail("expected '=' after attribute " + key.value());
      advance();
      skip_ws();
      auto value = parse_attribute_value();
      if (!value.ok()) return value.error();
      if (out.has_attribute(key.value()))
        return fail("duplicate attribute " + key.value() + " on <" + out.name() + ">");
      out.set_attribute(key.value(), value.value());
    }

    if (looking_at("/>")) {
      advance(2);
      return Status::success();
    }
    advance();  // '>'

    // Content: text, child elements, comments.
    std::string text;
    for (;;) {
      if (at_end()) return fail("unterminated element <" + out.name() + ">");
      if (looking_at("<!--")) {
        while (!at_end() && !looking_at("-->")) advance();
        if (at_end()) return fail("unterminated comment");
        advance(3);
      } else if (looking_at("</")) {
        advance(2);
        auto close = parse_name();
        if (!close.ok()) return close.error();
        if (close.value() != out.name())
          return fail("mismatched end tag </" + close.value() + "> for <" + out.name() + ">");
        skip_ws();
        if (at_end() || peek() != '>') return fail("expected '>' in end tag");
        advance();
        out.set_text(trim(text));
        return Status::success();
      } else if (peek() == '<') {
        auto& child = out.add_child("");
        if (auto st = parse_element(child, depth + 1); !st.ok()) return st;
      } else if (peek() == '&') {
        auto ent = parse_entity();
        if (!ent.ok()) return ent.error();
        text += ent.value();
      } else {
        text.push_back(peek());
        advance();
      }
    }
  }

  std::string_view in_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
};

void write_element(const Element& e, std::string& out, int depth) {
  const std::string indent(static_cast<std::size_t>(depth) * 2, ' ');
  out += indent + "<" + e.name();
  for (const auto& [k, v] : e.attributes()) out += " " + k + "=\"" + escape(v) + "\"";
  const bool empty = e.children().empty() && e.text().empty();
  if (empty) {
    out += "/>\n";
    return;
  }
  out += ">";
  if (!e.text().empty()) out += escape(e.text());
  if (!e.children().empty()) {
    out += "\n";
    for (const auto& child : e.children()) write_element(*child, out, depth + 1);
    out += indent;
  }
  out += "</" + e.name() + ">\n";
}

}  // namespace

bool Element::has_attribute(std::string_view key) const {
  for (const auto& [k, v] : attributes_)
    if (k == key) return true;
  return false;
}

const std::string& Element::attribute(std::string_view key) const {
  static const std::string kEmpty;
  for (const auto& [k, v] : attributes_)
    if (k == key) return v;
  return kEmpty;
}

std::string Element::attribute_or(std::string_view key, std::string_view fallback) const {
  for (const auto& [k, v] : attributes_)
    if (k == key) return v;
  return std::string{fallback};
}

void Element::set_attribute(std::string key, std::string value) {
  for (auto& [k, v] : attributes_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  attributes_.emplace_back(std::move(key), std::move(value));
}

Element& Element::add_child(std::string name) {
  children_.push_back(std::make_unique<Element>(std::move(name)));
  return *children_.back();
}

const Element* Element::child(std::string_view name) const {
  for (const auto& c : children_)
    if (c->name() == name) return c.get();
  return nullptr;
}

std::vector<const Element*> Element::children_named(std::string_view name) const {
  std::vector<const Element*> out;
  for (const auto& c : children_)
    if (c->name() == name) out.push_back(c.get());
  return out;
}

std::string Element::child_text(std::string_view name) const {
  const Element* c = child(name);
  return c ? c->text() : std::string{};
}

Result<Document> parse(std::string_view input) { return Parser{input}.parse_document(); }

std::string write(const Element& root) {
  std::string out = "<?xml version=\"1.0\"?>\n";
  write_element(root, out, 0);
  return out;
}

std::string escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '&': out += "&amp;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&apos;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

}  // namespace decos::xml
