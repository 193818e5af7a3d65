// Minimal XML document model, parser and writer.
//
// The paper expresses link specifications in XML (Section IV-B, Fig. 6)
// "because of the wide use of XML and the availability of parsers"; the
// reproduction has no external dependencies, so we implement the subset
// the specification format needs: elements, attributes, character data,
// comments, processing instructions/declarations (skipped), and the five
// predefined entities. Namespaces, DTDs and CDATA are out of scope.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.hpp"

namespace decos::xml {

/// An XML element: name, attributes, child elements and concatenated
/// character data. Children are owned; the tree is move-only in practice
/// but copyable for test convenience.
class Element {
 public:
  Element() = default;
  explicit Element(std::string name) : name_{std::move(name)} {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Source position of this element's start tag ('<'), 1-based. Zero on
  /// elements built programmatically rather than parsed from text.
  int line() const { return line_; }
  int column() const { return column_; }
  void set_location(int line, int column) {
    line_ = line;
    column_ = column;
  }

  /// Concatenated character data directly inside this element (entity
  /// references resolved, surrounding whitespace trimmed).
  const std::string& text() const { return text_; }
  void set_text(std::string text) { text_ = std::move(text); }

  // -- attributes ---------------------------------------------------------
  bool has_attribute(std::string_view key) const;
  /// Returns the attribute value or "" if absent.
  const std::string& attribute(std::string_view key) const;
  /// Returns the attribute value or `fallback` if absent.
  std::string attribute_or(std::string_view key, std::string_view fallback) const;
  void set_attribute(std::string key, std::string value);
  const std::vector<std::pair<std::string, std::string>>& attributes() const { return attributes_; }

  // -- children -----------------------------------------------------------
  Element& add_child(std::string name);
  const std::vector<std::unique_ptr<Element>>& children() const { return children_; }

  /// First child with the given element name, or nullptr.
  const Element* child(std::string_view name) const;
  /// All children with the given element name.
  std::vector<const Element*> children_named(std::string_view name) const;

  /// Text of the first child with the given name, or "" if absent.
  std::string child_text(std::string_view name) const;

 private:
  std::string name_;
  int line_ = 0;
  int column_ = 0;
  std::string text_;
  std::vector<std::pair<std::string, std::string>> attributes_;
  std::vector<std::unique_ptr<Element>> children_;
};

/// A parsed document owning its root element.
struct Document {
  std::unique_ptr<Element> root;
};

/// Deepest element nesting parse() accepts (the root is depth 1). The
/// parser recurses once per level, so a deeper document is a parse
/// error rather than a stack overflow.
inline constexpr int kMaxDepth = 256;

/// Parse a complete XML document from `input`. Errors carry line/column.
Result<Document> parse(std::string_view input);

/// Serialize an element tree back to XML text (stable attribute order,
/// two-space indentation). Round-trips everything parse() accepts.
std::string write(const Element& root);

/// Escape the five predefined entities in character data.
std::string escape(std::string_view raw);

}  // namespace decos::xml
