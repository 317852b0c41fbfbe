// Minimal XML document model, parser and writer, plus the escaping
// helpers every XML reader and writer in the system shares.
//
// The document model serves XSpec schema-specification files (paper
// §4.4). Clarens-style XML-RPC messages (paper §4.5) do not build a tree:
// rpc/xml_reader.h pulls them in one pass. Supports elements, attributes,
// character data, comments and the standard five entities. It does not
// support DTDs, namespaces or processing instructions beyond the XML
// declaration, which is skipped; none of those appear in XSpec files.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "griddb/util/status.h"

namespace griddb::xml {

/// Element nesting cap shared by every XML reader (Parse below and the
/// XML-RPC pull reader): a deeper document is a ParseError, never a
/// stack overflow. XSpec files nest three deep; an XML-RPC value spends
/// three elements per array level, so this allows ~170 nested arrays.
inline constexpr int kMaxDepth = 512;

/// An XML element. Character data is normalized into `text` (concatenation
/// of all text nodes directly under this element, entity-decoded).
class Node {
 public:
  std::string name;
  std::map<std::string, std::string> attributes;
  std::string text;
  std::vector<std::unique_ptr<Node>> children;

  Node() = default;
  explicit Node(std::string element_name) : name(std::move(element_name)) {}

  /// First direct child with the given element name, or nullptr.
  const Node* Child(std::string_view child_name) const;
  Node* Child(std::string_view child_name);

  /// All direct children with the given element name.
  std::vector<const Node*> Children(std::string_view child_name) const;

  /// Attribute value or empty string when absent.
  std::string Attribute(std::string_view key) const;
  bool HasAttribute(std::string_view key) const;

  /// Text content of a direct child, or `fallback` when the child is absent.
  std::string ChildText(std::string_view child_name,
                        std::string_view fallback = "") const;

  /// Appends a new child element and returns a reference to it.
  Node& AddChild(std::string child_name);
  /// Appends a child carrying only text content.
  Node& AddTextChild(std::string child_name, std::string content);

  /// Deep copy.
  std::unique_ptr<Node> Clone() const;
};

/// Parses a complete XML document; returns its root element.
/// Leading XML declarations, comments and whitespace are skipped, and each
/// element's text is whitespace-trimmed (XSpec values never carry
/// significant edge whitespace). Nesting beyond kMaxDepth is a ParseError.
Result<std::unique_ptr<Node>> Parse(std::string_view input);

struct WriteOptions {
  bool pretty = true;        ///< Indent children, one element per line.
  int indent_width = 2;
  bool declaration = true;   ///< Emit <?xml version="1.0"?> header.
};

/// Serializes the tree rooted at `root`. Inverse of Parse for trees where
/// no element mixes text with child elements.
std::string Write(const Node& root, const WriteOptions& options = {});

/// Escapes &, <, >, ", ' for use in attribute values / character data.
std::string Escape(std::string_view raw);
/// Appends Escape(raw) to `out`; text with nothing to escape is one
/// bulk append.
void AppendEscaped(std::string_view raw, std::string* out);
/// Appends `raw` to `out` with the five named entities and numeric
/// character references (&#65; &#x41;, emitted as UTF-8) decoded. Any
/// other or malformed reference is a ParseError naming it.
Status AppendUnescaped(std::string_view raw, std::string* out);

}  // namespace griddb::xml
