#include "griddb/xml/xml.h"

#include <cctype>
#include <charconv>

#include "griddb/util/strings.h"

namespace griddb::xml {

const Node* Node::Child(std::string_view child_name) const {
  for (const auto& child : children) {
    if (child->name == child_name) return child.get();
  }
  return nullptr;
}

Node* Node::Child(std::string_view child_name) {
  return const_cast<Node*>(static_cast<const Node*>(this)->Child(child_name));
}

std::vector<const Node*> Node::Children(std::string_view child_name) const {
  std::vector<const Node*> out;
  for (const auto& child : children) {
    if (child->name == child_name) out.push_back(child.get());
  }
  return out;
}

std::string Node::Attribute(std::string_view key) const {
  auto it = attributes.find(std::string(key));
  return it == attributes.end() ? std::string() : it->second;
}

bool Node::HasAttribute(std::string_view key) const {
  return attributes.find(std::string(key)) != attributes.end();
}

std::string Node::ChildText(std::string_view child_name,
                            std::string_view fallback) const {
  const Node* child = Child(child_name);
  return child ? child->text : std::string(fallback);
}

Node& Node::AddChild(std::string child_name) {
  children.push_back(std::make_unique<Node>(std::move(child_name)));
  return *children.back();
}

Node& Node::AddTextChild(std::string child_name, std::string content) {
  Node& child = AddChild(std::move(child_name));
  child.text = std::move(content);
  return child;
}

std::unique_ptr<Node> Node::Clone() const {
  auto copy = std::make_unique<Node>(name);
  copy->attributes = attributes;
  copy->text = text;
  copy->children.reserve(children.size());
  for (const auto& child : children) copy->children.push_back(child->Clone());
  return copy;
}

void AppendEscaped(std::string_view raw, std::string* out) {
  // Most content (numbers, identifiers) has nothing to escape: one scan,
  // one bulk append.
  size_t plain = raw.find_first_of("&<>\"'");
  if (plain == std::string_view::npos) {
    out->append(raw);
    return;
  }
  out->append(raw, 0, plain);
  for (size_t i = plain; i < raw.size(); ++i) {
    switch (raw[i]) {
      case '&': out->append("&amp;"); break;
      case '<': out->append("&lt;"); break;
      case '>': out->append("&gt;"); break;
      case '"': out->append("&quot;"); break;
      case '\'': out->append("&apos;"); break;
      default: out->push_back(raw[i]);
    }
  }
}

std::string Escape(std::string_view raw) {
  std::string out;
  AppendEscaped(raw, &out);
  return out;
}

namespace {

void AppendUtf8(uint32_t cp, std::string* out) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

}  // namespace

Status AppendUnescaped(std::string_view raw, std::string* out) {
  for (size_t i = 0; i < raw.size();) {
    size_t amp = raw.find('&', i);
    if (amp == std::string_view::npos) {
      out->append(raw, i);
      break;
    }
    out->append(raw, i, amp - i);
    size_t semi = raw.find(';', amp);
    if (semi == std::string_view::npos) {
      return griddb::ParseError("unterminated entity");
    }
    std::string_view entity = raw.substr(amp + 1, semi - amp - 1);
    if (entity == "amp") out->push_back('&');
    else if (entity == "lt") out->push_back('<');
    else if (entity == "gt") out->push_back('>');
    else if (entity == "quot") out->push_back('"');
    else if (entity == "apos") out->push_back('\'');
    else if (entity.size() > 1 && entity[0] == '#') {
      const bool hex = entity[1] == 'x' || entity[1] == 'X';
      std::string_view digits = entity.substr(hex ? 2 : 1);
      uint32_t code = 0;
      auto [end, ec] = std::from_chars(digits.data(),
                                       digits.data() + digits.size(), code,
                                       hex ? 16 : 10);
      if (digits.empty() || ec != std::errc() ||
          end != digits.data() + digits.size() || code == 0 ||
          code > 0x10FFFF) {
        return griddb::ParseError("bad character reference &" +
                                  std::string(entity) + ";");
      }
      AppendUtf8(code, out);
    } else {
      return griddb::ParseError("unknown entity &" + std::string(entity) + ";");
    }
    i = semi + 1;
  }
  return Status::Ok();
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view input) : input_(input) {}

  Result<std::unique_ptr<Node>> ParseDocument() {
    SkipProlog();
    GRIDDB_ASSIGN_OR_RETURN(std::unique_ptr<Node> root, ParseElement(1));
    SkipMisc();
    if (pos_ != input_.size()) {
      return Error("trailing content after document element");
    }
    return root;
  }

 private:
  Status Error(std::string message) const {
    // Report a 1-based line number for diagnostics.
    size_t line = 1;
    for (size_t i = 0; i < pos_ && i < input_.size(); ++i) {
      if (input_[i] == '\n') ++line;
    }
    return griddb::ParseError("XML line " + std::to_string(line) + ": " +
                              std::move(message));
  }

  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  bool Match(std::string_view s) {
    if (input_.substr(pos_, s.size()) == s) {
      pos_ += s.size();
      return true;
    }
    return false;
  }

  void SkipWhitespace() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) ++pos_;
  }

  bool SkipComment() {
    if (!Match("<!--")) return false;
    size_t end = input_.find("-->", pos_);
    pos_ = (end == std::string_view::npos) ? input_.size() : end + 3;
    return true;
  }

  void SkipMisc() {
    while (true) {
      SkipWhitespace();
      if (!SkipComment()) return;
    }
  }

  void SkipProlog() {
    SkipWhitespace();
    if (Match("<?xml")) {
      size_t end = input_.find("?>", pos_);
      pos_ = (end == std::string_view::npos) ? input_.size() : end + 2;
    }
    SkipMisc();
    // <!DOCTYPE ...> (no internal subset support).
    if (Match("<!DOCTYPE")) {
      size_t end = input_.find('>', pos_);
      pos_ = (end == std::string_view::npos) ? input_.size() : end + 1;
    }
    SkipMisc();
  }

  static bool IsNameStart(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
  }
  static bool IsNameChar(char c) {
    return IsNameStart(c) || std::isdigit(static_cast<unsigned char>(c)) ||
           c == '-' || c == '.';
  }

  Result<std::string> ParseName() {
    if (AtEnd() || !IsNameStart(Peek())) return Error("expected name");
    size_t start = pos_;
    while (!AtEnd() && IsNameChar(Peek())) ++pos_;
    return std::string(input_.substr(start, pos_ - start));
  }

  Result<std::string> DecodeEntities(std::string_view raw) {
    std::string out;
    out.reserve(raw.size());
    Status status = AppendUnescaped(raw, &out);
    if (!status.ok()) return Error(status.message());
    return out;
  }

  Result<std::unique_ptr<Node>> ParseElement(int depth) {
    if (depth > kMaxDepth) {
      return Error("elements nest deeper than " + std::to_string(kMaxDepth));
    }
    if (!Match("<")) return Error("expected '<'");
    GRIDDB_ASSIGN_OR_RETURN(std::string name, ParseName());
    auto node = std::make_unique<Node>(name);

    // Attributes.
    while (true) {
      SkipWhitespace();
      if (AtEnd()) return Error("unterminated start tag <" + name);
      if (Match("/>")) return node;
      if (Match(">")) break;
      GRIDDB_ASSIGN_OR_RETURN(std::string attr_name, ParseName());
      SkipWhitespace();
      if (!Match("=")) return Error("expected '=' after attribute name");
      SkipWhitespace();
      if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
        return Error("expected quoted attribute value");
      }
      char quote = Peek();
      ++pos_;
      size_t start = pos_;
      while (!AtEnd() && Peek() != quote) ++pos_;
      if (AtEnd()) return Error("unterminated attribute value");
      GRIDDB_ASSIGN_OR_RETURN(
          std::string value, DecodeEntities(input_.substr(start, pos_ - start)));
      ++pos_;  // closing quote
      node->attributes[attr_name] = std::move(value);
    }

    // Content: text, children, comments, CDATA.
    std::string text;
    while (true) {
      if (AtEnd()) return Error("unterminated element <" + name + ">");
      if (Match("<![CDATA[")) {
        size_t end = input_.find("]]>", pos_);
        if (end == std::string_view::npos) return Error("unterminated CDATA");
        text.append(input_.substr(pos_, end - pos_));
        pos_ = end + 3;
        continue;
      }
      if (SkipComment()) continue;
      if (input_.substr(pos_, 2) == "</") {
        pos_ += 2;
        GRIDDB_ASSIGN_OR_RETURN(std::string close_name, ParseName());
        if (close_name != name) {
          return Error("mismatched close tag </" + close_name +
                       "> for <" + name + ">");
        }
        SkipWhitespace();
        if (!Match(">")) return Error("expected '>' in close tag");
        node->text = std::string(Trim(text));
        return node;
      }
      if (Peek() == '<') {
        GRIDDB_ASSIGN_OR_RETURN(std::unique_ptr<Node> child,
                                ParseElement(depth + 1));
        node->children.push_back(std::move(child));
        continue;
      }
      size_t start = pos_;
      while (!AtEnd() && Peek() != '<') ++pos_;
      GRIDDB_ASSIGN_OR_RETURN(
          std::string decoded, DecodeEntities(input_.substr(start, pos_ - start)));
      text += decoded;
    }
  }

  std::string_view input_;
  size_t pos_ = 0;
};

void WriteNode(const Node& node, const WriteOptions& options, int depth,
               std::string& out) {
  std::string indent =
      options.pretty ? std::string(static_cast<size_t>(depth) *
                                       static_cast<size_t>(options.indent_width),
                                   ' ')
                     : std::string();
  out += indent;
  out += '<';
  out += node.name;
  for (const auto& [key, value] : node.attributes) {
    out += ' ';
    out += key;
    out += "=\"";
    AppendEscaped(value, &out);
    out += '"';
  }
  if (node.children.empty() && node.text.empty()) {
    out += "/>";
    if (options.pretty) out += '\n';
    return;
  }
  out += '>';
  if (node.children.empty()) {
    AppendEscaped(node.text, &out);
  } else {
    if (options.pretty) out += '\n';
    if (!node.text.empty()) {
      out += indent;
      AppendEscaped(node.text, &out);
      if (options.pretty) out += '\n';
    }
    for (const auto& child : node.children) {
      WriteNode(*child, options, depth + 1, out);
    }
    out += indent;
  }
  out += "</";
  out += node.name;
  out += '>';
  if (options.pretty) out += '\n';
}

}  // namespace

Result<std::unique_ptr<Node>> Parse(std::string_view input) {
  Parser parser(input);
  return parser.ParseDocument();
}

std::string Write(const Node& root, const WriteOptions& options) {
  std::string out;
  if (options.declaration) out += "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  WriteNode(root, options, 0, out);
  return out;
}

}  // namespace griddb::xml
