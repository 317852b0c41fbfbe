// Single-pass pull reader for the XML that XML-RPC messages use.
//
// The text codec's decode side: no element tree is built. Next() returns
// one token at a time as offsets into the input, so a value is decoded
// straight from the bytes it arrived in. Tag names and character data are
// views; nothing is allocated per token. Errors are token kinds that carry
// the offset where reading stopped.
//
// The reader itself enforces well-formedness: every close tag must match
// the innermost open one, nesting is capped at xml::kMaxDepth, only
// whitespace, comments and processing instructions may surround the
// single root element, and the input must not end inside an element.
// Comments and processing instructions never surface as tokens; a
// DOCTYPE is an error. Attributes are syntax-checked and skipped: XML-RPC
// defines none, but Apache XML-RPC (the library under JClarens) puts an
// xmlns:ex declaration on its root element.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace griddb::rpc::xml_reader {

enum class TokenKind : uint8_t {
  kOpen,         ///< <name ...>; [begin, end) is the name
  kSelfClosing,  ///< <name .../>; [begin, end) is the name
  kClose,        ///< </name>; [begin, end) is the name
  kText,         ///< character data, still entity-encoded
  kCData,        ///< <![CDATA[...]]> content, taken literally
  kEnd,          ///< the root element has closed and only misc followed

  // Errors: [begin, end) is the offset where reading stopped.
  kErrorUnexpectedEnd,
  kErrorBadName,
  kErrorBadAttribute,
  kErrorMismatchedClose,
  kErrorTooDeep,
  kErrorUnterminatedComment,
  kErrorUnterminatedCData,
  kErrorMalformedTag,
  kErrorContentOutsideRoot,
};

struct Token {
  TokenKind kind;
  size_t begin;
  size_t end;
};

inline bool IsError(TokenKind kind) {
  return kind >= TokenKind::kErrorUnexpectedEnd;
}

/// A short description of an error kind ("unexpected end of input").
const char* ErrorText(TokenKind kind);

class Reader {
 public:
  explicit Reader(std::string_view input) : input_(input) {
    open_.reserve(16);  // an XML-RPC result set nests 14 deep
  }

  /// The next token. After kEnd or an error token, keeps returning it.
  Token Next();

  std::string_view View(const Token& token) const {
    return input_.substr(token.begin, token.end - token.begin);
  }
  /// Bytes not yet consumed (anchors size hints to what can still follow).
  size_t remaining() const { return input_.size() - pos_; }

 private:
  /// Ends the stream with `kind` at offset `at`.
  Token Finish(TokenKind kind, size_t at);
  /// A start or end tag at pos_ ('<' seen, not "<!" or "<?").
  Token ReadTag();
  /// Skips a start tag's attributes from *at through its '>' or "/>".
  /// Returns kOpen / kSelfClosing, or an error kind with *at at the fault.
  TokenKind SkipAttributes(size_t* at) const;

  std::string_view input_;
  size_t pos_ = 0;
  bool root_seen_ = false;
  bool finished_ = false;
  Token last_{TokenKind::kEnd, 0, 0};   ///< replayed once finished_
  std::vector<std::string_view> open_;  ///< names of the open elements
};

}  // namespace griddb::rpc::xml_reader
