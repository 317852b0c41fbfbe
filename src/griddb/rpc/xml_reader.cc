#include "griddb/rpc/xml_reader.h"

#include <array>
#include <cstring>

#include "griddb/xml/xml.h"

namespace griddb::rpc::xml_reader {

namespace {

bool IsSpace(char c) {
  return c == ' ' || c == '\n' || c == '\t' || c == '\r';
}

// Name characters by table: tag names are scanned once per tag.
constexpr uint8_t kNameStart = 1;
constexpr uint8_t kNameChar = 2;
constexpr std::array<uint8_t, 256> kNameClass = [] {
  std::array<uint8_t, 256> table{};
  for (int c = 0; c < 256; ++c) {
    const bool start = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       c == '_' || c == ':';
    const bool rest = start || (c >= '0' && c <= '9') || c == '-' || c == '.';
    table[c] = static_cast<uint8_t>((start ? kNameStart : 0) |
                                    (rest ? kNameChar : 0));
  }
  return table;
}();
bool IsNameStart(char c) {
  return kNameClass[static_cast<unsigned char>(c)] & kNameStart;
}
bool IsNameChar(char c) {
  return kNameClass[static_cast<unsigned char>(c)] & kNameChar;
}

}  // namespace

const char* ErrorText(TokenKind kind) {
  switch (kind) {
    case TokenKind::kErrorUnexpectedEnd: return "unexpected end of input";
    case TokenKind::kErrorBadName: return "expected an element name";
    case TokenKind::kErrorBadAttribute: return "malformed attribute";
    case TokenKind::kErrorMismatchedClose:
      return "close tag does not match the open element";
    case TokenKind::kErrorTooDeep: return "elements nest too deep";
    case TokenKind::kErrorUnterminatedComment: return "unterminated comment";
    case TokenKind::kErrorUnterminatedCData: return "unterminated CDATA";
    case TokenKind::kErrorMalformedTag: return "malformed tag";
    case TokenKind::kErrorContentOutsideRoot:
      return "content outside the document element";
    default: return "not an error";
  }
}

Token Reader::Finish(TokenKind kind, size_t at) {
  finished_ = true;
  last_ = Token{kind, at, at};
  return last_;
}

Token Reader::Next() {
  if (finished_) return last_;
  const size_t size = input_.size();
  while (true) {
    if (pos_ >= size) {
      if (!open_.empty() || !root_seen_) {
        return Finish(TokenKind::kErrorUnexpectedEnd, pos_);
      }
      return Finish(TokenKind::kEnd, pos_);
    }
    if (input_[pos_] != '<') {
      const size_t start = pos_;
      const void* lt = std::memchr(input_.data() + pos_, '<', size - pos_);
      pos_ = lt ? static_cast<size_t>(static_cast<const char*>(lt) -
                                      input_.data())
                : size;
      if (!open_.empty()) return Token{TokenKind::kText, start, pos_};
      for (size_t i = start; i < pos_; ++i) {
        if (!IsSpace(input_[i])) {
          return Finish(TokenKind::kErrorContentOutsideRoot, i);
        }
      }
      continue;
    }
    if (pos_ + 1 >= size ||
        (input_[pos_ + 1] != '!' && input_[pos_ + 1] != '?')) {
      return ReadTag();
    }
    const std::string_view rest = input_.substr(pos_);
    if (rest.substr(0, 4) == "<!--") {
      const size_t close = input_.find("-->", pos_ + 4);
      if (close == std::string_view::npos) {
        return Finish(TokenKind::kErrorUnterminatedComment, pos_);
      }
      pos_ = close + 3;
    } else if (rest.substr(0, 9) == "<![CDATA[") {
      if (open_.empty()) {
        return Finish(TokenKind::kErrorContentOutsideRoot, pos_);
      }
      const size_t close = input_.find("]]>", pos_ + 9);
      if (close == std::string_view::npos) {
        return Finish(TokenKind::kErrorUnterminatedCData, pos_);
      }
      const Token data{TokenKind::kCData, pos_ + 9, close};
      pos_ = close + 3;
      return data;
    } else if (rest[1] == '?') {
      // The XML declaration or another processing instruction.
      const size_t close = input_.find("?>", pos_ + 2);
      if (close == std::string_view::npos) {
        return Finish(TokenKind::kErrorUnexpectedEnd, size);
      }
      pos_ = close + 2;
    } else {
      // Including <!DOCTYPE: XML-RPC has no DTD, so none is expanded.
      return Finish(TokenKind::kErrorMalformedTag, pos_);
    }
  }
}

TokenKind Reader::SkipAttributes(size_t* at) const {
  const size_t size = input_.size();
  size_t& p = *at;
  while (true) {
    const size_t before_space = p;
    while (p < size && IsSpace(input_[p])) ++p;
    if (p >= size) return TokenKind::kErrorUnexpectedEnd;
    if (input_[p] == '>') {
      ++p;
      return TokenKind::kOpen;
    }
    if (input_[p] == '/') {
      if (p + 1 >= size) return TokenKind::kErrorUnexpectedEnd;
      if (input_[p + 1] != '>') return TokenKind::kErrorMalformedTag;
      p += 2;
      return TokenKind::kSelfClosing;
    }
    if (p == before_space || !IsNameStart(input_[p])) {
      return TokenKind::kErrorBadAttribute;
    }
    while (p < size && IsNameChar(input_[p])) ++p;
    while (p < size && IsSpace(input_[p])) ++p;
    if (p >= size || input_[p] != '=') return TokenKind::kErrorBadAttribute;
    ++p;
    while (p < size && IsSpace(input_[p])) ++p;
    if (p >= size || (input_[p] != '"' && input_[p] != '\'')) {
      return TokenKind::kErrorBadAttribute;
    }
    const size_t close = input_.find(input_[p], p + 1);
    if (close == std::string_view::npos) {
      p = size;
      return TokenKind::kErrorUnexpectedEnd;
    }
    p = close + 1;
  }
}

Token Reader::ReadTag() {
  const size_t size = input_.size();
  size_t p = pos_ + 1;
  const bool closing = p < size && input_[p] == '/';
  if (closing) ++p;
  // The common end tag: "</" + the innermost open name + '>'.
  if (closing && !open_.empty()) {
    const std::string_view expect = open_.back();
    const size_t stop = p + expect.size();
    if (stop < size && input_[stop] == '>' &&
        input_.compare(p, expect.size(), expect) == 0) {
      open_.pop_back();
      pos_ = stop + 1;
      return Token{TokenKind::kClose, p, stop};
    }
  }
  const size_t name_begin = p;
  if (p >= size) return Finish(TokenKind::kErrorUnexpectedEnd, p);
  if (!IsNameStart(input_[p])) return Finish(TokenKind::kErrorBadName, p);
  while (p < size && IsNameChar(input_[p])) ++p;
  const size_t name_end = p;
  const std::string_view name = input_.substr(name_begin, name_end - name_begin);

  if (closing) {
    while (p < size && IsSpace(input_[p])) ++p;
    if (p >= size) return Finish(TokenKind::kErrorUnexpectedEnd, p);
    if (input_[p] != '>') return Finish(TokenKind::kErrorMalformedTag, p);
    if (open_.empty() || open_.back() != name) {
      return Finish(TokenKind::kErrorMismatchedClose, name_begin);
    }
    open_.pop_back();
    pos_ = p + 1;
    return Token{TokenKind::kClose, name_begin, name_end};
  }

  TokenKind kind = TokenKind::kOpen;
  if (p < size && input_[p] == '>') {
    ++p;  // the common case: XML-RPC tags carry no attributes
  } else {
    kind = SkipAttributes(&p);
    if (IsError(kind)) return Finish(kind, p);
  }

  if (open_.empty() && root_seen_) {
    return Finish(TokenKind::kErrorContentOutsideRoot, pos_);
  }
  if (open_.size() >= static_cast<size_t>(xml::kMaxDepth)) {
    return Finish(TokenKind::kErrorTooDeep, pos_);
  }
  root_seen_ = true;
  if (kind == TokenKind::kOpen) open_.push_back(name);
  pos_ = p;
  return Token{kind, name_begin, name_end};
}

}  // namespace griddb::rpc::xml_reader
