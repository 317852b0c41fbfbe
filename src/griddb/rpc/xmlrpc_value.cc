#include "griddb/rpc/xmlrpc_value.h"

#include <algorithm>
#include <charconv>
#include <string_view>

#include "griddb/rpc/xml_reader.h"
#include "griddb/util/strings.h"
#include "griddb/xml/xml.h"

namespace griddb::rpc {

using storage::DataType;
using storage::Value;

namespace {

// ---- direct-to-string XML writer ----
//
// The text codec's only writer. Emits in one pass over a pre-sized
// buffer exactly what a generic element-tree writer emits in compact
// mode: numbers append their digits raw (nothing to escape; std::to_chars
// writes the same bytes as %lld and %.17g without a format string), and
// string content takes a find_first_of fast path that bulk-appends when
// no escapable character occurs.

constexpr std::string_view kDeclaration =
    "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";

void AppendInt(int64_t v, std::string* out) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, end);
}

void AppendDouble(double v, std::string* out) {
  char buf[32];  // %.17g needs at most 24 ("-2.2250738585072014e-308")
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v,
                                       std::chars_format::general, 17);
  out->append(buf, end);
}

void AppendHex(uint64_t v, std::string* out) {
  char buf[16];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v, 16);
  out->append(buf, end);
}

/// <tag>escaped text</tag>, or <tag/> when the text is empty.
void AppendTextElement(std::string_view tag, std::string_view text,
                       std::string* out) {
  out->push_back('<');
  out->append(tag);
  if (text.empty()) {
    out->append("/>");
    return;
  }
  out->push_back('>');
  xml::AppendEscaped(text, out);
  out->append("</");
  out->append(tag);
  out->push_back('>');
}

void AppendIntXml(int64_t v, std::string* out) {
  out->append("<value><i4>");
  AppendInt(v, out);
  out->append("</i4></value>");
}

void AppendDoubleXml(double v, std::string* out) {
  out->append("<value><double>");
  AppendDouble(v, out);
  out->append("</double></value>");
}

void AppendBoolXml(bool v, std::string* out) {
  out->append(v ? "<value><boolean>1</boolean></value>"
                : "<value><boolean>0</boolean></value>");
}

void AppendStringXml(std::string_view v, std::string* out) {
  out->append("<value>");
  AppendTextElement("string", v, out);
  out->append("</value>");
}

void AppendCellXml(const Value& cell, std::string* out) {
  switch (cell.type()) {
    case DataType::kNull: out->append("<value><nil/></value>"); break;
    case DataType::kInt64: AppendIntXml(cell.AsInt64Strict(), out); break;
    case DataType::kDouble: AppendDoubleXml(cell.AsDoubleStrict(), out); break;
    case DataType::kBool: AppendBoolXml(cell.AsBoolStrict(), out); break;
    case DataType::kString: AppendStringXml(cell.AsStringStrict(), out); break;
  }
}

void AppendResultSetXml(const storage::ResultSet& rs, std::string* out) {
  // The classic struct{columns,rows} encoding, member order (columns <
  // rows) as std::map iterates it.
  out->append("<value><struct><member><name>columns</name><value><array>");
  if (rs.columns.empty()) {
    out->append("<data/>");
  } else {
    out->append("<data>");
    for (const std::string& c : rs.columns) AppendStringXml(c, out);
    out->append("</data>");
  }
  out->append("</array></value></member><member><name>rows</name>"
              "<value><array>");
  if (rs.rows.empty()) {
    out->append("<data/>");
  } else {
    out->append("<data>");
    for (const storage::Row& row : rs.rows) {
      out->append("<value><array>");
      if (row.empty()) {
        out->append("<data/>");
      } else {
        out->append("<data>");
        for (const Value& cell : row) AppendCellXml(cell, out);
        out->append("</data>");
      }
      out->append("</array></value>");
    }
    out->append("</data>");
  }
  out->append("</array></value></member></struct></value>");
}

size_t EstimateCellXmlSize(const Value& cell) {
  switch (cell.type()) {
    case DataType::kNull: return 22;
    case DataType::kInt64: return 38;
    case DataType::kDouble: return 52;
    case DataType::kBool: return 36;
    case DataType::kString: return 34 + cell.AsStringStrict().size();
  }
  return 22;
}

}  // namespace

Result<int64_t> XmlRpcValue::AsInt() const {
  if (const auto* v = std::get_if<int64_t>(&data_)) return *v;
  return TypeError("XML-RPC value is not an int");
}

Result<double> XmlRpcValue::AsDouble() const {
  if (const auto* v = std::get_if<double>(&data_)) return *v;
  if (const auto* v = std::get_if<int64_t>(&data_)) {
    return static_cast<double>(*v);
  }
  return TypeError("XML-RPC value is not a double");
}

Result<bool> XmlRpcValue::AsBool() const {
  if (const auto* v = std::get_if<bool>(&data_)) return *v;
  return TypeError("XML-RPC value is not a boolean");
}

Result<std::string> XmlRpcValue::AsString() const {
  if (const auto* v = std::get_if<std::string>(&data_)) return *v;
  return TypeError("XML-RPC value is not a string");
}

Result<const XmlRpcArray*> XmlRpcValue::AsArray() const {
  if (const auto* v = std::get_if<XmlRpcArray>(&data_)) return v;
  return TypeError("XML-RPC value is not an array");
}

Result<const XmlRpcStruct*> XmlRpcValue::AsStruct() const {
  if (const auto* v = std::get_if<XmlRpcStruct>(&data_)) return v;
  return TypeError("XML-RPC value is not a struct");
}

Result<const XmlRpcValue*> XmlRpcValue::Member(const std::string& key) const {
  GRIDDB_ASSIGN_OR_RETURN(const XmlRpcStruct* s, AsStruct());
  auto it = s->find(key);
  if (it == s->end()) return NotFound("struct member '" + key + "' absent");
  return &it->second;
}

void XmlRpcValue::AppendXml(std::string* out) const {
  if (is_empty()) {
    out->append("<value><nil/></value>");
  } else if (const auto* i = std::get_if<int64_t>(&data_)) {
    AppendIntXml(*i, out);
  } else if (const auto* d = std::get_if<double>(&data_)) {
    AppendDoubleXml(*d, out);
  } else if (const auto* b = std::get_if<bool>(&data_)) {
    AppendBoolXml(*b, out);
  } else if (const auto* s = std::get_if<std::string>(&data_)) {
    AppendStringXml(*s, out);
  } else if (const auto* array = std::get_if<XmlRpcArray>(&data_)) {
    out->append("<value><array>");
    if (array->empty()) {
      out->append("<data/>");
    } else {
      out->append("<data>");
      for (const XmlRpcValue& item : *array) item.AppendXml(out);
      out->append("</data>");
    }
    out->append("</array></value>");
  } else if (const auto* record = std::get_if<XmlRpcStruct>(&data_)) {
    if (record->empty()) {
      out->append("<value><struct/></value>");
    } else {
      out->append("<value><struct>");
      for (const auto& [key, member] : *record) {
        out->append("<member>");
        AppendTextElement("name", key, out);
        member.AppendXml(out);
        out->append("</member>");
      }
      out->append("</struct></value>");
    }
  } else if (const auto* rs = std::get_if<ResultSetPtr>(&data_)) {
    AppendResultSetXml(**rs, out);
  }
}

size_t XmlRpcValue::EstimateXmlSize() const {
  if (const auto* s = std::get_if<std::string>(&data_)) {
    return 34 + s->size() + s->size() / 8;
  }
  if (const auto* array = std::get_if<XmlRpcArray>(&data_)) {
    size_t total = 30;
    for (const XmlRpcValue& item : *array) total += item.EstimateXmlSize();
    return total;
  }
  if (const auto* record = std::get_if<XmlRpcStruct>(&data_)) {
    size_t total = 32;
    for (const auto& [key, member] : *record) {
      total += 30 + key.size() + member.EstimateXmlSize();
    }
    return total;
  }
  if (const auto* rs = std::get_if<ResultSetPtr>(&data_)) {
    size_t total = 140;
    for (const std::string& c : (*rs)->columns) total += 34 + c.size();
    for (const storage::Row& row : (*rs)->rows) {
      total += 30;
      for (const Value& cell : row) total += EstimateCellXmlSize(cell);
    }
    return total;
  }
  return 52;  // nil / int / double / bool upper bound
}

bool XmlRpcValue::operator==(const XmlRpcValue& other) const {
  if (!is_result_set() && !other.is_result_set()) {
    return data_ == other.data_;
  }
  // A wrapped result set and its struct boxing are the same wire value;
  // compare through the canonical serialization.
  std::string a, b;
  AppendXml(&a);
  other.AppendXml(&b);
  return a == b;
}

size_t XmlRpcValue::WireSize() const {
  std::string out;
  out.reserve(EstimateXmlSize());
  AppendXml(&out);
  return out.size();
}

// ---- ResultSet interop ----

XmlRpcValue ResultSetToRpc(const storage::ResultSet& rs) {
  return XmlRpcValue(std::make_shared<storage::ResultSet>(rs));
}

XmlRpcValue ResultSetToRpc(storage::ResultSet&& rs) {
  return XmlRpcValue(std::make_shared<storage::ResultSet>(std::move(rs)));
}

namespace {
/// A peer's result row must be exactly as wide as the column list.
Status CheckRowWidth(size_t row, size_t cells, size_t columns) {
  if (cells == columns) return Status::Ok();
  return TypeError("result set row " + std::to_string(row) + " has " +
                   std::to_string(cells) + " cells for " +
                   std::to_string(columns) + " columns");
}
}  // namespace

Result<storage::ResultSet> RpcToResultSet(const XmlRpcValue& value) {
  if (const storage::ResultSet* native = value.result_set()) {
    for (size_t r = 0; r < native->rows.size(); ++r) {
      GRIDDB_RETURN_IF_ERROR(CheckRowWidth(r, native->rows[r].size(),
                                           native->columns.size()));
    }
    return *native;
  }
  storage::ResultSet rs;
  GRIDDB_ASSIGN_OR_RETURN(const XmlRpcValue* columns, value.Member("columns"));
  GRIDDB_ASSIGN_OR_RETURN(const XmlRpcArray* column_items, columns->AsArray());
  for (const XmlRpcValue& c : *column_items) {
    GRIDDB_ASSIGN_OR_RETURN(std::string name, c.AsString());
    rs.columns.push_back(std::move(name));
  }
  GRIDDB_ASSIGN_OR_RETURN(const XmlRpcValue* rows, value.Member("rows"));
  GRIDDB_ASSIGN_OR_RETURN(const XmlRpcArray* row_items, rows->AsArray());
  rs.rows.reserve(row_items->size());
  for (const XmlRpcValue& row_value : *row_items) {
    GRIDDB_ASSIGN_OR_RETURN(const XmlRpcArray* cells, row_value.AsArray());
    GRIDDB_RETURN_IF_ERROR(
        CheckRowWidth(rs.rows.size(), cells->size(), rs.columns.size()));
    storage::Row row;
    row.reserve(cells->size());
    for (const XmlRpcValue& cell : *cells) {
      if (cell.is_empty()) row.push_back(Value::Null());
      else if (cell.is_int()) row.push_back(Value(cell.AsInt().value()));
      else if (cell.is_double()) row.push_back(Value(cell.AsDouble().value()));
      else if (cell.is_bool()) row.push_back(Value(cell.AsBool().value()));
      else if (cell.is_string()) row.push_back(Value(cell.AsString().value()));
      else return TypeError("unsupported cell type in result set");
    }
    rs.rows.push_back(std::move(row));
  }
  return rs;
}

// ---- message codec ----

namespace {

namespace xr = xml_reader;

bool IsXmlSpace(std::string_view text) {
  for (char c : text) {
    if (c != ' ' && c != '\n' && c != '\t' && c != '\r') return false;
  }
  return true;
}

std::string_view TrimXmlSpace(std::string_view text) {
  const size_t first = text.find_first_not_of(" \n\t\r");
  if (first == std::string_view::npos) return {};
  return text.substr(first, text.find_last_not_of(" \n\t\r") - first + 1);
}

/// XML-RPC allows an explicit '+' that std::from_chars does not.
std::string_view DropPlus(std::string_view text) {
  if (text.size() > 1 && text[0] == '+' && text[1] != '-' && text[1] != '+') {
    text.remove_prefix(1);
  }
  return text;
}

bool ParseIntText(std::string_view text, int64_t* out) {
  text = DropPlus(text);
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, *out);
  return !text.empty() && ec == std::errc() && stop == end;
}

bool ParseDoubleText(std::string_view text, double* out) {
  text = DropPlus(text);
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, *out);
  if (text.empty() || stop != end) return false;
  if (ec == std::errc()) return true;
  // Out of range: ParseDouble owns the rule (underflow rounds, overflow
  // is an error).
  return ec == std::errc::result_out_of_range && ParseDouble(text, out);
}

bool ParseBoolText(std::string_view text, bool* out) {
  if (text != "0" && text != "1") return false;
  *out = text == "1";
  return true;
}

bool ParseHexText(std::string_view text, uint64_t* out) {
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, *out, 16);
  return !text.empty() && ec == std::errc() && stop == end;
}

bool IsCharData(xr::TokenKind kind) {
  return kind == xr::TokenKind::kText || kind == xr::TokenKind::kCData;
}

/// A reserve() hint is never trusted beyond what the remaining input could
/// hold (the shortest element is "<value/>") nor beyond a small cap, so a
/// crafted message cannot make the decoder allocate ahead of its bytes.
constexpr size_t kMinValueBytes = 8;
constexpr size_t kMaxReserveHint = 64;

/// One XML-RPC message, decoded in a single pull pass. Every method
/// returns false after recording the first error; status() reports it.
class Decoder {
 public:
  explicit Decoder(std::string_view raw) : reader_(raw) {}

  Status status() const { return ParseError(error_); }
  /// Records `message` at `t` and returns the resulting status.
  Status Error(const xr::Token& t, std::string message) {
    Fail(t.begin, std::move(message));
    return status();
  }
  std::string_view View(const xr::Token& t) const { return reader_.View(t); }

  /// The next start tag, which must be <name> (not self-closing).
  bool Open(std::string_view name) {
    xr::Token t;
    if (!NextTag(&t)) return false;
    if (t.kind != xr::TokenKind::kOpen || reader_.View(t) != name) {
      return Fail(t.begin, "expected <" + std::string(name) + ">");
    }
    return true;
  }

  /// The end of the current element (the reader matched its name).
  bool Close() {
    xr::Token t;
    if (!NextTag(&t)) return false;
    if (t.kind != xr::TokenKind::kClose) {
      return Fail(t.begin, "unexpected element <" +
                               std::string(reader_.View(t)) + ">");
    }
    return true;
  }

  /// Nothing but comments and whitespace after the document element.
  bool End() {
    xr::Token t = reader_.Next();
    if (t.kind == xr::TokenKind::kEnd) return true;
    return IsError(t.kind) ? FailToken(t)
                           : Fail(t.begin, "trailing content");
  }

  /// The next tag, skipping whitespace-only character data.
  bool NextTag(xr::Token* t) {
    for (*t = reader_.Next(); IsCharData(t->kind); *t = reader_.Next()) {
      if (t->kind == xr::TokenKind::kCData || !IsXmlSpace(reader_.View(*t))) {
        return Fail(t->begin, "unexpected character data between elements");
      }
    }
    return !IsError(t->kind) || FailToken(*t);
  }

  /// The character data that follows, verbatim and entity-decoded, and
  /// the tag token after it. *text views the input when the data is one
  /// run without references (the common case), else views *scratch.
  bool ReadText(std::string_view* text, std::string* scratch,
                xr::Token* after) {
    xr::Token t = reader_.Next();
    *text = {};
    if (IsCharData(t.kind)) {
      xr::Token next = reader_.Next();
      const std::string_view raw = reader_.View(t);
      if (!IsCharData(next.kind) &&
          (t.kind == xr::TokenKind::kCData ||
           raw.find('&') == std::string_view::npos)) {
        *text = raw;
        t = next;
      } else {
        scratch->clear();
        if (!AppendCharData(t, scratch)) return false;
        for (t = next; IsCharData(t.kind); t = reader_.Next()) {
          if (!AppendCharData(t, scratch)) return false;
        }
        *text = *scratch;
      }
    }
    *after = t;
    return !IsError(t.kind) || FailToken(t);
  }

  /// The text content of the element whose start tag `tag` just was.
  bool ElementText(const xr::Token& tag, std::string_view* text,
                   std::string* scratch) {
    *text = {};
    if (tag.kind == xr::TokenKind::kSelfClosing) return true;
    xr::Token after;
    if (!ReadText(text, scratch, &after)) return false;
    if (after.kind != xr::TokenKind::kClose) {
      return Fail(after.begin, "<" + std::string(reader_.View(tag)) +
                                   "> holds an element");
    }
    return true;
  }

  /// The next element, which must be <value> (or <value/>).
  bool NextValue(XmlRpcValue* out) {
    xr::Token t;
    if (!NextTag(&t)) return false;
    if (t.kind == xr::TokenKind::kClose || reader_.View(t) != "value") {
      return Fail(t.begin, "expected <value>");
    }
    return Value(t, out);
  }

 private:
  /// A <value> element whose start tag `tag` just was.
  bool Value(const xr::Token& tag, XmlRpcValue* out) {
    if (tag.kind == xr::TokenKind::kSelfClosing) {
      *out = XmlRpcValue(std::string());
      return true;
    }
    std::string_view text;
    std::string scratch;
    xr::Token type;
    if (!ReadText(&text, &scratch, &type)) return false;
    // Bare text inside <value> is a string per the XML-RPC spec.
    if (type.kind == xr::TokenKind::kClose) {
      *out = XmlRpcValue(std::string(text));
      return true;
    }
    if (!IsXmlSpace(text)) {
      return Fail(type.begin, "<value> mixes text with a typed element");
    }
    return Typed(type, out) && Close();
  }

  bool Typed(const xr::Token& tag, XmlRpcValue* out) {
    const std::string_view type = reader_.View(tag);
    std::string_view text;
    std::string scratch;
    if (type == "string") {
      if (!ElementText(tag, &text, &scratch)) return false;
      *out = XmlRpcValue(std::string(text));
      return true;
    }
    if (type == "i4" || type == "int") return Scalar(tag, ParseIntText, out);
    if (type == "double") return Scalar(tag, ParseDoubleText, out);
    if (type == "boolean") return Scalar(tag, ParseBoolText, out);
    if (type == "nil") {
      if (!ElementText(tag, &text, &scratch)) return false;
      if (!IsXmlSpace(text)) return Fail(tag.begin, "<nil> holds text");
      *out = XmlRpcValue();
      return true;
    }
    if (type == "array") {
      return tag.kind == xr::TokenKind::kOpen
                 ? Array(out)
                 : Fail(tag.begin, "<array> without <data>");
    }
    if (type == "struct") {
      if (tag.kind == xr::TokenKind::kSelfClosing) {
        *out = XmlRpcValue(XmlRpcStruct());
        return true;
      }
      return Struct(out);
    }
    return Fail(tag.begin, "unknown XML-RPC type <" + std::string(type) + ">");
  }

  /// A number or boolean element: its text, edge whitespace ignored.
  template <typename T>
  bool Scalar(const xr::Token& tag, bool (*parse)(std::string_view, T*),
              XmlRpcValue* out) {
    std::string_view text;
    std::string scratch;
    if (!ElementText(tag, &text, &scratch)) return false;
    T v{};
    if (!parse(TrimXmlSpace(text), &v)) {
      return Fail(tag.begin, "bad XML-RPC " + std::string(reader_.View(tag)) +
                                 " '" + std::string(text) + "'");
    }
    *out = XmlRpcValue(v);
    return true;
  }

  /// After <array>: <data> values </data> </array>.
  bool Array(XmlRpcValue* out) {
    xr::Token t;
    if (!NextTag(&t)) return false;
    if (t.kind == xr::TokenKind::kClose || reader_.View(t) != "data") {
      return Fail(t.begin, "<array> without <data>");
    }
    XmlRpcArray items;
    if (t.kind == xr::TokenKind::kOpen) {
      // Rows of a result set share a width: size each array like the
      // last one that closed.
      items.reserve(std::min({last_array_size_, kMaxReserveHint,
                              reader_.remaining() / kMinValueBytes}));
      while (true) {
        if (!NextTag(&t)) return false;
        if (t.kind == xr::TokenKind::kClose) break;
        if (reader_.View(t) != "value") {
          return Fail(t.begin, "<data> child is not <value>");
        }
        if (!Value(t, &items.emplace_back())) return false;
      }
    }
    last_array_size_ = items.size();
    *out = XmlRpcValue(std::move(items));
    return Close();
  }

  /// After <struct>: (<member><name>k</name><value>v</value></member>)*
  /// </struct>. A repeated name keeps its last value.
  bool Struct(XmlRpcValue* out) {
    XmlRpcStruct record;
    xr::Token t;
    while (true) {
      if (!NextTag(&t)) return false;
      if (t.kind == xr::TokenKind::kClose) break;
      if (t.kind != xr::TokenKind::kOpen || reader_.View(t) != "member") {
        return Fail(t.begin, "<struct> child is not <member>");
      }
      if (!NextTag(&t)) return false;
      if (t.kind == xr::TokenKind::kClose || reader_.View(t) != "name") {
        return Fail(t.begin, "<member> without <name>");
      }
      std::string_view name;
      std::string scratch;
      if (!ElementText(t, &name, &scratch)) return false;
      // Decoded in place; a repeated name is overwritten (last one wins).
      auto member = record.try_emplace(record.end(), std::string(name));
      if (!NextValue(&member->second) || !Close()) return false;
    }
    *out = XmlRpcValue(std::move(record));
    return true;
  }

  bool AppendCharData(const xr::Token& t, std::string* out) {
    if (t.kind == xr::TokenKind::kCData) {
      out->append(reader_.View(t));
      return true;
    }
    Status decoded = xml::AppendUnescaped(reader_.View(t), out);
    return decoded.ok() || Fail(t.begin, decoded.message());
  }

  bool FailToken(const xr::Token& t) {
    return Fail(t.begin, xr::ErrorText(t.kind));
  }

  bool Fail(size_t offset, std::string message) {
    if (error_.empty()) {
      error_ = "XML-RPC offset " + std::to_string(offset) + ": " +
               std::move(message);
    }
    return false;
  }

  xr::Reader reader_;
  size_t last_array_size_ = 0;
  std::string error_;
};

}  // namespace

std::string EncodeRequest(const RpcRequest& request) {
  size_t estimate = kDeclaration.size() + 160 + request.method.size() +
                    request.session_token.size() + request.tenant.size() +
                    request.wire_accept.size();
  for (const XmlRpcValue& param : request.params) {
    estimate += 15 + param.EstimateXmlSize();
  }
  std::string out;
  out.reserve(estimate);
  out.append(kDeclaration);
  out.append("<methodCall>");
  AppendTextElement("methodName", request.method, &out);
  if (!request.session_token.empty()) {
    AppendTextElement("sessionToken", request.session_token, &out);
  }
  // Sparse: untraced requests carry no trace element at all.
  if (request.trace_id != 0) {
    out.append("<traceContext>");
    AppendHex(request.trace_id, &out);
    out.push_back(':');
    AppendHex(request.parent_span_id, &out);
    out.append("</traceContext>");
  }
  // Sparse: calls without a deadline carry no budget element at all.
  if (request.deadline_ms > 0) {
    out.append("<deadlineMs>");
    AppendDouble(request.deadline_ms, &out);
    out.append("</deadlineMs>");
  }
  // Sparse: anonymous-tenant calls carry no tenant element at all.
  if (!request.tenant.empty()) {
    AppendTextElement("tenant", request.tenant, &out);
  }
  // Sparse: clients that never negotiated binary framing carry no
  // wireAccept element at all (the byte-identity invariant again).
  if (!request.wire_accept.empty()) {
    AppendTextElement("wireAccept", request.wire_accept, &out);
  }
  if (request.params.empty()) {
    out.append("<params/>");
  } else {
    out.append("<params>");
    for (const XmlRpcValue& param : request.params) {
      out.append("<param>");
      param.AppendXml(&out);
      out.append("</param>");
    }
    out.append("</params>");
  }
  out.append("</methodCall>");
  return out;
}

Result<RpcRequest> DecodeRequest(std::string_view raw) {
  Decoder in(raw);
  RpcRequest request;
  if (!in.Open("methodCall")) return in.status();
  xr::Token t;
  std::string scratch;
  while (true) {
    if (!in.NextTag(&t)) return in.status();
    if (t.kind == xr::TokenKind::kClose) break;
    const std::string_view tag = in.View(t);
    if (tag == "params") {
      if (t.kind == xr::TokenKind::kSelfClosing) continue;
      while (true) {
        if (!in.NextTag(&t)) return in.status();
        if (t.kind == xr::TokenKind::kClose) break;
        if (t.kind != xr::TokenKind::kOpen || in.View(t) != "param") {
          return in.Error(t, "malformed <param>");
        }
        if (!in.NextValue(&request.params.emplace_back()) || !in.Close()) {
          return in.status();
        }
      }
      continue;
    }
    std::string_view text;
    if (!in.ElementText(t, &text, &scratch)) return in.status();
    if (tag == "traceContext") {
      const std::string_view trace = TrimXmlSpace(text);
      const size_t colon = trace.find(':');
      if (colon == std::string_view::npos ||
          !ParseHexText(trace.substr(0, colon), &request.trace_id) ||
          !ParseHexText(trace.substr(colon + 1), &request.parent_span_id)) {
        return in.Error(t, "malformed <traceContext> '" + std::string(text) +
                               "'");
      }
    } else if (tag == "deadlineMs") {
      if (!ParseDoubleText(TrimXmlSpace(text), &request.deadline_ms) ||
          !(request.deadline_ms >= 0)) {
        return in.Error(t, "malformed <deadlineMs> '" + std::string(text) +
                               "'");
      }
    } else if (tag == "methodName") {
      request.method = text;
    } else if (tag == "sessionToken") {
      request.session_token = text;
    } else if (tag == "tenant") {
      request.tenant = text;
    } else if (tag == "wireAccept") {
      request.wire_accept = text;
    }
    // Any other text-only header element is ignored, so newer peers may
    // add some.
  }
  if (!in.End()) return in.status();
  if (request.method.empty()) return ParseError("missing <methodName>");
  return request;
}

std::string EncodeResponse(const XmlRpcValue& value) {
  static constexpr std::string_view kPrefix =
      "<methodResponse><params><param>";
  static constexpr std::string_view kSuffix =
      "</param></params></methodResponse>";
  std::string out;
  out.reserve(kDeclaration.size() + kPrefix.size() + kSuffix.size() +
              value.EstimateXmlSize());
  out.append(kDeclaration);
  out.append(kPrefix);
  value.AppendXml(&out);
  out.append(kSuffix);
  return out;
}

std::string EncodeFault(const Status& status) {
  XmlRpcStruct detail;
  detail["faultCode"] = static_cast<int64_t>(status.code());
  detail["faultString"] = std::string(StatusCodeName(status.code())) + ": " +
                          status.message();
  const XmlRpcValue value(std::move(detail));
  std::string out;
  out.reserve(kDeclaration.size() + 64 + value.EstimateXmlSize());
  out.append(kDeclaration);
  out.append("<methodResponse><fault>");
  value.AppendXml(&out);
  out.append("</fault></methodResponse>");
  return out;
}

Result<XmlRpcValue> DecodeResponse(std::string_view raw) {
  Decoder in(raw);
  if (!in.Open("methodResponse")) return in.status();
  xr::Token t;
  if (!in.NextTag(&t)) return in.status();
  const bool fault = t.kind == xr::TokenKind::kOpen && in.View(t) == "fault";
  if (!fault && (t.kind != xr::TokenKind::kOpen || in.View(t) != "params")) {
    return in.Error(t, "response missing <params>");
  }
  XmlRpcValue value;
  if ((!fault && !in.Open("param")) || !in.NextValue(&value) ||
      (!fault && !in.Close()) || !in.Close() || !in.Close() || !in.End()) {
    return in.status();
  }
  if (!fault) return value;

  auto code_member = value.Member("faultCode");
  auto text_member = value.Member("faultString");
  StatusCode code = StatusCode::kInternal;
  std::string message = "remote fault";
  if (code_member.ok()) {
    auto code_value = (*code_member)->AsInt();
    if (code_value.ok()) code = static_cast<StatusCode>(*code_value);
  }
  if (text_member.ok()) {
    auto text = (*text_member)->AsString();
    if (text.ok()) message = *text;
  }
  // EncodeFault wrote "<CODE>: <msg>" for human readers of the raw
  // fault; the Status carries the code separately, so drop the prefix
  // (Status::ToString adds it back once, and a relay re-encodes it once).
  const std::string prefix = std::string(StatusCodeName(code)) + ": ";
  if (message.rfind(prefix, 0) == 0) message.erase(0, prefix.size());
  if (code == StatusCode::kOk) code = StatusCode::kInternal;
  return Status(code, message);
}

}  // namespace griddb::rpc
