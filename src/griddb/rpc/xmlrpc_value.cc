#include "griddb/rpc/xmlrpc_value.h"

#include <cstdio>
#include <string_view>

#include "griddb/util/strings.h"

namespace griddb::rpc {

using storage::DataType;
using storage::Value;

namespace {

/// The classic struct{columns,rows} boxing of a result set (what
/// ResultSetToRpc produced before wrapped sets existed). The XML writer
/// and the equality operator render wrapped sets through this shape, so
/// the text wire format is oblivious to the wrapping.
XmlRpcStruct ResultSetToStruct(const storage::ResultSet& rs) {
  XmlRpcArray columns;
  columns.reserve(rs.columns.size());
  for (const std::string& c : rs.columns) columns.emplace_back(c);

  XmlRpcArray rows;
  rows.reserve(rs.rows.size());
  for (const storage::Row& row : rs.rows) {
    XmlRpcArray cells;
    cells.reserve(row.size());
    for (const Value& cell : row) {
      switch (cell.type()) {
        case DataType::kNull: cells.emplace_back(); break;
        case DataType::kInt64: cells.emplace_back(cell.AsInt64Strict()); break;
        case DataType::kDouble: cells.emplace_back(cell.AsDoubleStrict()); break;
        case DataType::kBool: cells.emplace_back(cell.AsBoolStrict()); break;
        case DataType::kString: cells.emplace_back(cell.AsStringStrict()); break;
      }
    }
    rows.emplace_back(std::move(cells));
  }
  XmlRpcStruct out;
  out["columns"] = std::move(columns);
  out["rows"] = std::move(rows);
  return out;
}

// ---- direct-to-string XML writer ----
//
// The text codec's hot path. Emits exactly what the Node-tree writer
// emits in compact mode, but in one pass over a pre-sized buffer:
// numeric cells append their digits raw (nothing to escape), and string
// content takes a find_first_of fast path that bulk-appends when no
// escapable character occurs.

constexpr std::string_view kXmlSpecials = "&<>\"'";

void AppendEscaped(std::string_view raw, std::string* out) {
  size_t plain = raw.find_first_of(kXmlSpecials);
  if (plain == std::string_view::npos) {
    out->append(raw);
    return;
  }
  out->append(raw, 0, plain);
  for (size_t i = plain; i < raw.size(); ++i) {
    switch (raw[i]) {
      case '&': *out += "&amp;"; break;
      case '<': *out += "&lt;"; break;
      case '>': *out += "&gt;"; break;
      case '"': *out += "&quot;"; break;
      case '\'': *out += "&apos;"; break;
      default: *out += raw[i];
    }
  }
}

void AppendCellXml(const Value& cell, std::string* out) {
  switch (cell.type()) {
    case DataType::kNull:
      out->append("<value><nil/></value>");
      break;
    case DataType::kInt64: {
      char buf[24];
      int n = std::snprintf(buf, sizeof(buf), "%lld",
                            static_cast<long long>(cell.AsInt64Strict()));
      out->append("<value><i4>");
      out->append(buf, static_cast<size_t>(n));
      out->append("</i4></value>");
      break;
    }
    case DataType::kDouble: {
      char buf[40];
      int n = std::snprintf(buf, sizeof(buf), "%.17g", cell.AsDoubleStrict());
      out->append("<value><double>");
      out->append(buf, static_cast<size_t>(n));
      out->append("</double></value>");
      break;
    }
    case DataType::kBool:
      out->append(cell.AsBoolStrict() ? "<value><boolean>1</boolean></value>"
                                      : "<value><boolean>0</boolean></value>");
      break;
    case DataType::kString: {
      const std::string& s = cell.AsStringStrict();
      if (s.empty()) {
        out->append("<value><string/></value>");
      } else {
        out->append("<value><string>");
        AppendEscaped(s, out);
        out->append("</string></value>");
      }
      break;
    }
  }
}

void AppendResultSetXml(const storage::ResultSet& rs, std::string* out) {
  // Identical bytes to ResultSetToStruct -> ToXml -> compact Write; the
  // member order (columns < rows) matches std::map iteration.
  out->append("<value><struct><member><name>columns</name><value><array>");
  if (rs.columns.empty()) {
    out->append("<data/>");
  } else {
    out->append("<data>");
    for (const std::string& c : rs.columns) {
      if (c.empty()) {
        out->append("<value><string/></value>");
      } else {
        out->append("<value><string>");
        AppendEscaped(c, out);
        out->append("</string></value>");
      }
    }
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

xml::Node XmlRpcValue::ToXml() const {
  if (const auto* rs = std::get_if<ResultSetPtr>(&data_)) {
    return XmlRpcValue(ResultSetToStruct(**rs)).ToXml();
  }
  xml::Node value_node("value");
  if (is_empty()) {
    value_node.AddChild("nil");
  } else if (const auto* i = std::get_if<int64_t>(&data_)) {
    value_node.AddTextChild("i4", std::to_string(*i));
  } else if (const auto* d = std::get_if<double>(&data_)) {
    value_node.AddTextChild("double", StrFormat("%.17g", *d));
  } else if (const auto* b = std::get_if<bool>(&data_)) {
    value_node.AddTextChild("boolean", *b ? "1" : "0");
  } else if (const auto* s = std::get_if<std::string>(&data_)) {
    value_node.AddTextChild("string", *s);
  } else if (const auto* array = std::get_if<XmlRpcArray>(&data_)) {
    xml::Node& data = value_node.AddChild("array").AddChild("data");
    for (const XmlRpcValue& item : *array) {
      data.children.push_back(
          std::make_unique<xml::Node>(item.ToXml()));
    }
  } else if (const auto* record = std::get_if<XmlRpcStruct>(&data_)) {
    xml::Node& struct_node = value_node.AddChild("struct");
    for (const auto& [key, member] : *record) {
      xml::Node& member_node = struct_node.AddChild("member");
      member_node.AddTextChild("name", key);
      member_node.children.push_back(
          std::make_unique<xml::Node>(member.ToXml()));
    }
  }
  return value_node;
}

Result<XmlRpcValue> XmlRpcValue::FromXml(const xml::Node& value_node) {
  if (value_node.name != "value") {
    return ParseError("expected <value> element, got <" + value_node.name + ">");
  }
  // Bare text inside <value> is a string per the XML-RPC spec.
  if (value_node.children.empty()) return XmlRpcValue(value_node.text);

  const xml::Node& type_node = *value_node.children[0];
  const std::string& tag = type_node.name;
  if (tag == "nil") return XmlRpcValue();
  if (tag == "i4" || tag == "int") {
    int64_t v = 0;
    if (!ParseInt64(type_node.text, &v)) {
      return ParseError("bad XML-RPC int '" + type_node.text + "'");
    }
    return XmlRpcValue(v);
  }
  if (tag == "double") {
    double v = 0;
    if (!ParseDouble(type_node.text, &v)) {
      return ParseError("bad XML-RPC double '" + type_node.text + "'");
    }
    return XmlRpcValue(v);
  }
  if (tag == "boolean") {
    if (type_node.text == "1") return XmlRpcValue(true);
    if (type_node.text == "0") return XmlRpcValue(false);
    return ParseError("bad XML-RPC boolean '" + type_node.text + "'");
  }
  if (tag == "string") return XmlRpcValue(type_node.text);
  if (tag == "array") {
    const xml::Node* data = type_node.Child("data");
    if (!data) return ParseError("<array> without <data>");
    XmlRpcArray array;
    array.reserve(data->children.size());
    for (const auto& child : data->children) {
      GRIDDB_ASSIGN_OR_RETURN(XmlRpcValue item, FromXml(*child));
      array.push_back(std::move(item));
    }
    return XmlRpcValue(std::move(array));
  }
  if (tag == "struct") {
    XmlRpcStruct record;
    for (const auto& member : type_node.children) {
      if (member->name != "member") {
        return ParseError("<struct> child is not <member>");
      }
      const xml::Node* name = member->Child("name");
      const xml::Node* value = member->Child("value");
      if (!name || !value) return ParseError("<member> missing name/value");
      GRIDDB_ASSIGN_OR_RETURN(XmlRpcValue item, FromXml(*value));
      record[name->text] = std::move(item);
    }
    return XmlRpcValue(std::move(record));
  }
  return ParseError("unknown XML-RPC type <" + tag + ">");
}

void XmlRpcValue::AppendXml(std::string* out) const {
  if (is_empty()) {
    out->append("<value><nil/></value>");
  } else if (const auto* i = std::get_if<int64_t>(&data_)) {
    char buf[24];
    int n = std::snprintf(buf, sizeof(buf), "%lld",
                          static_cast<long long>(*i));
    out->append("<value><i4>");
    out->append(buf, static_cast<size_t>(n));
    out->append("</i4></value>");
  } else if (const auto* d = std::get_if<double>(&data_)) {
    char buf[40];
    int n = std::snprintf(buf, sizeof(buf), "%.17g", *d);
    out->append("<value><double>");
    out->append(buf, static_cast<size_t>(n));
    out->append("</double></value>");
  } else if (const auto* b = std::get_if<bool>(&data_)) {
    out->append(*b ? "<value><boolean>1</boolean></value>"
                   : "<value><boolean>0</boolean></value>");
  } else if (const auto* s = std::get_if<std::string>(&data_)) {
    if (s->empty()) {
      out->append("<value><string/></value>");
    } else {
      out->append("<value><string>");
      AppendEscaped(*s, out);
      out->append("</string></value>");
    }
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
        if (key.empty()) {
          out->append("<member><name/>");
        } else {
          out->append("<member><name>");
          AppendEscaped(key, out);
          out->append("</name>");
        }
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

Result<storage::ResultSet> RpcToResultSet(const XmlRpcValue& value) {
  if (const storage::ResultSet* native = value.result_set()) return *native;
  storage::ResultSet rs;
  GRIDDB_ASSIGN_OR_RETURN(const XmlRpcValue* columns, value.Member("columns"));
  GRIDDB_ASSIGN_OR_RETURN(const XmlRpcArray* column_items, columns->AsArray());
  for (const XmlRpcValue& c : *column_items) {
    GRIDDB_ASSIGN_OR_RETURN(std::string name, c.AsString());
    rs.columns.push_back(std::move(name));
  }
  GRIDDB_ASSIGN_OR_RETURN(const XmlRpcValue* rows, value.Member("rows"));
  GRIDDB_ASSIGN_OR_RETURN(const XmlRpcArray* row_items, rows->AsArray());
  for (const XmlRpcValue& row_value : *row_items) {
    GRIDDB_ASSIGN_OR_RETURN(const XmlRpcArray* cells, row_value.AsArray());
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
xml::WriteOptions CompactXml() {
  xml::WriteOptions options;
  options.pretty = false;
  return options;
}
}  // namespace

namespace {
std::string HexU64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool ParseHexU64(std::string_view text, uint64_t* out) {
  if (text.empty() || text.size() > 16) return false;
  uint64_t value = 0;
  for (char c : text) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return false;
    }
    value = (value << 4) | static_cast<uint64_t>(digit);
  }
  *out = value;
  return true;
}
}  // namespace

std::string EncodeRequest(const RpcRequest& request) {
  xml::Node root("methodCall");
  root.AddTextChild("methodName", request.method);
  if (!request.session_token.empty()) {
    root.AddTextChild("sessionToken", request.session_token);
  }
  // Sparse: untraced requests carry no trace element at all.
  if (request.trace_id != 0) {
    root.AddTextChild("traceContext", HexU64(request.trace_id) + ":" +
                                          HexU64(request.parent_span_id));
  }
  // Sparse: calls without a deadline carry no budget element at all.
  if (request.deadline_ms > 0) {
    root.AddTextChild("deadlineMs", StrFormat("%.17g", request.deadline_ms));
  }
  // Sparse: anonymous-tenant calls carry no tenant element at all.
  if (!request.tenant.empty()) {
    root.AddTextChild("tenant", request.tenant);
  }
  // Sparse: clients that never negotiated binary framing carry no
  // wireAccept element at all (the byte-identity invariant again).
  if (!request.wire_accept.empty()) {
    root.AddTextChild("wireAccept", request.wire_accept);
  }
  xml::Node& params = root.AddChild("params");
  for (const XmlRpcValue& param : request.params) {
    xml::Node& param_node = params.AddChild("param");
    param_node.children.push_back(std::make_unique<xml::Node>(param.ToXml()));
  }
  return xml::Write(root, CompactXml());
}

Result<RpcRequest> DecodeRequest(std::string_view raw) {
  GRIDDB_ASSIGN_OR_RETURN(std::unique_ptr<xml::Node> doc, xml::Parse(raw));
  if (doc->name != "methodCall") {
    return ParseError("expected <methodCall> document");
  }
  RpcRequest request;
  request.method = doc->ChildText("methodName");
  if (request.method.empty()) return ParseError("missing <methodName>");
  request.session_token = doc->ChildText("sessionToken");
  std::string trace = doc->ChildText("traceContext");
  if (!trace.empty()) {
    size_t colon = trace.find(':');
    if (colon == std::string::npos ||
        !ParseHexU64(std::string_view(trace).substr(0, colon),
                     &request.trace_id) ||
        !ParseHexU64(std::string_view(trace).substr(colon + 1),
                     &request.parent_span_id)) {
      return ParseError("malformed <traceContext> '" + trace + "'");
    }
  }
  std::string deadline = doc->ChildText("deadlineMs");
  if (!deadline.empty()) {
    if (!ParseDouble(deadline, &request.deadline_ms) ||
        request.deadline_ms < 0) {
      return ParseError("malformed <deadlineMs> '" + deadline + "'");
    }
  }
  request.tenant = doc->ChildText("tenant");
  request.wire_accept = doc->ChildText("wireAccept");
  if (const xml::Node* params = doc->Child("params")) {
    for (const auto& param : params->children) {
      if (param->name != "param" || param->children.empty()) {
        return ParseError("malformed <param>");
      }
      GRIDDB_ASSIGN_OR_RETURN(XmlRpcValue value,
                              XmlRpcValue::FromXml(*param->children[0]));
      request.params.push_back(std::move(value));
    }
  }
  return request;
}

std::string EncodeResponse(const XmlRpcValue& value) {
  // Single-pass, single-reserve encoder; byte-identical to serializing
  // the Node tree in compact mode (guarded by wire_codec_test).
  static constexpr std::string_view kPrefix =
      "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
      "<methodResponse><params><param>";
  static constexpr std::string_view kSuffix = "</param></params></methodResponse>";
  std::string out;
  out.reserve(kPrefix.size() + kSuffix.size() + value.EstimateXmlSize());
  out.append(kPrefix);
  value.AppendXml(&out);
  out.append(kSuffix);
  return out;
}

std::string EncodeFault(const Status& status) {
  xml::Node root("methodResponse");
  xml::Node& fault = root.AddChild("fault");
  XmlRpcStruct detail;
  detail["faultCode"] = static_cast<int64_t>(status.code());
  detail["faultString"] = std::string(StatusCodeName(status.code())) + ": " +
                          status.message();
  fault.children.push_back(
      std::make_unique<xml::Node>(XmlRpcValue(detail).ToXml()));
  return xml::Write(root, CompactXml());
}

Result<XmlRpcValue> DecodeResponse(std::string_view raw) {
  GRIDDB_ASSIGN_OR_RETURN(std::unique_ptr<xml::Node> doc, xml::Parse(raw));
  if (doc->name != "methodResponse") {
    return ParseError("expected <methodResponse> document");
  }
  if (const xml::Node* fault = doc->Child("fault")) {
    if (fault->children.empty()) return ParseError("empty <fault>");
    GRIDDB_ASSIGN_OR_RETURN(XmlRpcValue detail,
                            XmlRpcValue::FromXml(*fault->children[0]));
    auto code_member = detail.Member("faultCode");
    auto text_member = detail.Member("faultString");
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
  const xml::Node* params = doc->Child("params");
  if (!params || params->children.empty() ||
      params->children[0]->children.empty()) {
    return ParseError("response missing <params>");
  }
  return XmlRpcValue::FromXml(*params->children[0]->children[0]);
}

}  // namespace griddb::rpc
