// Reference XML-RPC encoders for the byte-identity guards.
//
// The wire encoders in rpc/xmlrpc_value.cc write straight into a string.
// These build the same messages the slow, obvious way: one xml::Node per
// element, numbers formatted by printf, serialized by the generic
// xml::Write in compact mode. wire_codec_test and bench_ext_wan hold the
// fast encoders to these bytes, so the text wire format cannot drift.
#pragma once

#include <memory>
#include <string>

#include "griddb/rpc/xmlrpc_value.h"
#include "griddb/util/strings.h"
#include "griddb/xml/xml.h"

namespace griddb::bench {

/// A result set as the explicit struct{columns, rows} value, not the
/// wrapped ResultSetPtr variant.
inline rpc::XmlRpcValue ClassicResultSetToRpc(const storage::ResultSet& rs) {
  rpc::XmlRpcArray columns;
  for (const std::string& c : rs.columns) columns.emplace_back(c);
  rpc::XmlRpcArray rows;
  for (const storage::Row& row : rs.rows) {
    rpc::XmlRpcArray cells;
    for (const storage::Value& cell : row) {
      switch (cell.type()) {
        case storage::DataType::kNull: cells.emplace_back(); break;
        case storage::DataType::kInt64:
          cells.emplace_back(cell.AsInt64Strict());
          break;
        case storage::DataType::kDouble:
          cells.emplace_back(cell.AsDoubleStrict());
          break;
        case storage::DataType::kBool:
          cells.emplace_back(cell.AsBoolStrict());
          break;
        case storage::DataType::kString:
          cells.emplace_back(cell.AsStringStrict());
          break;
      }
    }
    rows.emplace_back(std::move(cells));
  }
  rpc::XmlRpcStruct out;
  out["columns"] = std::move(columns);
  out["rows"] = std::move(rows);
  return out;
}

/// The <value> element tree of `value`.
inline std::unique_ptr<xml::Node> ValueTree(const rpc::XmlRpcValue& value) {
  if (const storage::ResultSet* rs = value.result_set()) {
    return ValueTree(ClassicResultSetToRpc(*rs));
  }
  auto node = std::make_unique<xml::Node>("value");
  if (value.is_empty()) {
    node->AddChild("nil");
  } else if (value.is_int()) {
    node->AddTextChild("i4", StrFormat("%lld", static_cast<long long>(
                                                   value.AsInt().value())));
  } else if (value.is_double()) {
    node->AddTextChild("double", StrFormat("%.17g", value.AsDouble().value()));
  } else if (value.is_bool()) {
    node->AddTextChild("boolean", value.AsBool().value() ? "1" : "0");
  } else if (value.is_string()) {
    node->AddTextChild("string", value.AsString().value());
  } else if (value.is_array()) {
    xml::Node& data = node->AddChild("array").AddChild("data");
    for (const rpc::XmlRpcValue& item : *value.AsArray().value()) {
      data.children.push_back(ValueTree(item));
    }
  } else if (value.is_struct()) {
    xml::Node& record = node->AddChild("struct");
    for (const auto& [key, member] : *value.AsStruct().value()) {
      xml::Node& member_node = record.AddChild("member");
      member_node.AddTextChild("name", key);
      member_node.children.push_back(ValueTree(member));
    }
  }
  return node;
}

inline std::string WriteCompact(const xml::Node& root) {
  xml::WriteOptions options;
  options.pretty = false;
  return xml::Write(root, options);
}

inline std::string TreeWriterResponse(const rpc::XmlRpcValue& value) {
  xml::Node root("methodResponse");
  root.AddChild("params").AddChild("param").children.push_back(
      ValueTree(value));
  return WriteCompact(root);
}

inline std::string TreeWriterFault(const Status& status) {
  rpc::XmlRpcStruct detail;
  detail["faultCode"] = static_cast<int64_t>(status.code());
  detail["faultString"] = std::string(StatusCodeName(status.code())) + ": " +
                          status.message();
  xml::Node root("methodResponse");
  root.AddChild("fault").children.push_back(
      ValueTree(rpc::XmlRpcValue(std::move(detail))));
  return WriteCompact(root);
}

inline std::string TreeWriterRequest(const rpc::RpcRequest& request) {
  xml::Node root("methodCall");
  root.AddTextChild("methodName", request.method);
  if (!request.session_token.empty()) {
    root.AddTextChild("sessionToken", request.session_token);
  }
  if (request.trace_id != 0) {
    root.AddTextChild(
        "traceContext",
        StrFormat("%llx:%llx",
                  static_cast<unsigned long long>(request.trace_id),
                  static_cast<unsigned long long>(request.parent_span_id)));
  }
  if (request.deadline_ms > 0) {
    root.AddTextChild("deadlineMs", StrFormat("%.17g", request.deadline_ms));
  }
  if (!request.tenant.empty()) root.AddTextChild("tenant", request.tenant);
  if (!request.wire_accept.empty()) {
    root.AddTextChild("wireAccept", request.wire_accept);
  }
  xml::Node& params = root.AddChild("params");
  for (const rpc::XmlRpcValue& param : request.params) {
    params.AddChild("param").children.push_back(ValueTree(param));
  }
  return WriteCompact(root);
}

}  // namespace griddb::bench
