#include "griddb/ral/pool_ral.h"

#include "griddb/sql/parser.h"
#include "griddb/sql/render.h"
#include "griddb/util/strings.h"

namespace griddb::ral {

PoolRal::PoolRal(const DatabaseCatalog* catalog, const net::Network* network,
                 net::ServiceCosts costs, std::string client_host)
    : catalog_(catalog),
      network_(network),
      costs_(costs),
      client_host_(std::move(client_host)) {}

Result<DatabaseCatalog::Entry> PoolRal::FindSupported(
    const std::string& connection_string) const {
  GRIDDB_ASSIGN_OR_RETURN(DatabaseCatalog::Entry entry,
                          catalog_->Find(connection_string));
  if (!IsPoolSupported(entry.database->vendor())) {
    return Unsupported("POOL-RAL does not support vendor '" +
                       std::string(sql::VendorName(entry.database->vendor())) +
                       "' (use the JDBC driver)");
  }
  return entry;
}

Status PoolRal::InitHandle(const std::string& connection_string,
                           const std::string& user,
                           const std::string& password, net::Cost* cost) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (handles_.count(connection_string)) return Status::Ok();
  }
  GRIDDB_ASSIGN_OR_RETURN(DatabaseCatalog::Entry entry,
                          FindSupported(connection_string));
  // Connecting and authenticating is the expensive part (paper §5.2).
  if (cost) cost->AddMs(costs_.connect_auth_ms);
  GRIDDB_RETURN_IF_ERROR(catalog_->Authenticate(entry, user, password));
  std::lock_guard<std::mutex> lock(mu_);
  handles_[connection_string] = true;
  return Status::Ok();
}

bool PoolRal::HasHandle(const std::string& connection_string) const {
  std::lock_guard<std::mutex> lock(mu_);
  return handles_.count(connection_string) > 0;
}

size_t PoolRal::NumHandles() const {
  std::lock_guard<std::mutex> lock(mu_);
  return handles_.size();
}

Result<storage::ColumnarResult> PoolRal::Execute(
    const std::string& connection_string,
    const std::vector<std::string>& select_fields,
    const std::vector<std::string>& tables, const std::string& where_clause,
    net::Cost* cost) {
  if (!HasHandle(connection_string)) {
    return Unavailable("no POOL-RAL handle for '" + connection_string +
                       "'; call InitHandle first");
  }
  GRIDDB_ASSIGN_OR_RETURN(DatabaseCatalog::Entry entry,
                          FindSupported(connection_string));
  if (tables.empty()) return InvalidArgument("no tables given");
  if (select_fields.empty()) return InvalidArgument("no select fields given");

  // Build the SELECT in the target dialect. Fields and the where clause
  // are parsed as expressions of that dialect, matching the RAL's
  // behaviour of passing attribute lists and condition strings through to
  // the vendor plugin.
  const sql::Dialect& dialect = entry.database->dialect();
  std::string text = "SELECT " + Join(select_fields, ", ") + " FROM " +
                     Join(tables, ", ");
  std::string_view trimmed_where = Trim(where_clause);
  if (!trimmed_where.empty()) {
    text += " WHERE " + std::string(trimmed_where);
  }
  GRIDDB_ASSIGN_OR_RETURN(std::unique_ptr<sql::SelectStmt> stmt,
                          sql::ParseSelect(text, dialect));
  GRIDDB_ASSIGN_OR_RETURN(storage::ColumnarResult rs,
                          entry.database->ExecuteSelectColumnar(*stmt));

  // Result shipment crosses the wire, so fault injection applies even for
  // callers that skip cost accounting (a down mart must fail the fetch).
  rs.wire_size = rs.ComputeWireSize();
  GRIDDB_ASSIGN_OR_RETURN(
      double transfer,
      network_->WireTransferMs(entry.host, client_host_, rs.wire_size));
  if (cost) {
    cost->AddMs(costs_.db_execute_base_ms);
    cost->AddMs(costs_.db_per_row_ms * static_cast<double>(rs.num_rows()));
    cost->AddMs(costs_.per_row_ser_ms * static_cast<double>(rs.num_rows()));
    cost->AddMs(transfer);
  }
  return rs;
}

Result<std::vector<std::string>> PoolRal::ListTables(
    const std::string& connection_string) const {
  GRIDDB_ASSIGN_OR_RETURN(DatabaseCatalog::Entry entry,
                          FindSupported(connection_string));
  return entry.database->TableNames();
}

Result<storage::TableSchema> PoolRal::DescribeTable(
    const std::string& connection_string, const std::string& table) const {
  GRIDDB_ASSIGN_OR_RETURN(DatabaseCatalog::Entry entry,
                          FindSupported(connection_string));
  return entry.database->GetSchema(table);
}

}  // namespace griddb::ral
