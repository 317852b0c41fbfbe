#include "griddb/ral/jdbc.h"

namespace griddb::ral {

Result<std::unique_ptr<JdbcConnection>> JdbcConnection::Open(
    const DatabaseCatalog* catalog, const net::Network* network,
    const net::ServiceCosts& costs, const std::string& connection_string,
    const std::string& user, const std::string& password,
    std::string client_host, net::Cost* cost) {
  GRIDDB_ASSIGN_OR_RETURN(DatabaseCatalog::Entry entry,
                          catalog->Find(connection_string));
  if (cost) cost->AddMs(costs.connect_auth_ms);
  GRIDDB_RETURN_IF_ERROR(catalog->Authenticate(entry, user, password));
  return std::unique_ptr<JdbcConnection>(new JdbcConnection(
      std::move(entry), network, costs, std::move(client_host)));
}

Result<storage::ColumnarResult> JdbcConnection::ExecuteQuery(
    const std::string& sql_text, net::Cost* cost) {
  GRIDDB_ASSIGN_OR_RETURN(storage::ColumnarResult rs,
                          entry_.database->ExecuteColumnar(sql_text));
  // Result shipment crosses the wire, so fault injection applies even for
  // callers that skip cost accounting (a down mart must fail the fetch).
  rs.wire_size = rs.ComputeWireSize();
  GRIDDB_ASSIGN_OR_RETURN(
      double transfer,
      network_->WireTransferMs(entry_.host, client_host_, rs.wire_size));
  if (cost) {
    cost->AddMs(costs_.db_execute_base_ms);
    cost->AddMs(costs_.db_per_row_ms * static_cast<double>(rs.num_rows()));
    cost->AddMs(costs_.per_row_ser_ms * static_cast<double>(rs.num_rows()));
    cost->AddMs(transfer);
  }
  return rs;
}

}  // namespace griddb::ral
