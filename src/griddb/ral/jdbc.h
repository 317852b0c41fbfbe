// JDBC-style connection for databases outside POOL-RAL support.
//
// The prototype reaches MS-SQL (and any other unsupported backend)
// through vendor JDBC drivers. This connection object carries the same
// cost model as the POOL path — connect+auth once, per-query execute and
// result-shipping charges — but executes raw SQL text in the target
// database's own dialect, exactly like a JDBC Statement would.
#pragma once

#include <memory>
#include <string>

#include "griddb/net/network.h"
#include "griddb/ral/catalog.h"
#include "griddb/storage/result_set.h"
#include "griddb/util/status.h"

namespace griddb::ral {

class JdbcConnection {
 public:
  /// Opens (and authenticates) a connection. Charges connect+auth.
  static Result<std::unique_ptr<JdbcConnection>> Open(
      const DatabaseCatalog* catalog, const net::Network* network,
      const net::ServiceCosts& costs, const std::string& connection_string,
      const std::string& user, const std::string& password,
      std::string client_host, net::Cost* cost = nullptr);

  /// Executes SQL text (parsed in the target vendor's dialect). The
  /// result keeps the engine's typed columns, with its wire size recorded.
  Result<storage::ColumnarResult> ExecuteQuery(const std::string& sql_text,
                                               net::Cost* cost = nullptr);

  engine::Database* database() const { return entry_.database; }
  const std::string& connection_string() const {
    return entry_.connection_string;
  }

 private:
  JdbcConnection(DatabaseCatalog::Entry entry, const net::Network* network,
                 net::ServiceCosts costs, std::string client_host)
      : entry_(std::move(entry)),
        network_(network),
        costs_(costs),
        client_host_(std::move(client_host)) {}

  DatabaseCatalog::Entry entry_;
  const net::Network* network_;
  net::ServiceCosts costs_;
  std::string client_host_;
};

}  // namespace griddb::ral
