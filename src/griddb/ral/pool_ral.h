// POOL Relational Abstraction Layer wrapper (paper §4.7).
//
// The prototype wraps CERN's POOL-RAL C++ libraries behind a JNI shim
// exposing exactly two methods: one to initialize a service handle for a
// database from a connection string + credentials, and one that takes
// (connection string, select fields, table names, where clause) and
// returns a 2-D array of results. This class reproduces that interface —
// including the restriction that a query addresses tables in ONE database
// at a time, which is precisely the limitation the paper's middleware
// works around.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "griddb/net/network.h"
#include "griddb/ral/catalog.h"
#include "griddb/storage/result_set.h"
#include "griddb/util/status.h"

namespace griddb::ral {

class PoolRal {
 public:
  /// `client_host` is where the wrapper runs (the JClarens server's host);
  /// result shipping is charged from the database host to it.
  PoolRal(const DatabaseCatalog* catalog, const net::Network* network,
          net::ServiceCosts costs, std::string client_host);

  /// Paper wrapper method 1: initialize a service handle. Charges the
  /// connect+auth cost once per connection string; re-initializing an
  /// existing handle is a cheap no-op (the handle list is consulted).
  Status InitHandle(const std::string& connection_string,
                    const std::string& user, const std::string& password,
                    net::Cost* cost = nullptr);

  bool HasHandle(const std::string& connection_string) const;
  size_t NumHandles() const;

  /// Paper wrapper method 2: execute a (fields, tables, where) query on
  /// the database behind `connection_string` and return the 2-D result,
  /// as the engine's typed columns with their wire size recorded.
  /// Fails (kUnsupported) for vendors outside POOL support and
  /// (kUnavailable) when InitHandle was not called first.
  Result<storage::ColumnarResult> Execute(
      const std::string& connection_string,
      const std::vector<std::string>& select_fields,
      const std::vector<std::string>& tables, const std::string& where_clause,
      net::Cost* cost = nullptr);

  /// Schema introspection through the RAL (vendor-neutral).
  Result<std::vector<std::string>> ListTables(
      const std::string& connection_string) const;
  Result<storage::TableSchema> DescribeTable(
      const std::string& connection_string, const std::string& table) const;

 private:
  Result<DatabaseCatalog::Entry> FindSupported(
      const std::string& connection_string) const;

  const DatabaseCatalog* catalog_;
  const net::Network* network_;
  net::ServiceCosts costs_;
  std::string client_host_;
  mutable std::mutex mu_;
  std::map<std::string, bool> handles_;  // connection string -> initialized
};

}  // namespace griddb::ral
