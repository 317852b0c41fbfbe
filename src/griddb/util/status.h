// Status / Result<T>: the error-handling vocabulary used across griddb.
//
// All fallible library operations return either a Status (when there is no
// payload) or a Result<T>. Exceptions are reserved for programmer errors
// (precondition violations), matching the C++ Core Guidelines split between
// recoverable conditions and bugs.
#pragma once

#include <cassert>
#include <optional>
#include <string>
#include <utility>
#include <variant>

namespace griddb {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kParseError,
  kTypeError,
  kPermissionDenied,
  kUnavailable,
  kInternal,
  kUnsupported,
  kTimeout,
  kFailedPrecondition,
  // Appended (not inserted) so the numeric XML-RPC fault codes of older
  // peers still decode to the same enumerators.
  kCorruption,
  kDeadlineExceeded,
  kResourceExhausted,
  /// A local durable-storage operation failed (write, fsync, rename,
  /// ENOSPC, ...). Distinct from kUnavailable (a remote peer problem):
  /// callers that own durability degrade differently — the batch service
  /// pauses instead of failing jobs, journal writers fail-stop.
  kIoError,
  /// A value left the range of its type (SUM over int64 overflowed).
  kOutOfRange,
};

/// Human-readable name of a StatusCode ("OK", "NOT_FOUND", ...).
const char* StatusCodeName(StatusCode code) noexcept;

/// A success-or-error discriminant carrying an error message on failure.
class [[nodiscard]] Status {
 public:
  /// Success.
  Status() noexcept : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {
    assert(code != StatusCode::kOk && "error status requires non-OK code");
  }

  static Status Ok() noexcept { return Status(); }

  bool ok() const noexcept { return code_ == StatusCode::kOk; }
  StatusCode code() const noexcept { return code_; }
  const std::string& message() const noexcept { return message_; }

  /// "NOT_FOUND: table 'x' does not exist" or "OK".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) noexcept {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline Status InvalidArgument(std::string msg) {
  return {StatusCode::kInvalidArgument, std::move(msg)};
}
inline Status NotFound(std::string msg) {
  return {StatusCode::kNotFound, std::move(msg)};
}
inline Status AlreadyExists(std::string msg) {
  return {StatusCode::kAlreadyExists, std::move(msg)};
}
inline Status ParseError(std::string msg) {
  return {StatusCode::kParseError, std::move(msg)};
}
inline Status TypeError(std::string msg) {
  return {StatusCode::kTypeError, std::move(msg)};
}
inline Status PermissionDenied(std::string msg) {
  return {StatusCode::kPermissionDenied, std::move(msg)};
}
inline Status Unavailable(std::string msg) {
  return {StatusCode::kUnavailable, std::move(msg)};
}
inline Status Internal(std::string msg) {
  return {StatusCode::kInternal, std::move(msg)};
}
inline Status Unsupported(std::string msg) {
  return {StatusCode::kUnsupported, std::move(msg)};
}
inline Status Timeout(std::string msg) {
  return {StatusCode::kTimeout, std::move(msg)};
}
inline Status FailedPrecondition(std::string msg) {
  return {StatusCode::kFailedPrecondition, std::move(msg)};
}
inline Status Corruption(std::string msg) {
  return {StatusCode::kCorruption, std::move(msg)};
}
inline Status DeadlineExceeded(std::string msg) {
  return {StatusCode::kDeadlineExceeded, std::move(msg)};
}
inline Status ResourceExhausted(std::string msg) {
  return {StatusCode::kResourceExhausted, std::move(msg)};
}
inline Status IoError(std::string msg) {
  return {StatusCode::kIoError, std::move(msg)};
}
inline Status OutOfRange(std::string msg) {
  return {StatusCode::kOutOfRange, std::move(msg)};
}

/// Value-or-Status. Access to value() on an error result asserts.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : data_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Status status) : data_(std::move(status)) {  // NOLINT
    assert(!std::get<Status>(data_).ok() &&
           "Result must not be constructed from an OK status");
  }

  bool ok() const noexcept { return std::holds_alternative<T>(data_); }
  explicit operator bool() const noexcept { return ok(); }

  const T& value() const& {
    assert(ok());
    return std::get<T>(data_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(data_);
  }
  T&& value() && {
    assert(ok());
    return std::get<T>(std::move(data_));
  }
  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// The error status; Status::Ok() when the result holds a value.
  Status status() const {
    if (ok()) return Status::Ok();
    return std::get<Status>(data_);
  }

  T value_or(T fallback) const& {
    return ok() ? std::get<T>(data_) : std::move(fallback);
  }

 private:
  std::variant<T, Status> data_;
};

// Propagate errors up the call stack without exceptions.
#define GRIDDB_RETURN_IF_ERROR(expr)                  \
  do {                                                \
    ::griddb::Status _griddb_status = (expr);         \
    if (!_griddb_status.ok()) return _griddb_status;  \
  } while (false)

#define GRIDDB_ASSIGN_OR_RETURN(lhs, expr)        \
  auto GRIDDB_CONCAT_(_res_, __LINE__) = (expr);  \
  if (!GRIDDB_CONCAT_(_res_, __LINE__).ok())      \
    return GRIDDB_CONCAT_(_res_, __LINE__).status(); \
  lhs = std::move(GRIDDB_CONCAT_(_res_, __LINE__)).value()

#define GRIDDB_CONCAT_INNER_(a, b) a##b
#define GRIDDB_CONCAT_(a, b) GRIDDB_CONCAT_INNER_(a, b)

}  // namespace griddb
