#include "griddb/util/status.h"

namespace griddb {

const char* StatusCodeName(StatusCode code) noexcept {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kAlreadyExists: return "ALREADY_EXISTS";
    case StatusCode::kParseError: return "PARSE_ERROR";
    case StatusCode::kTypeError: return "TYPE_ERROR";
    case StatusCode::kPermissionDenied: return "PERMISSION_DENIED";
    case StatusCode::kUnavailable: return "UNAVAILABLE";
    case StatusCode::kInternal: return "INTERNAL";
    case StatusCode::kUnsupported: return "UNSUPPORTED";
    case StatusCode::kTimeout: return "TIMEOUT";
    case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case StatusCode::kCorruption: return "CORRUPTION";
    case StatusCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case StatusCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case StatusCode::kIoError: return "IO_ERROR";
    case StatusCode::kOutOfRange: return "OUT_OF_RANGE";
  }
  return "UNKNOWN";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace griddb
