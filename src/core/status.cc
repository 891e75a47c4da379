#include "core/status.h"

#include <cstring>

namespace encodesat {

const char* status_code_name(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kParseError:
      return "parse_error";
    case StatusCode::kInfeasible:
      return "infeasible";
    case StatusCode::kTimeout:
      return "timeout";
    case StatusCode::kOverloaded:
      return "overloaded";
    case StatusCode::kCanceled:
      return "canceled";
    case StatusCode::kInternal:
      return "internal";
  }
  return "internal";
}

bool status_code_from_name(const char* name, StatusCode* out) {
  static constexpr StatusCode kAll[] = {
      StatusCode::kOk,         StatusCode::kParseError,
      StatusCode::kInfeasible, StatusCode::kTimeout,
      StatusCode::kOverloaded, StatusCode::kCanceled,
      StatusCode::kInternal,
  };
  for (StatusCode c : kAll)
    if (!std::strcmp(name, status_code_name(c))) {
      if (out) *out = c;
      return true;
    }
  return false;
}

const char* solve_status_name(SolveOutcome::Status status) {
  switch (status) {
    case SolveOutcome::Status::kEncoded:
      return "encoded";
    case SolveOutcome::Status::kInfeasible:
      return "infeasible";
    case SolveOutcome::Status::kTruncated:
      return "truncated";
  }
  return "unknown";
}

bool solve_status_from_name(const char* name, SolveOutcome::Status* out) {
  for (SolveOutcome::Status s :
       {SolveOutcome::Status::kEncoded, SolveOutcome::Status::kInfeasible,
        SolveOutcome::Status::kTruncated})
    if (!std::strcmp(name, solve_status_name(s))) {
      if (out) *out = s;
      return true;
    }
  return false;
}

}  // namespace encodesat
