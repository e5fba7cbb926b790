// Error-handling helpers shared across the MPA library.
//
// The library reports contract violations (bad arguments, broken
// invariants) with exceptions derived from std::logic_error /
// std::runtime_error so callers can distinguish programmer errors from
// data errors.
#pragma once

#include <concepts>
#include <stdexcept>
#include <string>

namespace mpa {

/// Thrown when a caller violates a documented precondition.
class PreconditionError : public std::logic_error {
 public:
  explicit PreconditionError(const std::string& what) : std::logic_error(what) {}
};

/// Thrown when input data (configs, logs) is malformed.
class DataError : public std::runtime_error {
 public:
  explicit DataError(const std::string& what) : std::runtime_error(what) {}
};

/// Check a precondition; throws PreconditionError with `msg` on failure.
inline void require(bool cond, const std::string& msg) {
  if (!cond) throw PreconditionError(msg);
}

/// Check a data-validity condition; throws DataError with `msg` on failure.
inline void require_data(bool cond, const std::string& msg) {
  if (!cond) throw DataError(msg);
}

/// The same checks for a literal message, which then becomes a string
/// only on failure (the `std::string` forms above would build one on
/// every call).
inline void require(bool cond, const char* msg) {
  if (!cond) throw PreconditionError(msg);
}
inline void require_data(bool cond, const char* msg) {
  if (!cond) throw DataError(msg);
}

/// The same checks with the message built by `make_msg()` only on
/// failure, for per-record checks on loader hot paths where building a
/// message that is thrown away costs more than the check itself.
template <std::invocable MakeMsg>
void require(bool cond, MakeMsg&& make_msg) {
  if (!cond) throw PreconditionError(make_msg());
}
template <std::invocable MakeMsg>
void require_data(bool cond, MakeMsg&& make_msg) {
  if (!cond) throw DataError(make_msg());
}

}  // namespace mpa
