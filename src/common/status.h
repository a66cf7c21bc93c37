#ifndef RDFREF_COMMON_STATUS_H_
#define RDFREF_COMMON_STATUS_H_

#include <ostream>
#include <string>
#include <utility>

namespace rdfref {

/// \brief Error categories used throughout the library.
///
/// rdfref follows the Google C++ style: no exceptions. Fallible operations
/// return a Status (or a Result<T>, see result.h) that callers must inspect.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kOutOfRange = 4,
  kUnimplemented = 5,
  kInternal = 6,
  kResourceExhausted = 7,
  kParseError = 8,
  kDeadlineExceeded = 9,
};

/// \brief Returns a human-readable name for a status code.
const char* StatusCodeToString(StatusCode code);

/// \brief The outcome of a fallible operation: a code plus a message.
///
/// A default-constructed Status is OK. Statuses are cheap to copy (the
/// message is empty in the OK case, which is the common path).
///
/// The class is [[nodiscard]]: a function returning Status failed for a
/// reason, and ignoring it is a correctness bug (see result.h). Deliberate
/// discards must be spelled `(void)expr;` with a comment.
class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  /// \brief Constructs an OK status.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// \brief Renders "OK" or "<CODE>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

inline bool operator==(const Status& a, const Status& b) {
  return a.code() == b.code() && a.message() == b.message();
}

std::ostream& operator<<(std::ostream& os, const Status& status);

/// \brief Propagates a non-OK Status to the caller.
#define RDFREF_RETURN_NOT_OK(expr)                \
  do {                                            \
    ::rdfref::Status _st = (expr);                \
    if (!_st.ok()) return _st;                    \
  } while (false)

}  // namespace rdfref

#endif  // RDFREF_COMMON_STATUS_H_
