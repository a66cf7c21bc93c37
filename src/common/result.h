#ifndef RDFREF_COMMON_RESULT_H_
#define RDFREF_COMMON_RESULT_H_

#include <cassert>
#include <utility>
#include <variant>

#include "common/status.h"

namespace rdfref {

/// \brief Holds either a value of type T or a non-OK Status.
///
/// This is the value-returning companion of Status (in the spirit of
/// arrow::Result / absl::StatusOr). Accessing the value of an errored
/// Result is a programming error and aborts in debug builds.
///
/// The class is [[nodiscard]]: silently dropping a Result discards an
/// error the caller was obligated to observe. The `-Werror` CI build and
/// tests/negative/discard_result.cc keep it that way; a deliberate
/// discard must be spelled `(void)expr;` with a comment.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// \brief Constructs from a value (implicit, so functions can
  /// `return value;`).
  Result(T value) : repr_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// \brief Constructs from a non-OK status (implicit, so functions can
  /// `return Status::...;`).
  Result(Status status) : repr_(std::move(status)) {  // NOLINT
    assert(!std::get<Status>(repr_).ok());
  }

  Result(const Result&) = default;
  Result& operator=(const Result&) = default;
  Result(Result&&) = default;
  Result& operator=(Result&&) = default;

  bool ok() const { return std::holds_alternative<T>(repr_); }

  /// \brief Returns the status: OK when a value is held.
  Status status() const {
    return ok() ? Status::OK() : std::get<Status>(repr_);
  }

  const T& value() const& {
    assert(ok());
    return std::get<T>(repr_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(repr_);
  }
  T&& value() && {
    assert(ok());
    return std::get<T>(std::move(repr_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// \brief Returns the value, or `alternative` when errored.
  T ValueOr(T alternative) const {
    return ok() ? value() : std::move(alternative);
  }

 private:
  std::variant<T, Status> repr_;
};

/// \brief Propagates the error of a Result expression, or assigns its value.
#define RDFREF_ASSIGN_OR_RETURN(lhs, expr)        \
  auto RDFREF_CONCAT_(_result_, __LINE__) = (expr);             \
  if (!RDFREF_CONCAT_(_result_, __LINE__).ok())                 \
    return RDFREF_CONCAT_(_result_, __LINE__).status();         \
  lhs = std::move(RDFREF_CONCAT_(_result_, __LINE__)).value()

#define RDFREF_CONCAT_IMPL_(a, b) a##b
#define RDFREF_CONCAT_(a, b) RDFREF_CONCAT_IMPL_(a, b)

}  // namespace rdfref

#endif  // RDFREF_COMMON_RESULT_H_
