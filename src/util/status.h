#ifndef CONVOY_UTIL_STATUS_H_
#define CONVOY_UTIL_STATUS_H_

#include <cstdlib>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace convoy {

/// Error category of a Status. The library reserves a small, stable set of
/// codes (modeled on absl::Status) so callers can branch on *kind* of
/// failure while the message carries the specifics.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,     ///< the caller passed a value outside the contract
  kFailedPrecondition,  ///< the call is illegal in the object's current state
  kOutOfRange,          ///< an index/tick/radius outside the supported range
  kNotFound,            ///< a named resource (file, preset) does not exist
  kDataError,           ///< input data violates the format it claims to have
  kInternal,            ///< an invariant the library itself maintains broke
  kCancelled,           ///< the connection closed (peer EOF or a shutdown)
  kDeadlineExceeded,    ///< the caller's wall-clock deadline expired
  kRetryAfter,          ///< overloaded: back off and retry the same request
};

/// Short stable name of a code ("OK", "INVALID_ARGUMENT", ...).
std::string_view StatusCodeName(StatusCode code);

/// A recoverable error: a code plus a human-readable message.
///
/// This is the library's contract-violation currency. API preconditions
/// that used to be `assert`s — and therefore vanished in the default
/// `RelWithDebInfo` build — are reported as `Status` values instead, so
/// feeding bad data through the public API in a release build yields a
/// descriptive error, never UB or silently wrong convoys.
///
/// Conventions (see README "Error handling"):
///  * functions that can fail but return nothing yield `Status`;
///  * functions that produce a value yield `StatusOr<T>`;
///  * `Status` is [[nodiscard]] — ignoring one is a compile warning;
///  * context is chained outermost-first with `WithContext`, producing
///    messages like "loading data.csv: line 7: non-finite x".
class [[nodiscard]] Status {
 public:
  /// Default-constructed Status is OK.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string message) {
    return Status(StatusCode::kInvalidArgument, std::move(message));
  }
  static Status FailedPrecondition(std::string message) {
    return Status(StatusCode::kFailedPrecondition, std::move(message));
  }
  static Status OutOfRange(std::string message) {
    return Status(StatusCode::kOutOfRange, std::move(message));
  }
  static Status NotFound(std::string message) {
    return Status(StatusCode::kNotFound, std::move(message));
  }
  static Status DataError(std::string message) {
    return Status(StatusCode::kDataError, std::move(message));
  }
  static Status Internal(std::string message) {
    return Status(StatusCode::kInternal, std::move(message));
  }
  static Status Cancelled(std::string message) {
    return Status(StatusCode::kCancelled, std::move(message));
  }
  static Status DeadlineExceeded(std::string message) {
    return Status(StatusCode::kDeadlineExceeded, std::move(message));
  }
  static Status RetryAfter(std::string message) {
    return Status(StatusCode::kRetryAfter, std::move(message));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Explicitly discards the status (defeats [[nodiscard]] where ignoring
  /// a failure is a deliberate choice, e.g. best-effort stream reports).
  void IgnoreError() const {}

  /// Prepends a context frame: `s.WithContext("loading x.csv")` turns
  /// message "line 7: bad tick" into "loading x.csv: line 7: bad tick".
  /// No-op on OK statuses, so it can be applied unconditionally.
  Status WithContext(std::string_view context) const&;
  Status WithContext(std::string_view context) &&;

  /// "OK" or "INVALID_ARGUMENT: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

namespace internal_status {
[[noreturn]] void DieOnBadAccess(const Status& status, const char* what);
}  // namespace internal_status

/// A value of type T or the Status explaining why there is none.
///
/// Accessing the value of a non-OK StatusOr aborts with the status printed
/// to stderr — deliberately, in every build type: the whole point of this
/// type is that error paths cannot be silently ignored. Check `ok()` (or
/// branch on `status()`) before dereferencing.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  /// Implicit from a value (OK) or from a non-OK Status.
  StatusOr(T value) : rep_(std::move(value)) {}  // NOLINT(runtime/explicit)
  StatusOr(Status status) : rep_(std::move(status)) {  // NOLINT
    if (std::get<Status>(rep_).ok()) {
      internal_status::DieOnBadAccess(
          std::get<Status>(rep_),
          "StatusOr constructed from an OK Status without a value");
    }
  }

  bool ok() const { return std::holds_alternative<T>(rep_); }

  /// The status: OK when a value is present.
  Status status() const {
    return ok() ? Status::Ok() : std::get<Status>(rep_);
  }

  const T& value() const& {
    EnsureOk("StatusOr::value");
    return std::get<T>(rep_);
  }
  T& value() & {
    EnsureOk("StatusOr::value");
    return std::get<T>(rep_);
  }
  /// Rvalue access returns the value *by value* (moved out), not T&&: a
  /// reference into the dying temporary would dangle in the ubiquitous
  ///   for (auto& x : SomeStatusOrReturningCall().value())
  /// pattern — C++20 range-for does not extend the temporary's lifetime
  /// (that is C++23's P2718). The returned prvalue is lifetime-extended
  /// by the loop's range binding, so the pattern is safe.
  T value() && {
    EnsureOk("StatusOr::value");
    return std::get<T>(std::move(rep_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// The value, or `fallback` when this holds an error.
  T value_or(T fallback) const& {
    return ok() ? std::get<T>(rep_) : std::move(fallback);
  }

 private:
  void EnsureOk(const char* what) const {
    if (!ok()) internal_status::DieOnBadAccess(std::get<Status>(rep_), what);
  }

  std::variant<Status, T> rep_;
};

/// Propagates a non-OK status to the caller:
///   CONVOY_RETURN_IF_ERROR(stream.BeginTick(t));
#define CONVOY_RETURN_IF_ERROR(expr)                  \
  do {                                                \
    ::convoy::Status convoy_status_tmp_ = (expr);     \
    if (!convoy_status_tmp_.ok()) return convoy_status_tmp_; \
  } while (false)

}  // namespace convoy

#endif  // CONVOY_UTIL_STATUS_H_
