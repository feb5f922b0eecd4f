#ifndef PANDORA_COMMON_STATUS_H_
#define PANDORA_COMMON_STATUS_H_

#include <cstddef>
#include <string>
#include <type_traits>

namespace pandora {

/// Error-code result of an operation, in the style of RocksDB/Arrow.
/// The project does not use exceptions; every fallible operation returns a
/// Status (or a Result<T>, see result.h).
///
/// A Status is a code and a pointer to a static message: trivially
/// copyable and at most 16 bytes, so every layer returns it in registers
/// and no Status ever touches the heap. The factories accept only string
/// literals (a runtime string does not compile); the one way to carry a
/// message on is the Aborted(cause) pass-through.
class Status {
 public:
  enum class Code : unsigned char {
    kOk = 0,
    kNotFound = 1,
    kCorruption = 2,
    kInvalidArgument = 3,
    kIoError = 4,
    kBusy = 5,            // Object locked by a live transaction.
    kAborted = 6,         // Transaction aborted (validation/lock failure).
    kPermissionDenied = 7,  // RDMA rights revoked (active-link termination).
    kUnavailable = 8,     // Remote node crashed or unreachable.
    kTimedOut = 9,
    kResourceExhausted = 10,
    kInternal = 11,
  };

  /// A factory's message argument. Only a string literal converts to it,
  /// so the text it points at lives as long as the program.
  class Literal {
   public:
    constexpr Literal() : text_(nullptr) {}
    template <size_t N>
    constexpr Literal(const char (&text)[N])  // NOLINT(runtime/explicit)
        : text_(text) {}

   private:
    friend class Status;
    const char* text_;
  };

  constexpr Status() = default;

  static Status OK() { return Status(); }
  static Status NotFound(Literal msg = {}) {
    return Status(Code::kNotFound, msg.text_);
  }
  static Status Corruption(Literal msg = {}) {
    return Status(Code::kCorruption, msg.text_);
  }
  static Status InvalidArgument(Literal msg = {}) {
    return Status(Code::kInvalidArgument, msg.text_);
  }
  static Status IoError(Literal msg = {}) {
    return Status(Code::kIoError, msg.text_);
  }
  static Status Busy(Literal msg = {}) {
    return Status(Code::kBusy, msg.text_);
  }
  static Status Aborted(Literal msg = {}) {
    return Status(Code::kAborted, msg.text_);
  }
  /// Pass-through: an abort caused by `cause`, carrying its message.
  static Status Aborted(const Status& cause) {
    return Status(Code::kAborted, cause.msg_);
  }
  static Status PermissionDenied(Literal msg = {}) {
    return Status(Code::kPermissionDenied, msg.text_);
  }
  static Status Unavailable(Literal msg = {}) {
    return Status(Code::kUnavailable, msg.text_);
  }
  static Status TimedOut(Literal msg = {}) {
    return Status(Code::kTimedOut, msg.text_);
  }
  static Status ResourceExhausted(Literal msg = {}) {
    return Status(Code::kResourceExhausted, msg.text_);
  }
  static Status Internal(Literal msg = {}) {
    return Status(Code::kInternal, msg.text_);
  }

  bool ok() const { return code_ == Code::kOk; }
  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsCorruption() const { return code_ == Code::kCorruption; }
  bool IsInvalidArgument() const { return code_ == Code::kInvalidArgument; }
  bool IsBusy() const { return code_ == Code::kBusy; }
  bool IsAborted() const { return code_ == Code::kAborted; }
  bool IsPermissionDenied() const { return code_ == Code::kPermissionDenied; }
  bool IsUnavailable() const { return code_ == Code::kUnavailable; }
  bool IsTimedOut() const { return code_ == Code::kTimedOut; }
  bool IsResourceExhausted() const {
    return code_ == Code::kResourceExhausted;
  }
  bool IsInternal() const { return code_ == Code::kInternal; }

  Code code() const { return code_; }
  /// The static message; "" when there is none.
  const char* message() const { return msg_ != nullptr ? msg_ : ""; }

  /// Human-readable "CODE: message" string for logs and error reports.
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  constexpr Status(Code code, const char* msg) : code_(code), msg_(msg) {}

  Code code_ = Code::kOk;
  const char* msg_ = nullptr;
};

static_assert(std::is_trivially_copyable_v<Status> && sizeof(Status) <= 16,
              "Status must stay register-returnable");

}  // namespace pandora

/// Evaluates `expr`; if the resulting Status is not OK, returns it from the
/// enclosing function. Standard early-return plumbing for the no-exceptions
/// error model.
#define PANDORA_RETURN_NOT_OK(expr)                \
  do {                                             \
    ::pandora::Status _st = (expr);                \
    if (!_st.ok()) return _st;                     \
  } while (0)

#endif  // PANDORA_COMMON_STATUS_H_
