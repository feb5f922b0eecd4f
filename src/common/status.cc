#include "common/status.h"

namespace pandora {

namespace {

const char* CodeName(Status::Code code) {
  switch (code) {
    case Status::Code::kOk:
      return "OK";
    case Status::Code::kNotFound:
      return "NotFound";
    case Status::Code::kCorruption:
      return "Corruption";
    case Status::Code::kInvalidArgument:
      return "InvalidArgument";
    case Status::Code::kIoError:
      return "IoError";
    case Status::Code::kBusy:
      return "Busy";
    case Status::Code::kAborted:
      return "Aborted";
    case Status::Code::kPermissionDenied:
      return "PermissionDenied";
    case Status::Code::kUnavailable:
      return "Unavailable";
    case Status::Code::kTimedOut:
      return "TimedOut";
    case Status::Code::kResourceExhausted:
      return "ResourceExhausted";
    case Status::Code::kInternal:
      return "Internal";
  }
  return "Unknown";
}

}  // namespace

std::string Status::ToString() const {
  std::string out = CodeName(code_);
  if (msg_ != nullptr && *msg_ != '\0') {
    out += ": ";
    out += msg_;
  }
  return out;
}

}  // namespace pandora
