#include "common/logging.h"

#include <cstring>
#include <mutex>

#include "common/clock.h"

namespace pandora {
namespace log_internal {

std::atomic<int>& MinLevel() {
  static std::atomic<int> level{static_cast<int>(LogLevel::kWarning)};
  return level;
}

void Emit(LogLevel level, const char* file, int line,
          const std::string& msg) {
  static std::mutex mu;
  const char* base = std::strrchr(file, '/');
  base = base ? base + 1 : file;
  const char* tag = "?";
  switch (level) {
    case LogLevel::kDebug:
      tag = "D";
      break;
    case LogLevel::kInfo:
      tag = "I";
      break;
    case LogLevel::kWarning:
      tag = "W";
      break;
    case LogLevel::kError:
      tag = "E";
      break;
    case LogLevel::kOff:
      return;
  }
  std::lock_guard<std::mutex> lock(mu);
  std::fprintf(stderr, "[%s %9.3fms %s:%d] %s\n", tag,
               static_cast<double>(NowNanos()) / 1e6, base, line,
               msg.c_str());
}

}  // namespace log_internal

}  // namespace pandora
