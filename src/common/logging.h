#ifndef PANDORA_COMMON_LOGGING_H_
#define PANDORA_COMMON_LOGGING_H_

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace pandora {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kOff = 4,
};

namespace log_internal {

std::atomic<int>& MinLevel();
void Emit(LogLevel level, const char* file, int line, const std::string& msg);

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line)
      : level_(level), file_(file), line_(line) {}
  ~LogMessage() { Emit(level_, file_, line_, stream_.str()); }

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostringstream& stream() { return stream_; }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

}  // namespace log_internal

}  // namespace pandora

#define PANDORA_LOG_ENABLED(level)                                      \
  (static_cast<int>(::pandora::LogLevel::level) >=                      \
   ::pandora::log_internal::MinLevel().load(std::memory_order_relaxed))

#define PANDORA_LOG(level)                                              \
  if (!PANDORA_LOG_ENABLED(level)) {                                    \
  } else                                                                \
    ::pandora::log_internal::LogMessage(::pandora::LogLevel::level,     \
                                        __FILE__, __LINE__)             \
        .stream()

/// Invariant check that stays on in release builds; prints and aborts on
/// violation. Protocol-correctness checks use this rather than assert() so
/// the litmus framework catches violations in optimized runs too.
#define PANDORA_CHECK(cond)                                            \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "PANDORA_CHECK failed at %s:%d: %s\n",      \
                   __FILE__, __LINE__, #cond);                         \
      std::abort();                                                    \
    }                                                                  \
  } while (0)

#endif  // PANDORA_COMMON_LOGGING_H_
