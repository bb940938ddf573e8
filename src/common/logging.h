#ifndef NETMAX_COMMON_LOGGING_H_
#define NETMAX_COMMON_LOGGING_H_

// Minimal logging and invariant-checking facilities.
//
// The project does not use C++ exceptions: programmer errors and violated
// invariants abort the process through NETMAX_CHECK, while recoverable
// errors travel through Status/StatusOr (see common/status.h).
//
// Which is which, as a policy:
//  * NETMAX_CHECK guards conditions no input can trigger — contract
//    violations between layers, broken internal invariants, out-of-range
//    indices into structures this code built itself. A firing check is a bug
//    in this repository, and aborting with the site is the best diagnostic.
//  * Status/StatusOr covers everything a user, flag, environment variable,
//    config field, or on-disk file can cause: malformed flag values, invalid
//    experiment configs, unknown algorithm/dataset names, truncated
//    checkpoints. These paths must return the error to a caller that can
//    report it (benches exit non-zero from main; a long-running service
//    keeps serving), never abort mid-stack.

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

namespace netmax {

// Severity for LogMessage. kFatal aborts the process after the message is
// flushed.
enum class LogSeverity {
  kInfo = 0,
  kWarning = 1,
  kError = 2,
  kFatal = 3,
};

namespace internal {

// Accumulates one log line and emits it (to stderr) on destruction.
// Not thread-safe beyond the atomicity of a single stream write, which is
// sufficient for the diagnostic logging done in this project.
class LogMessage {
 public:
  LogMessage(LogSeverity severity, const char* file, int line)
      : severity_(severity) {
    stream_ << SeverityTag(severity) << " " << Basename(file) << ":" << line
            << "] ";
  }

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  ~LogMessage() {
    stream_ << "\n";
    std::cerr << stream_.str() << std::flush;
    if (severity_ == LogSeverity::kFatal) {
      std::abort();
    }
  }

  std::ostream& stream() { return stream_; }

 private:
  static const char* SeverityTag(LogSeverity severity) {
    switch (severity) {
      case LogSeverity::kInfo:
        return "I";
      case LogSeverity::kWarning:
        return "W";
      case LogSeverity::kError:
        return "E";
      case LogSeverity::kFatal:
        return "F";
    }
    return "?";
  }

  static const char* Basename(const char* path) {
    const char* base = path;
    for (const char* p = path; *p != '\0'; ++p) {
      if (*p == '/') base = p + 1;
    }
    return base;
  }

  LogSeverity severity_;
  std::ostringstream stream_;
};

// Turns the result of a streaming expression into void so that the ternary in
// NETMAX_CHECK type-checks; operator& binds looser than operator<< (glog's
// "voidify" idiom).
class Voidify {
 public:
  void operator&(std::ostream&) {}
};

}  // namespace internal
}  // namespace netmax

#define NETMAX_LOG(severity)                                          \
  ::netmax::internal::LogMessage(::netmax::LogSeverity::k##severity, \
                                 __FILE__, __LINE__)                  \
      .stream()

// Aborts with a diagnostic if `condition` is false. Additional context can be
// streamed: NETMAX_CHECK(n > 0) << "n=" << n;
#define NETMAX_CHECK(condition)                         \
  (condition) ? static_cast<void>(0)                    \
              : ::netmax::internal::Voidify() &         \
                    NETMAX_LOG(Fatal) << "Check failed: " #condition " "

#define NETMAX_CHECK_EQ(a, b) NETMAX_CHECK((a) == (b))
#define NETMAX_CHECK_NE(a, b) NETMAX_CHECK((a) != (b))
#define NETMAX_CHECK_LT(a, b) NETMAX_CHECK((a) < (b))
#define NETMAX_CHECK_LE(a, b) NETMAX_CHECK((a) <= (b))
#define NETMAX_CHECK_GT(a, b) NETMAX_CHECK((a) > (b))
#define NETMAX_CHECK_GE(a, b) NETMAX_CHECK((a) >= (b))

#endif  // NETMAX_COMMON_LOGGING_H_
