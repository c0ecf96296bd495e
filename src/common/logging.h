// The fatal-message machinery behind the ARIDE_* check family
// (common/check.h). The check macros themselves live in check.h; library
// code reports everything else by returning data to its caller.

#ifndef AUCTIONRIDE_COMMON_LOGGING_H_
#define AUCTIONRIDE_COMMON_LOGGING_H_

#include <sstream>

namespace auctionride {
namespace internal_logging {

/// Aborts the process after flushing the streamed message.
class FatalMessage {
 public:
  FatalMessage(const char* file, int line, const char* condition);
  [[noreturn]] ~FatalMessage();

  FatalMessage(const FatalMessage&) = delete;
  FatalMessage& operator=(const FatalMessage&) = delete;

  std::ostringstream& stream() { return stream_; }

 private:
  const char* file_;
  int line_;
  const char* condition_;
  std::ostringstream stream_;
};

struct Voidify {
  // Lowest-precedence operator: lets the macro discard the stream expression.
  void operator&&(std::ostream&) {}
};

}  // namespace internal_logging
}  // namespace auctionride

#endif  // AUCTIONRIDE_COMMON_LOGGING_H_
