#include "common/logging.h"

#include <cstdio>
#include <cstdlib>

namespace auctionride {
namespace internal_logging {

FatalMessage::FatalMessage(const char* file, int line, const char* condition)
    : file_(file), line_(line), condition_(condition) {}

FatalMessage::~FatalMessage() {
  std::fprintf(stderr, "[FATAL %s:%d] Check failed: %s %s\n", file_, line_,
               condition_, stream_.str().c_str());
  std::abort();
}

}  // namespace internal_logging
}  // namespace auctionride
