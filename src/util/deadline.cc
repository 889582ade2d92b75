#include "util/deadline.h"

#include <cmath>

#include "util/string_util.h"

namespace mqd {

Deadline Deadline::AfterSeconds(double seconds) {
  Deadline d;
  if (std::isnan(seconds)) return d;  // no budget
  d.bounded_ = true;
  if (std::isinf(seconds)) {
    d.at_ = std::chrono::steady_clock::time_point::max();
    return d;
  }
  d.at_ = std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(seconds));
  return d;
}

Status Deadline::Check(const char* what) const {
  if (expired()) {
    return Status::DeadlineExceeded(
        StrFormat("%s: deadline exceeded", what));
  }
  return Status::OK();
}

}  // namespace mqd
