#include "src/common/status.h"

namespace stratrec {

const char* StatusCodeName(StatusCode code) {
  return NameOf(kStatusCodeNames, code, "Unknown");
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace stratrec
