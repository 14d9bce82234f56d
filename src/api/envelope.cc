#include "src/api/envelope.h"

namespace stratrec::api {

StreamEvent StreamEvent::Arrival(core::DeploymentRequest request) {
  StreamEvent event;
  event.kind = Kind::kArrival;
  event.request = std::move(request);
  return event;
}

StreamEvent StreamEvent::Revocation(std::string request_id) {
  StreamEvent event;
  event.kind = Kind::kRevocation;
  event.request_id = std::move(request_id);
  return event;
}

StreamEvent StreamEvent::Completion(std::string request_id) {
  StreamEvent event;
  event.kind = Kind::kCompletion;
  event.request_id = std::move(request_id);
  return event;
}

StreamEvent StreamEvent::AvailabilityChange(AvailabilitySpec availability) {
  StreamEvent event;
  event.kind = Kind::kAvailabilityChange;
  event.availability = std::move(availability);
  return event;
}

const char* StreamEventKindName(StreamEvent::Kind kind) {
  return NameOf(kStreamEventKindNames, kind, "?");
}

const char* AdmissionKindName(core::AdmissionDecision::Kind kind) {
  return NameOf(kAdmissionKindNames, kind, "?");
}

}  // namespace stratrec::api
