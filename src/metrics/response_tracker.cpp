#include "metrics/response_tracker.h"

namespace bluedove {

void ResponseTracker::add(double rt) {
  overall_.add(rt);
  window_.add(rt);
  hist_.record(rt);
}

OnlineStats ResponseTracker::window() {
  OnlineStats out = window_;
  window_.reset();
  return out;
}

}  // namespace bluedove
