#include "attr/message.h"
#include "attr/subscription.h"

namespace bluedove {

void write_message(serde::Writer& w, const Message& m) {
  w.u64(m.id);
  w.varint(m.values.size());
  for (Value v : m.values) w.f64(v);
  write_payload_ref(w, m.payload);
}

Message read_message(serde::Reader& r) {
  Message m;
  m.id = r.u64();
  m.values = r.seq<Value>([](serde::Reader& in) { return in.f64(); });
  m.payload = read_payload_ref(r);
  return m;
}

void write_subscription(serde::Writer& w, const Subscription& s) {
  w.u64(s.id);
  w.u64(s.subscriber);
  w.varint(s.ranges.size());
  for (const Range& range : s.ranges) write_range(w, range);
}

Subscription read_subscription(serde::Reader& r) {
  Subscription s;
  s.id = r.u64();
  s.subscriber = r.u64();
  s.ranges = r.seq<Range>(read_range);
  return s;
}

}  // namespace bluedove
