// Golden fixture: seeded serde asymmetries bd_serde_check must report:
//   1. Ping: reader decodes m.seq as u32, writer encoded u64.
//   2. Report: writer guards the trace block with `trace_id != 0`, reader
//      reads it unconditionally.
//   3. write_extra has no read_extra (orphan writer).
//   4. Batch: writer loops f64 values, the reader's bounded seq reads u32.
//   5. Block: writer emits raw bytes with no count, the reader reads a
//      count varint before its view.
#include "proto.h"

namespace demo {

void write_payload(serde::Writer& w, const Ping& m) {
  w.u64(m.seq);
  w.f64(m.sent_at);
}
Ping read_ping(serde::Reader& r) {
  Ping m;
  m.seq = r.u32();
  m.sent_at = r.f64();
  return m;
}

void write_payload(serde::Writer& w, const Report& m) {
  w.u32(m.node);
  w.varint(m.trace_id);
  if (m.trace_id != 0) {
    w.varint(m.parent_span);
  }
}
Report read_report(serde::Reader& r) {
  Report m;
  m.node = r.u32();
  m.trace_id = r.varint();
  m.parent_span = r.varint();
  return m;
}

void write_extra(serde::Writer& w, const Report& m) { w.u32(m.node); }

void write_payload(serde::Writer& w, const Batch& m) {
  w.varint(m.values.size());
  for (double v : m.values) w.f64(v);
  w.varint(m.ranges.size());
  for (const Range& x : m.ranges) write_span(w, x);
}
Batch read_batch(serde::Reader& r) {
  Batch m;
  m.values = r.seq<double>([](serde::Reader& in) { return in.u32(); });
  m.ranges = r.seq<Range>(read_span);
  return m;
}

void write_span(serde::Writer& w, const Range& x) {
  w.f64(x.lo);
  w.f64(x.hi);
}
Range read_span(serde::Reader& r) {
  Range x;
  x.lo = r.f64();
  x.hi = r.f64();
  return x;
}

void write_block(serde::Writer& w, const Block& b) {
  w.bytes(b.data, b.count * 8);
}
Block read_block(serde::Reader& r) {
  Block b;
  b.count = r.varint();
  b.data = r.view(b.count * 8);
  return b;
}

Envelope read_envelope(serde::Reader& r) {
  switch (r.u8()) {
    case 0:
      return Envelope::of(read_ping(r));
    case 1:
      return Envelope::of(read_report(r));
    case 2:
      return Envelope::of(read_batch(r));
  }
  return {};
}

}  // namespace demo
