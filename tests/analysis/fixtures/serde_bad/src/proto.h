#pragma once
// Minimal serde surface for the golden fixtures (never compiled; the
// checker parses text).
namespace serde {
class Writer;
class Reader;
}  // namespace serde

namespace demo {

struct Ping {
  unsigned long seq = 0;
  double sent_at = 0;
};

struct Report {
  unsigned node = 0;
  unsigned long trace_id = 0;
  unsigned long parent_span = 0;
};

struct Range {
  double lo = 0;
  double hi = 0;
};

struct Batch {
  Samples* values;
  Samples* ranges;
};

struct Block {
  unsigned long count = 0;
  const unsigned char* data = nullptr;
};

struct Envelope {
  template <typename T>
  static Envelope of(T);
};

}  // namespace demo
