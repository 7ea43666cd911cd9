#pragma once
// Always-on flight recorder: per-thread lock-free ring buffers of fixed-size
// binary events (span begin/end, instants, counter samples) with nanosecond
// timestamps.
//
// Design goals (DESIGN.md §13):
//
//  * Cheap enough to leave on. Recording one event is: one relaxed load of
//    the global enable flag, one thread-local ring lookup, one monotonic
//    clock read, a 32-byte store and one release store of the ring head.
//    No locks, no allocation, no branches on the reader side of anything.
//  * Crash-friendly. Rings are fixed-size and overwrite oldest-first, so
//    the recorder always holds the most recent window of activity — the
//    part that matters when an audit fail-fast or a wedge is being
//    diagnosed. Rings are never freed (threads may die; their history must
//    not), so a dump can always read every ring that ever existed.
//  * Substrate-agnostic attribution. Every event carries the NodeId the
//    current thread is bound to (set by the substrates next to their
//    affinity bindings: once per net::NodeLoop node thread, per
//    delivered event on SimCluster, per pool worker in MatchExecutor), so
//    one OS thread multiplexing many simulated nodes still attributes each
//    event to the right node.
//
// Readers (Recorder::dump) copy a ring's surviving window without stopping
// the writer. A writer lapping the reader mid-copy can tear the oldest
// entries; dump() re-reads the head afterwards and discards anything that
// may have been overwritten, so the returned window is self-consistent for
// quiesced threads and conservatively trimmed for racing ones.
//
// The recorder is observational only: it never touches message bytes, RNG
// streams or timer ordering, so determinism digests and fig benches are
// byte-identical with it enabled or disabled.

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace bluedove::obs {

/// Per-message trace id, assigned by the dispatcher to sampled publications
/// and carried on the wire; 0 means "not traced". Recorder events with the
/// same id form one message's causal chain across nodes.
using TraceId = std::uint64_t;

/// Event kinds stored in the ring. The numeric values are part of the dump
/// ABI (trace_export and tools decode them), so only append.
enum class RecKind : std::uint8_t {
  kSpanBegin = 0,  ///< a synchronous section opens on this thread
  kSpanEnd = 1,    ///< the innermost open section closes
  kInstant = 2,    ///< a point event
  kCounter = 3,    ///< a sampled counter value (in `arg`)
};

/// One recorded event. Fixed 32-byte ABI so a ring is a flat array the
/// exporter (and a debugger) can walk without a schema.
struct RecEvent {
  std::uint64_t ts_ns = 0;    ///< CLOCK_MONOTONIC-style nanoseconds
  TraceId trace_id = 0;       ///< non-zero links the event to a wire trace
  std::uint64_t arg = 0;      ///< kind-specific payload (counter value, ...)
  std::uint32_t node = 0;     ///< NodeId bound to the thread (0 = unbound)
  std::uint16_t name = 0;     ///< interned name id (Recorder::intern)
  std::uint8_t kind = 0;      ///< RecKind
  std::uint8_t reserved = 0;  ///< pad to 32 bytes; always 0
};
static_assert(sizeof(RecEvent) == 32, "recorder event ABI is 32 bytes");

/// Process-wide recorder facade. All members are static: there is exactly
/// one recorder per process, fed by whichever threads run node code.
class Recorder {
 public:
  /// Events kept per thread before the ring wraps (must be a power of two;
  /// 16384 events = 512 KiB per thread).
  static constexpr std::size_t kDefaultRingEvents = 16384;

  /// Global switch. Defaults to on ("always-on"); the BLUEDOVE_RECORDER
  /// environment variable set to "0" or "off" disables it at startup, and
  /// tests/benches flip it at runtime.
  static bool enabled();
  static void set_enabled(bool on);

  /// Interns `name`, returning a stable small id. Call once per site and
  /// cache the result (function-local static); interning takes a lock.
  static std::uint16_t intern(const std::string& name);
  /// Snapshot of the intern table, indexed by name id.
  static std::vector<std::string> names();

  /// Binds the calling thread to `node` for subsequent events. Substrates
  /// with a dedicated node thread call this once; the simulator rebinds per
  /// delivered event (see ScopedRecorderNode).
  static void bind_node(NodeId node);
  static NodeId bound_node();

  /// Human label for the calling thread's ring ("node1000", "worker2",
  /// "wire.writer"); shows up as the thread name in exported traces.
  static void label_thread(const std::string& label);

  // --- hot-path event emitters ---------------------------------------------
  static void span_begin(std::uint16_t name, TraceId trace = 0,
                         std::uint64_t arg = 0);
  static void span_end(std::uint16_t name, TraceId trace = 0,
                       std::uint64_t arg = 0);
  static void instant(std::uint16_t name, TraceId trace = 0,
                      std::uint64_t arg = 0);
  static void counter(std::uint16_t name, std::uint64_t value);

  /// Monotonic nanoseconds on the same clock events are stamped with.
  static std::uint64_t now_ns();

  // --- dumping --------------------------------------------------------------
  struct ThreadDump {
    std::uint64_t ordinal = 0;     ///< ring registration order (stable tid)
    std::string label;             ///< label_thread value ("" if never set)
    std::uint64_t written = 0;     ///< events ever pushed (>= events.size())
    std::vector<RecEvent> events;  ///< surviving window, oldest -> newest
  };
  struct Dump {
    std::vector<ThreadDump> threads;
    std::vector<std::string> names;  ///< intern table (index = name id)
  };
  /// Copies every ring's surviving window. Safe while writers are running;
  /// see the tearing note in the header comment.
  static Dump dump();

  /// Ring capacity for threads that have not recorded yet (rounded up to a
  /// power of two). Existing rings keep their size. Test hook.
  static void set_default_ring_events(std::size_t events);

  /// Number of per-thread rings ever registered.
  static std::size_t thread_count();
};

/// RAII span around a synchronous section on the current thread. Spans on
/// one thread must strictly nest, which scope-based begin/end guarantees.
class ScopedSpan {
 public:
  ScopedSpan(std::uint16_t name, TraceId trace = 0, std::uint64_t arg = 0)
      : name_(name), trace_(trace) {
    Recorder::span_begin(name_, trace_, arg);
  }
  ~ScopedSpan() { Recorder::span_end(name_, trace_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::uint16_t name_;
  TraceId trace_;
};

/// Saves/restores the thread's bound node id. The simulator (one thread,
/// many nodes) nests one of these per delivered event, mirroring its
/// affinity::ScopedNodeBind.
class ScopedRecorderNode {
 public:
  explicit ScopedRecorderNode(NodeId node) : prev_(Recorder::bound_node()) {
    Recorder::bind_node(node);
  }
  ~ScopedRecorderNode() { Recorder::bind_node(prev_); }
  ScopedRecorderNode(const ScopedRecorderNode&) = delete;
  ScopedRecorderNode& operator=(const ScopedRecorderNode&) = delete;

 private:
  NodeId prev_;
};

}  // namespace bluedove::obs
