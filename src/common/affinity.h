#pragma once
// Thread-affinity annotations and runtime race detector.
//
// DESIGN.md §10 states the threading contract in prose: all node state is
// mutated only on the node's serialized execution context (its thread on
// the real substrates, the driving thread inside the simulator), offloaded
// match work runs on pool workers that touch nothing but immutable
// snapshots, and completions always come back to the node context. This
// header makes that contract machine-checked.
//
// Two layers:
//
//  * Declaration annotations — BD_NODE_THREAD / BD_WORKER_THREAD /
//    BD_ANY_THREAD. They expand to nothing and exist so the contract is
//    written next to each entry point; tools/lint/bd_lint.py fails the
//    build when a handle_* method is declared without one.
//
//  * Runtime checker — every substrate binds the current thread's role
//    before running node code (ScopedNodeBind in SimCluster event
//    callbacks, net::NodeLoop's node thread) or worker
//    code (ScopedWorkerBind in MatchExecutor::worker_loop). Annotated
//    entry points then call BD_ASSERT_NODE_THREAD(ctx) /
//    BD_ASSERT_WORKER_THREAD(), which verify the binding against the
//    expected identity. Binding is always on (a few thread-local stores);
//    the asserts are gated by a process-wide switch that defaults to on in
//    BLUEDOVE_AUDIT builds and off otherwise, so release hot paths pay one
//    relaxed atomic load per entry point.
//
// A violation increments a counter and logs; fail-fast mode aborts the
// process instead, which is what the audit CI job runs with.

#include <atomic>
#include <cstdint>

namespace bluedove::affinity {

enum class Role : std::uint8_t {
  kUnbound = 0,  ///< a thread no substrate has claimed (main, test driver)
  kNode = 1,     ///< a node's serialized execution context
  kWorker = 2,   ///< an offload pool worker
};

// --- process-wide checker state --------------------------------------------

/// Entry-point asserts fire only while enabled. Defaults to true when the
/// tree was compiled with -DBLUEDOVE_AUDIT, false otherwise.
bool enabled();
void set_enabled(bool on);

/// When fail-fast is set, a violation aborts the process (after logging);
/// otherwise it is counted and logged once per call site burst.
bool fail_fast();
void set_fail_fast(bool on);

std::uint64_t violations();
void reset_violations();

// --- current-thread binding -------------------------------------------------

Role current_role();
/// Identity of the node context this thread is bound to (nullptr unless
/// current_role() == kNode). Compared by address against the NodeContext a
/// node holds, so "right role, wrong node" is also a violation.
const void* current_node();

/// Binds the current thread to a node context for the scope's lifetime and
/// restores the previous binding on exit. Substrates that run many nodes on
/// one thread (the simulator) nest these per event; substrates with a
/// dedicated node thread hold one for the whole loop.
class ScopedNodeBind {
 public:
  explicit ScopedNodeBind(const void* ctx);
  ~ScopedNodeBind();
  ScopedNodeBind(const ScopedNodeBind&) = delete;
  ScopedNodeBind& operator=(const ScopedNodeBind&) = delete;

 private:
  Role prev_role_;
  const void* prev_node_;
};

/// Binds the current thread as an offload pool worker.
class ScopedWorkerBind {
 public:
  ScopedWorkerBind();
  ~ScopedWorkerBind();
  ScopedWorkerBind(const ScopedWorkerBind&) = delete;
  ScopedWorkerBind& operator=(const ScopedWorkerBind&) = delete;

 private:
  Role prev_role_;
  const void* prev_node_;
};

// --- entry-point assertions -------------------------------------------------

/// Records a violation when the current thread is not bound to `ctx` (pass
/// the node's own NodeContext*). `what` names the entry point for the log.
/// No-op while the checker is disabled or `ctx` is null (node not started).
void assert_node_thread(const void* ctx, const char* what);

/// Records a violation when the current thread is not a pool worker.
void assert_worker_thread(const char* what);

}  // namespace bluedove::affinity

// Declaration annotations. Purely lexical: they document the contract at
// the declaration and are enforced by tools/lint/bd_lint.py (every
// handle_* declaration must carry one). Runtime enforcement is the
// BD_ASSERT_* call placed inside the entry point's body.
#define BD_NODE_THREAD
#define BD_WORKER_THREAD
#define BD_ANY_THREAD

#define BD_ASSERT_NODE_THREAD(ctx)                                        \
  ::bluedove::affinity::assert_node_thread(                               \
      static_cast<const void*>(ctx), __func__)
#define BD_ASSERT_WORKER_THREAD() \
  ::bluedove::affinity::assert_worker_thread(__func__)
