#ifndef CONVOY_CORE_EXEC_HOOKS_H_
#define CONVOY_CORE_EXEC_HOOKS_H_

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "core/convoy_set.h"
#include "util/cancel.h"

namespace convoy {

class TraceSession;

/// A progress report from a running discovery. `done`/`total` count the
/// algorithm's sequential consumption units — ticks for CMC, time
/// partitions for the CuTS filter, refinement units (candidates or merged
/// windows) for the refine phase — so `done == total` means the named phase
/// finished. Phases arrive in order; a multi-phase algorithm (CuTS) reports
/// "filter" to completion, then "refine".
struct ProgressUpdate {
  const char* phase = "";  ///< "cmc", "filter", or "refine"
  size_t done = 0;
  size_t total = 0;
};

/// Optional execution hooks threaded through the discovery loops. All
/// callbacks are invoked on the *calling* thread's sequential consumption
/// pass — never from pool workers — so they need no synchronization, and
/// the emission order is deterministic at every thread count.
struct ExecHooks {
  /// Cooperative cancellation: checked once per consumption unit both in
  /// the producers and on the ordered consume pass of OrderedParallelFor
  /// (parallel/parallel_for.h). When it fires, the discovery unwinds with
  /// CancelledError (converted to a kCancelled Status by
  /// ConvoyEngine::Execute).
  CancelToken cancel;

  /// Invoked after every consumed unit. Keep it cheap: it runs on the
  /// critical sequential path.
  std::function<void(const ProgressUpdate&)> progress;

  /// Incremental result delivery: receives batches of *verified* convoys as
  /// the units producing them complete (CMC: candidates retiring with
  /// lifetime >= k; CuTS: each refinement unit's output), in deterministic
  /// unit order. The union of all batches is a superset of the final result
  /// set — cross-unit deduplication and dominance pruning happen only in
  /// the materialized result — but every emitted convoy is a true convoy.
  std::function<void(std::vector<Convoy>&&)> sink;

  /// Optional per-execution trace (obs/trace.h). Null — the default —
  /// disables all instrumentation at a cost of one branch per phase.
  /// Counters recorded through it are deterministic at any thread count;
  /// span timings are wall-clock. Every layer reads it via TraceOf below.
  TraceSession* trace = nullptr;
};

/// Cancellation point guarded for a null hooks pointer (the default
/// everywhere hooks are threaded through).
inline void CheckCancelled(const ExecHooks* hooks) {
  if (hooks != nullptr) hooks->cancel.ThrowIfCancelled();
}

inline void ReportProgress(const ExecHooks* hooks, const char* phase,
                           size_t done, size_t total) {
  if (hooks != nullptr && hooks->progress) {
    hooks->progress(ProgressUpdate{phase, done, total});
  }
}

inline void EmitConvoys(const ExecHooks* hooks, std::vector<Convoy> batch) {
  if (hooks != nullptr && hooks->sink && !batch.empty()) {
    hooks->sink(std::move(batch));
  }
}

/// The hooks' trace session, null-guarded like the helpers above.
inline TraceSession* TraceOf(const ExecHooks* hooks) {
  return hooks != nullptr ? hooks->trace : nullptr;
}

}  // namespace convoy

#endif  // CONVOY_CORE_EXEC_HOOKS_H_
