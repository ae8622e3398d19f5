#ifndef CONVOY_CORE_EXEC_HOOKS_H_
#define CONVOY_CORE_EXEC_HOOKS_H_

namespace convoy {

class TraceSession;

/// Optional execution hooks threaded through the discovery loops.
struct ExecHooks {
  /// Optional per-execution trace (obs/trace.h). Null — the default —
  /// disables all instrumentation at a cost of one branch per phase.
  /// Counters recorded through it are deterministic at any thread count;
  /// span timings are wall-clock. Every layer reads it via TraceOf below.
  TraceSession* trace = nullptr;
};

/// The hooks' trace session, null-guarded for a null hooks pointer (the
/// default everywhere hooks are threaded through).
inline TraceSession* TraceOf(const ExecHooks* hooks) {
  return hooks != nullptr ? hooks->trace : nullptr;
}

}  // namespace convoy

#endif  // CONVOY_CORE_EXEC_HOOKS_H_
