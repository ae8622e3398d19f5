#ifndef CONVOY_UTIL_CANCEL_H_
#define CONVOY_UTIL_CANCEL_H_

#include <atomic>
#include <memory>
#include <stdexcept>

namespace convoy {

/// Thrown by CancelToken::ThrowIfCancelled() at a cooperative cancellation
/// point. Internal signalling currency only: the public query API
/// (`ConvoyEngine::Execute`) converts it into `Status` kCancelled before it
/// reaches a caller. OrderedParallelFor (parallel/parallel_for.h) captures
/// a producer's exception per worker chunk and rethrows it on the calling
/// thread before consuming anything of that block, so a cancellation
/// raised inside the loop unwinds cleanly at any thread count.
class CancelledError : public std::runtime_error {
 public:
  CancelledError() : std::runtime_error("convoy query cancelled") {}
};

/// A cooperative cancellation flag shared between the thread running a query
/// and the thread that wants to stop it.
///
/// Copies of a token share one flag: hand a copy to `ConvoyEngine::Execute`
/// (via ExecHooks) and call `RequestCancel()` on your copy — typically from
/// another thread, or from a progress/sink callback — and the running query
/// aborts at its next cancellation point with StatusCode::kCancelled. No
/// partial state escapes: algorithm scratch unwinds with the stack, and the
/// engine's simplification cache only ever publishes fully built entries.
///
/// A default-constructed token is *inert*: it has no flag, is never
/// cancelled, and RequestCancel() on it is a no-op. That makes it the zero
/// cost default for every options struct. Create an armed token with
/// `CancelToken::Cancellable()`.
class CancelToken {
 public:
  /// Inert token: IsCancelled() is always false.
  CancelToken() = default;

  /// A live token; RequestCancel() on any copy cancels all copies.
  static CancelToken Cancellable() {
    CancelToken token;
    token.flag_ = std::make_shared<std::atomic<bool>>(false);
    return token;
  }

  /// Requests cancellation (no-op on an inert token). Thread-safe; calling
  /// it more than once is harmless.
  void RequestCancel() const {
    // Relaxed: the flag is a monotone one-way latch carrying no payload —
    // observers act on the flag alone, so no acquire/release pairing is
    // needed, only eventual visibility (which atomicity provides).
    if (flag_) flag_->store(true, std::memory_order_relaxed);
  }

  bool IsCancelled() const {
    // Relaxed: pure flag poll; a stale false only delays cancellation by
    // one check, it cannot order any other memory access.
    return flag_ && flag_->load(std::memory_order_relaxed);
  }

  /// True for tokens made with Cancellable(), false for inert ones.
  bool CanBeCancelled() const { return flag_ != nullptr; }

  /// The cooperative cancellation point: throws CancelledError when the
  /// flag is set. Cheap enough to call per tick / per partition.
  void ThrowIfCancelled() const {
    if (IsCancelled()) throw CancelledError();
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

}  // namespace convoy

#endif  // CONVOY_UTIL_CANCEL_H_
